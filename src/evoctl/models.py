"""Model presets assembled on the one-dimensional staggered pair.

Wave with boundary observation.  The velocity v lives on nodes with the
constant mode deflated away (so the gradient part of F is injective),
the flux zeta on cells, and (w, y) carry the boundary input/output.  In
length-scaled coordinates the blocks of

    (d/dt M0 + M1 + A) x = delta (x) M0 x(0) + J f

are

    M0 = diag(1, 1, 0, 0),
    M1 = [[0, 0, 0,       0],
          [0, 0, 0,       0],
          [0, 0, 1,       0],
          [0, 0, sqrt(2), 1]],
    F  = (-Gmat; Cmat),   Cmat = -P_G S0^-1 V,

with V the deflation basis and P_G the node-side boundary coordinate
map.  w, y and u are node-side boundary coordinates: the control space
takes the unitary transport onto the cell side as its map N, so its
inner product is the boundary space's own, the plain dot product; a grid
whose computed transport misses unitarity by more than 1e-8 is refused.
The algebraic rows encode w + Cv = -sqrt(2) u and sqrt(2) w + y = -u, so
the closed loop obeys E(a) - E(b) = integral of |y|^2/2 - |u|^2/2.

Mixed type.  Region indicators move points between the time-derivative
block and the damping block: hyperbolic points keep their derivative,
parabolic nodes keep it while their cells turn algebraic, and elliptic
points sit entirely in M1.  The all-hyperbolic choice reproduces the
constant blocks above through the same code path.

Port-Hamiltonian chain.  Two field groups x0 (on cells) and x1 (on
nodes) with ell components each; the endpoint values of x1 play the
role of w, so w is eliminated by substituting the endpoint sampler E.
That folds the boundary damping into the x1-rows, while the x0-rows
keep the exact maximal derivative -kron(N^H, Ghat): the extrapolation
functionals built from the boundary pairing rows of T cancel the
boundary part of the dual derivative identically.  M0 is the pointwise
inverse of the Hamiltonian density, which must be block-diagonal over
the two groups since they live on different grids.

Maxwell-style lift.  Fields (E, H) on (nodes, cells) with the skew
first-order part A = [[0, -Ghat^H], [Ghat, 0]] and boundary data for H
prescribed in cell-side boundary coordinates.  Two treatments of the
inhomogeneous data are integrated side by side: shifting H by the
boundary representative (volume sources, one carrying a time
derivative) and keeping the data in the divergence rows through the
boundary pairing.  Each step takes the shift at the theta-average
u_theta of the data and its derivative as the step's difference
quotient, so the two routes agree to roundoff under both schemes.

The lift's sources are array kernels over the data samples; the
Hamiltonian density, a user callable, is called point by point.  A
system keeps no grid: boundary_equation_defect takes the grid a wave was
built on and rebuilds the wave's operators from it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .bdspace import KERNEL_CUTOFF, compute_bd_space, dual_projection, unitarity_defects
from .control import BlockPartition, ControlSystem, assemble_control
from .errors import (HypothesisViolationError, InvalidGridError, PositivityError,
                     ShapeMismatchError, as_array, negligible, require_invertible,
                     require_shape)
from .evolution import EvolutionarySystem, Trajectory, prepare
from .operators import GradDivPair, Grid1D, build_sbp_pair_1d, matvec

REGION_LABELS = ("hyperbolic", "parabolic", "elliptic")


def deflation_basis(pair: GradDivPair) -> np.ndarray:
    """Orthonormal basis of the complement of constants on scaled nodes.

    In length-scaled node coordinates the constant function becomes
    u0 = S0 1 / |S0 1|.  A Householder reflection sending u0 to -e0 is
    orthogonal, so its remaining columns are orthonormal and span the
    complement of u0 exactly.  Returns the real (n_nodes, n_nodes - 1)
    matrix V with V^T V = 1 and V^T u0 = 0.
    """
    s0 = np.sqrt(pair.W0)
    u0 = s0 / np.linalg.norm(s0)
    hv = u0.copy()
    hv[0] += 1.0
    house = np.eye(pair.n_nodes) - (2.0 / (hv @ hv)) * np.outer(hv, hv)
    return house[:, 1:]


def _wave_operators(grid: Grid1D) -> tuple:
    """(pair, bdG, bdD, S0, S1, V) of the wave on grid: the grad/div pair,
    its node- and cell-side boundary spaces, the roots of its weights and
    the deflation basis, rebuilt bitwise by every call, so a wave system
    keeps none of them.  w holds node-side boundary coordinates because the
    transport between the spaces is unitary; the grid is refused, naming
    h, where roundoff makes bdspace's unitarity rows exceed KERNEL_CUTOFF."""
    pair = build_sbp_pair_1d(grid)
    bdG, bdD = compute_bd_space(pair, "G"), compute_bd_space(pair, "D")
    # on the tiniest cells the round trips leave float64; NaN is refused too
    with np.errstate(all="ignore"):
        miss = np.max(unitarity_defects(bdG, bdD, pair))
    if not miss <= KERNEL_CUTOFF:
        raise InvalidGridError(
            f"the boundary data transport is not unitary: its round trips miss the identity "
            f"by {miss:.3e} (bound {KERNEL_CUTOFF:.0e}) on a cell width h = (b - a)/n_cells = "
            f"{grid.h:.3e} on [{grid.a}, {grid.b}] with {grid.n_cells} cells")
    return pair, bdG, bdD, np.sqrt(pair.W0), np.sqrt(pair.W1), deflation_basis(pair)


def _wave_dual_map(pair: GradDivPair, bdG, bdD) -> np.ndarray:
    """Physical dual map of the wave's boundary observation, node vectors
    by node-side boundary coordinates, which w holds."""
    return -dual_projection(bdG, bdD, pair)


def boundary_equation_defect(sys: ControlSystem, traj: Trajectory, grid: Grid1D) -> np.ndarray:
    """Norm of the boundary-data constraint on zeta at every state of traj,
    a run of a wave built on grid.

    Evaluates the cell-side boundary coordinates of zeta^k + eta^k, where
    eta^k is the least-squares preimage of the physical dual image of w^k
    under the minimal divergence: zero for states assembled to satisfy the
    constraint, first order in h along a run from compatible data.  The
    pair, its boundary spaces and the dual map are rebuilt from grid as
    the wave builder forms them, refusing the grids it refuses.  A grid
    that does not fit n_w or the flux block is refused naming both sizes,
    and so is a system without boundary coupling.
    """
    pair, bdG, bdD = _wave_operators(grid)[:3]
    if bdG.dim != sys.n_w:
        raise ShapeMismatchError(f"the grid's boundary space has dimension {bdG.dim}, "
                                 f"the system's n_w is {sys.n_w}")
    if grid.n_cells != sys.fine_sizes[1]:
        raise ShapeMismatchError(f"the grid has {grid.n_cells} cells, "
                                 f"the system's flux block {sys.fine_sizes[1]}")
    if not np.any(sys.Cmat):
        raise HypothesisViolationError(
            "boundary equation check needs a system with boundary coupling")
    # eta is linear in w: one least-squares solve for the columns of the dual map
    eta_of_w = np.linalg.lstsq(pair.minimal_div(), _wave_dual_map(pair, bdG, bdD), rcond=1e-10)[0]
    X = traj.states
    zeta = X[:, sys.fine_slice(1)] / np.sqrt(pair.W1) + X[:, sys.fine_slice(2)] @ eta_of_w.T
    return np.linalg.norm(zeta @ bdD.projector.T, axis=1)


# ---------------------------------------------------------------------------
# wave presets


def all_hyperbolic_indicators(grid: Grid1D) -> dict:
    """Region indicators marking every node and cell as hyperbolic."""
    ind = {
        label: (np.zeros(grid.n_nodes, dtype=bool), np.zeros(grid.n_cells, dtype=bool))
        for label in REGION_LABELS
    }
    ind["hyperbolic"] = (
        np.ones(grid.n_nodes, dtype=bool),
        np.ones(grid.n_cells, dtype=bool),
    )
    return ind


def three_region_indicators(grid: Grid1D, left: float = 1.0 / 3.0,
                            right: float = 2.0 / 3.0) -> dict:
    """Hyperbolic / parabolic / elliptic split at two interior fractions.

    Points with coordinate below a + left (b - a) are hyperbolic, below
    a + right (b - a) parabolic, and the rest elliptic; a point sitting
    exactly on a split goes to the region on its right.
    """
    if not 0.0 < left < right < 1.0:
        raise ValueError(f"need 0 < left < right < 1, got {left}, {right}")
    xl = grid.a + left * (grid.b - grid.a)
    xr = grid.a + right * (grid.b - grid.a)

    def split(x):
        return x < xl, (x >= xl) & (x < xr), x >= xr

    node_masks = split(grid.nodes())
    cell_masks = split(grid.cells())
    return {label: (node_masks[i], cell_masks[i])
            for i, label in enumerate(REGION_LABELS)}


def _checked_masks(indicators, grid: Grid1D) -> dict:
    if set(indicators) != set(REGION_LABELS):
        raise ValueError(
            f"indicators must partition the interval with exactly the keys "
            f"{REGION_LABELS}, got {tuple(sorted(indicators))}"
        )
    checked = {}
    node_count = np.zeros(grid.n_nodes, dtype=int)
    cell_count = np.zeros(grid.n_cells, dtype=int)
    for label in REGION_LABELS:
        nodes, cells = indicators[label]
        nodes = np.asarray(nodes, dtype=bool)
        cells = np.asarray(cells, dtype=bool)
        if nodes.shape != (grid.n_nodes,) or cells.shape != (grid.n_cells,):
            raise ShapeMismatchError(
                f"indicator {label!r} must be boolean masks of shapes "
                f"({grid.n_nodes},) and ({grid.n_cells},), got "
                f"{nodes.shape} and {cells.shape}"
            )
        node_count += nodes
        cell_count += cells
        checked[label] = (nodes, cells)
    if np.any(node_count != 1) or np.any(cell_count != 1):
        raise ValueError(
            "region indicators must partition the nodes and cells: every "
            "point in exactly one region"
        )
    return checked


@dataclass(frozen=True)
class WaveSpec:
    """Data for the boundary-observation wave builders.

    z1 is the initial velocity on nodes and z0 the initial flux on cells,
    both zero when omitted.  The control acts on the node-side boundary
    coordinates as they are: the control inner product takes the graph
    isometry dot_map(bdG, bdD, pair) as its map N, which makes it the
    boundary space's own.
    """

    grid: Grid1D
    z1: np.ndarray = None
    z0: np.ndarray = None


def build_mixed_type_wave(spec: WaveSpec, indicators) -> ControlSystem:
    """Assemble the wave preset with regionwise derivative/damping blocks.

    indicators maps each of the labels 'hyperbolic', 'parabolic' and
    'elliptic' to a (node_mask, cell_mask) pair partitioning the grid.
    Node masks act on the deflated velocity block as V^H chi V; cell
    masks stay diagonal.  Hyperbolic and parabolic nodes keep the time
    derivative, only hyperbolic cells keep theirs, and the complement
    lands in the damping block, so the all-hyperbolic choice yields the
    constant coefficient blocks of the module docstring.

    The gradient part of F is the deflated gradient S1 G S0^-1 V, square
    and injective on the staggered pair, so its range is the whole cell
    space: the initial velocity maps to V^H S0 z1 and the initial flux
    to S1 z0 with nothing projected away.
    """
    grid = spec.grid
    masks = _checked_masks(indicators, grid)
    pair, bdG, _, s0, s1, V = _wave_operators(grid)
    m = bdG.dim
    n_v = V.shape[1]
    Cmat = -(bdG.projector @ (V / s0[:, None]))

    nm_h, cm_h = masks["hyperbolic"]
    nm_p, cm_p = masks["parabolic"]
    nm_e, cm_e = masks["elliptic"]

    def node_block(mask):
        if mask.all():
            return 1.0
        if not mask.any():
            return None
        return V.conj().T @ (mask[:, None] * V)

    def cell_block(mask):
        if mask.all():
            return 1.0
        if not mask.any():
            return None
        return np.diag(mask.astype(float))

    M0_blocks = [[None] * 4 for _ in range(4)]
    M0_blocks[0][0] = node_block(nm_h | nm_p)
    M0_blocks[1][1] = cell_block(cm_h)
    M1_blocks = [[None] * 4 for _ in range(4)]
    M1_blocks[0][0] = node_block(nm_e)
    M1_blocks[1][1] = cell_block(cm_e | cm_p)
    M1_blocks[2][2] = 1.0
    M1_blocks[3][2] = np.sqrt(2.0)
    M1_blocks[3][3] = 1.0

    B1 = np.vstack([np.zeros((pair.n_cells, m)), -np.sqrt(2.0) * np.eye(m)])
    B_blocks = (None, B1, -np.eye(m))

    Gmat = ((pair.G / s0[None, :]) * s1[:, None]) @ V

    z1 = require_shape(spec.z1, (pair.n_nodes,), "z1", default=np.zeros(pair.n_nodes))
    z0 = require_shape(spec.z0, (pair.n_cells,), "z0", default=np.zeros(pair.n_cells))
    x0 = np.concatenate([
        V.conj().T @ (s0 * z1),
        s1 * z0,
        np.zeros(2 * m),
    ])

    partition = BlockPartition(n_h0=n_v, n_h1=pair.n_cells + m, n_y=m, n_u1=m)
    return assemble_control(
        partition, M0_blocks, M1_blocks, Gmat, Cmat, B_blocks,
        n_w=m, x0=x0,
    )


def build_weiss_tucsnak_wave(spec: WaveSpec) -> ControlSystem:
    """Assemble the boundary-observation wave (every point hyperbolic)."""
    return build_mixed_type_wave(spec, all_hyperbolic_indicators(spec.grid))


# ---------------------------------------------------------------------------
# port-Hamiltonian chain


@dataclass(frozen=True)
class PortHamiltonianSpec:
    """Data for the port-Hamiltonian chain builder.

    Nmat is the invertible ell x ell coefficient of the first-order
    term; the state carries 2 ell fields, the first group on cells and
    the second on nodes.  Hfun maps a coordinate to the 2ell x 2ell
    Hamiltonian density (selfadjoint, positive definite, block-diagonal
    over the two groups; identity when None).  P0 is the zeroth-order
    coefficient with the same block structure.  M1_lower = (M22, M23,
    M32, M33) holds the boundary damping blocks and B1, B2 the control
    columns of the (w, y) rows, each 2ell x 2ell; the defaults
    reproduce the wave preset's boundary algebra and satisfy the
    compatibility conditions exactly.  xi0 and xi1 are initial values
    per field group, shaped (ell, n_cells) and (ell, n_nodes).
    """

    grid: Grid1D
    Nmat: np.ndarray
    Hfun: Callable = None
    P0: np.ndarray = None
    M1_lower: tuple = None
    B1: np.ndarray = None
    B2: np.ndarray = None
    xi0: np.ndarray = None
    xi1: np.ndarray = None

    def __post_init__(self):
        Nmat = np.atleast_2d(as_array(self.Nmat))
        if Nmat.ndim != 2 or Nmat.shape[0] != Nmat.shape[1]:
            raise ShapeMismatchError(f"Nmat must be square, got shape {Nmat.shape}")
        require_invertible(Nmat, "Nmat must be invertible for the chain to be of full order")
        object.__setattr__(self, "Nmat", Nmat)

    @property
    def ell(self) -> int:
        return self.Nmat.shape[0]


def _density_values(Hfun, points, n) -> np.ndarray:
    """Evaluate a pointwise density, checking shape, symmetry, positivity."""
    vals = []
    for x in points:
        Hx = require_shape(None if Hfun is None else Hfun(float(x)), (n, n),
                           f"the Hamiltonian density at x = {x:.6g}", default=np.eye(n))
        if not negligible(Hx - Hx.conj().T, Hx):
            raise HypothesisViolationError(
                f"the Hamiltonian density at x = {x:.6g} is not selfadjoint"
            )
        evals, evecs = np.linalg.eigh(Hx)
        if evals[0] <= 0:
            raise PositivityError(
                f"the Hamiltonian density at x = {x:.6g} has smallest "
                f"eigenvalue {evals[0]:.3e}",
                witness=evecs[:, 0],
            )
        vals.append(Hx)
    return np.array(vals)


def _require_group_diagonal(vals, ell, name):
    if not (negligible(vals[:, :ell, ell:], vals) and negligible(vals[:, ell:, :ell], vals)):
        raise ValueError(
            f"{name} couples the two field groups, which live on different "
            "grids (cells and nodes); only coefficients block-diagonal over "
            "the groups are representable pointwise"
        )


def _pointwise_operator(vals) -> np.ndarray:
    """Stack pointwise matrices into an operator on per-field blocks."""
    npts, nf = vals.shape[0], vals.shape[1]
    out = np.zeros((nf, npts, nf, npts), dtype=vals.dtype)
    out[:, np.arange(npts), :, np.arange(npts)] = vals  # block (i, j) is diag(vals[:, i, j])
    return out.reshape(nf * npts, nf * npts)


def build_port_hamiltonian(spec: PortHamiltonianSpec) -> ControlSystem:
    """Assemble the chain with endpoint coupling, w eliminated.

    Fields are stacked per component, x0 on cells and x1 on nodes.  The
    boundary pair samples x1 at b and a (in that order); substituting
    those samples for w folds the boundary damping into the x1-rows,
    and the x0-rows keep the exact maximal derivative because the
    boundary extrapolation functionals cancel the boundary pairing part
    of the dual derivative identically.
    """
    grid = spec.grid
    pair = build_sbp_pair_1d(grid)
    ell = spec.ell
    n = 2 * ell
    nn, nc = pair.n_nodes, pair.n_cells
    s0 = np.sqrt(pair.W0)
    s1 = np.sqrt(pair.W1)
    N = spec.Nmat

    Hc = _density_values(spec.Hfun, grid.cells(), n)
    Hn = _density_values(spec.Hfun, grid.nodes(), n)
    _require_group_diagonal(Hc, ell, "the Hamiltonian density on cells")
    _require_group_diagonal(Hn, ell, "the Hamiltonian density on nodes")
    M0_blocks = [[None] * 4 for _ in range(4)]
    M0_blocks[0][0] = _pointwise_operator(np.linalg.inv(Hc[:, :ell, :ell]))
    M0_blocks[1][1] = _pointwise_operator(np.linalg.inv(Hn[:, ell:, ell:]))

    if spec.P0 is None:
        P0_00 = P0_11 = None
    else:
        P0 = require_shape(spec.P0, (n, n), "P0")
        _require_group_diagonal(P0[None, :, :], ell, "P0")
        P0_00, P0_11 = P0[:ell, :ell], P0[ell:, ell:]

    defaults = {"M22": np.eye(n), "M23": np.zeros((n, n)), "M32": np.sqrt(2.0) * np.eye(n),
                "M33": np.eye(n)}
    M22, M23, M32, M33 = (
        require_shape(blk, (n, n), name, default=defaults[name])
        for name, blk in zip(defaults, (None,) * 4 if spec.M1_lower is None else spec.M1_lower))
    lower = np.block([[M22, M23], [M32, M33]])
    smallest = np.linalg.eigvalsh(0.5 * (lower + lower.conj().T))[0]
    if smallest <= 0:
        warnings.warn(
            f"the boundary block of M1 has a real part with smallest "
            f"eigenvalue {smallest:.3e}; the damping hypothesis fails and "
            "well-posedness is not certified",
            RuntimeWarning,
        )

    B2 = require_shape(spec.B2, (n, n), "B2", default=-np.eye(n))
    if spec.B1 is None:
        require_invertible(M33, "cannot derive a compatible default B1: M33 is not invertible")
        B1 = M32.conj().T @ np.linalg.solve(M33.conj().T, B2)
    else:
        B1 = require_shape(spec.B1, (n, n), "B1")

    e_b = np.zeros(nn)
    e_b[-1] = 1.0 / s0[-1]
    e_a = np.zeros(nn)
    e_a[0] = 1.0 / s0[0]
    E = np.vstack([np.kron(np.eye(ell), e_b[None, :]),
                   np.kron(np.eye(ell), e_a[None, :])])
    t_b = pair.T[-1, :] / s1
    t_a = -pair.T[0, :] / s1
    Cport = np.vstack([np.kron(-N, t_b[None, :]), np.kron(N, t_a[None, :])])

    Dhat = (pair.D / s1[None, :]) * s0[:, None]
    Gmat = np.kron(N, Dhat) + E.conj().T @ Cport

    M1_blocks = [[None] * 4 for _ in range(4)]
    if P0_00 is not None and np.abs(P0_00).max() > 0:
        M1_blocks[0][0] = np.kron(-P0_00, np.eye(nc))
    x1_damping = E.conj().T @ M22 @ E
    if P0_11 is not None and np.abs(P0_11).max() > 0:
        x1_damping = x1_damping + np.kron(-P0_11, np.eye(nn))
    M1_blocks[1][1] = x1_damping
    if np.abs(M23).max() > 0:
        M1_blocks[1][3] = E.conj().T @ M23
    M1_blocks[3][1] = M32 @ E
    M1_blocks[3][3] = M33

    xi0 = require_shape(spec.xi0, (ell, nc), "xi0", default=np.zeros((ell, nc)))
    xi1 = require_shape(spec.xi1, (ell, nn), "xi1", default=np.zeros((ell, nn)))
    x0 = np.concatenate([
        (xi0 * s1[None, :]).reshape(-1),
        (xi1 * s0[None, :]).reshape(-1),
        np.zeros(n),
    ])

    partition = BlockPartition(n_h0=ell * nc, n_h1=ell * nn, n_y=n, n_u1=n)
    return assemble_control(
        partition, M0_blocks, M1_blocks, Gmat, None,
        (None, E.conj().T @ B1, B2), n_w=0, x0=x0,
    )


# ---------------------------------------------------------------------------
# Maxwell-style boundary lift


class MaxwellLiftResult(NamedTuple):
    """Trajectories of the lifted and the direct treatment, physical units."""

    lifted: Trajectory
    direct: Trajectory


def _coefficient_diagonal(value, npts, name) -> np.ndarray:
    if value is None:
        return np.ones(npts)
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = np.full(npts, arr)
    if arr.ndim == 2:
        if arr.shape != (npts, npts):
            raise ShapeMismatchError(
                f"{name} must be {npts}x{npts} or a length-{npts} diagonal, "
                f"got {arr.shape}"
            )
        if np.abs(arr - np.diag(np.diagonal(arr))).max() > 0:
            raise ValueError(
                f"{name} must be diagonal; spatially varying coefficients "
                "are per-point values"
            )
        arr = np.diagonal(arr).copy()
    if arr.shape != (npts,):
        raise ShapeMismatchError(
            f"{name} must be a scalar or a length-{npts} diagonal, got {arr.shape}"
        )
    if np.abs(arr.imag).max() > 0 or np.any(arr.real <= 0):
        raise PositivityError(f"{name} must be positive", witness=np.asarray(arr))
    return arr.real.astype(float)


def _initial_fields(x0, nn, nc):
    """(E0, H0) from a pair of fields or a flat state; zero when x0 is None."""
    if x0 is None:
        return np.zeros(nn), np.zeros(nc)
    if not isinstance(x0, (tuple, list)):
        flat = require_shape(x0, (nn + nc,), "flat x0")
        return flat[:nn], flat[nn:]
    if len(x0) != 2:
        raise ShapeMismatchError("x0 must be (E0, H0) or a flat state")
    return require_shape(x0[0], (nn,), "E0"), require_shape(x0[1], (nc,), "H0")


def maxwell_system(pair: GradDivPair, eps=None, mu=None) -> EvolutionarySystem:
    """The two-field system of the Maxwell-style preset, boundary data aside.

    State (E, H) on (nodes, cells) in length-scaled coordinates with
    M0 = diag(eps, mu), M1 = 0, A = [[0, -Ghat^H], [Ghat, 0]] where
    Ghat = S1 G S0^-1, and J the identity.  eps and mu are positive
    scalars or per-point diagonals (length n_nodes and n_cells), 1 when
    None.
    """
    nn, nc = pair.n_nodes, pair.n_cells
    Ghat = (pair.G / np.sqrt(pair.W0)[None, :]) * np.sqrt(pair.W1)[:, None]
    A = np.block([
        [np.zeros((nn, nn)), -Ghat.conj().T],
        [Ghat, np.zeros((nc, nc))],
    ])
    M0 = np.diag(np.concatenate([_coefficient_diagonal(eps, nn, "eps"),
                                 _coefficient_diagonal(mu, nc, "mu")]))
    return EvolutionarySystem(M0=M0, M1=np.zeros((nn + nc, nn + nc)), A=A,
                              J=np.eye(nn + nc))


def maxwell_lift_solve(pair, eps, mu, u_bd, x0, grid, scheme, bdD=None) -> MaxwellLiftResult:
    """Two-field system under boundary data on the flux field, solved twice.

    State (E, H) on (nodes, cells) with A = [[0, -Ghat^H], [Ghat, 0]] in
    length-scaled coordinates and M0 = diag(eps, mu); u_bd holds samples
    of the boundary data of H in the coordinates of bdD (the cell-side
    boundary space, built when None), one row per grid time.  Step k sees
    the data as u_theta = (1 - theta_k) u^k + theta_k u^{k+1} and its
    change as du = (u^{k+1} - u^k) / tau.  The lifted route substitutes
    H = Htilde + P u with P the boundary representative, producing the
    sources -Dhat P u_theta on the E-rows and -mu P du on the H-rows; the
    direct route keeps the data in the divergence rows through the
    boundary pairing part Theta = Dhat + Ghat^H.  With the shift taken at
    the step's own u_theta and du, the theta-step commutes with it, so the
    routes, run through one plan, agree to roundoff under both schemes.
    Both come back in physical units with the lift undone, their inputs
    holding u_theta.
    """
    nn, nc = pair.n_nodes, pair.n_cells
    s0 = np.sqrt(pair.W0)
    s1 = np.sqrt(pair.W1)
    sys = maxwell_system(pair, eps, mu)
    mu_d = sys.M0.diagonal()[nn:].real

    bdD = compute_bd_space(pair, "D") if bdD is None else bdD
    m = bdD.dim
    n_steps = grid.n_steps
    u = require_shape(u_bd, (n_steps + 1, m), "u_bd", default=np.zeros((n_steps + 1, m)))

    lift = s1[:, None] * bdD.basis
    Dhat = (pair.D / s1[None, :]) * s0[:, None]
    Theta = Dhat - sys.A[:nn, nn:]  # the block of A is -Ghat^H

    plan = prepare(sys, grid, scheme)
    theta = plan.theta
    u_theta = (1.0 - theta)[:, None] * u[:-1] + theta[:, None] * u[1:]
    du = (u[1:] - u[:-1]) / grid.tau
    # each product runs one GEMV per step; a source that overflows is refused
    # by plan.run, naming its step
    with np.errstate(over="ignore", invalid="ignore"):
        P_theta = matvec(lift, u_theta)
        F_lifted = np.hstack([-matvec(Dhat, P_theta), -mu_d * matvec(lift, du)])
        F_direct = np.hstack([-matvec(Theta, P_theta), np.zeros((n_steps, nc), F_lifted.dtype)])

    E0, H0 = _initial_fields(x0, nn, nc)
    x_direct = np.concatenate([s0 * E0, s1 * H0])
    x_lifted = np.concatenate([s0 * E0, s1 * H0 - lift @ u[0]])

    raw_lifted = plan.run(x_lifted, F_lifted)
    raw_direct = plan.run(x_direct, F_direct)

    def physical(raw, undo_lift):
        states = raw.states.copy()
        if undo_lift:
            states[:, nn:] += (lift @ u.T).T
        states[:, :nn] /= s0
        states[:, nn:] /= s1
        return replace(raw, states=states, inputs=u_theta)

    return MaxwellLiftResult(lifted=physical(raw_lifted, True),
                             direct=physical(raw_direct, False))
