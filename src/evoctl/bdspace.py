"""Boundary data spaces of a discrete gradient/divergence pair.

The node-side boundary data space is the kernel of ``1 - DG`` and the
cell-side one the kernel of ``1 - GD``; both are two-dimensional on a 1D
staggered pair and consist of sampled growing/decaying exponentials.
They carry the graph inner products

    <u|v>_G = <u|v>_W0 + <Gu|Gv>_W1,   <p|q>_D = <p|q>_W1 + <Dp|Dq>_W0,

and every node vector splits graph-orthogonally into a zero-boundary
part plus its boundary-data component.  Restricting G to the node-side
space gives a map onto the cell-side space that is unitary for the graph
inner products; its inverse is the restriction of D.

On top of the two spaces the module provides the dual projection that
represents boundary functionals as node vectors (the Riesz isomorphism
``(1 + G*G)^-1`` of the node graph space maps it back to the basis), the
Gram matrix of an auxiliary control space U built from a chosen map N
into the cell-side space, and a Green identity check: with

    S*(x, y) = -i (D y, G x),
    Gamma_0 (x, y) = boundary coordinates of x,
    Gamma_1 (x, y) = i * (inverse transport) of the boundary
                     coordinates of y,

the pairing <S*z|z'> - <z|S*z'> equals <Gamma_0 z|Gamma_1 z'> -
<Gamma_1 z|Gamma_0 z'> exactly, the discrete boundary-triple structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankError, PositivityError, ShapeMismatchError, as_array, require_shape
from .operators import GradDivPair

KERNEL_CUTOFF = 1e-8
KERNEL_GAP = 10.0


@dataclass(frozen=True)
class GraphInnerProduct:
    """Inner product <u|v> = <u|v>_W + <Ou|Ov>_W_out.

    W is the diagonal weight of the domain side (as a 1D array), O the
    operator leaving it, W_out the diagonal weight of the target side.
    """

    W: np.ndarray
    O: np.ndarray
    W_out: np.ndarray

    def matrix(self) -> np.ndarray:
        """Dense symmetric positive definite form matrix."""
        return np.diag(self.W) + self.O.conj().T @ (self.W_out[:, None] * self.O)

    def inner(self, u, v):
        u = np.asarray(u)
        v = np.asarray(v)
        return np.vdot(u, self.W * v) + np.vdot(self.O @ u, self.W_out * (self.O @ v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u).real, 0.0)))


@dataclass(frozen=True)
class BoundaryDataSpace:
    """Graph-orthonormal basis of a boundary data space.

    side       'G' (node side, kernel of 1 - DG) or 'D' (cell side).
    basis      columns span the space, orthonormal in the graph inner
               product.
    projector  coordinate map, basis^H times the graph form matrix.
    graph      the inner product the basis is orthonormal for.

    basis maps coordinates back to vectors: basis @ project(u) is the
    boundary-data component of u.
    """

    side: str
    basis: np.ndarray
    projector: np.ndarray
    graph: GraphInnerProduct

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def project(self, u) -> np.ndarray:
        """Coordinates of the boundary-data component of u."""
        u = np.asarray(u)
        if u.shape[0] != self.basis.shape[0]:
            raise ShapeMismatchError(
                f"vector of length {u.shape[0]} does not live on the {self.side} side "
                f"(expected {self.basis.shape[0]})"
            )
        return self.projector @ u


def _graph_mgs(columns: np.ndarray, graph: GraphInnerProduct, where: str) -> np.ndarray:
    """Orthonormalize columns in the graph inner product.

    Modified Gram-Schmidt with one reorthogonalization pass, which keeps
    the orthonormality defect near roundoff.  The basis has the dtype of
    the columns and the graph form, so a real kernel gives a real basis.
    A refusal ends with where, which names the grid.
    """
    out = []
    for v in as_array(columns).T:
        for _ in range(2):
            for q in out:
                v = v - q * graph.inner(q, v)
        nrm = graph.norm(v)
        if not 1e-12 <= nrm < np.inf:  # NaN and inf come from a graph form that overflows
            raise NumericalRankError(
                f"kernel basis collapsed or overflowed during orthonormalization "
                f"(graph norm {nrm:.3e}){where}"
            )
        out.append(v / nrm)
    return np.column_stack(out)


def compute_bd_space(pair: GradDivPair, side: str) -> BoundaryDataSpace:
    """Boundary data space of the pair on one side.

    side='G' returns the kernel of 1 - DG on nodes, side='D' the kernel
    of 1 - GD on cells, each with a graph-orthonormal basis found by a
    singular value decomposition with cutoff 1e-8 relative to the largest
    singular value, or to 1 when that is smaller: the operator contains
    the identity, and on two cells 1 - GD is zero up to roundoff.  Each
    refusal names the cell width and the grid.
    """
    grid = pair.grid
    where = (f" on a cell width h = (b - a)/n_cells = {grid.h:.3e} on [{grid.a}, {grid.b}] "
             f"with {grid.n_cells} cells")
    if side == "G":
        mat = np.eye(pair.n_nodes) - pair.D @ pair.G
        graph = GraphInnerProduct(W=pair.W0, O=pair.G, W_out=pair.W1)
    elif side == "D":
        mat = np.eye(pair.n_cells) - pair.G @ pair.D
        graph = GraphInnerProduct(W=pair.W1, O=pair.D, W_out=pair.W0)
    else:
        raise ValueError(f"side must be 'G' or 'D', got {side!r}")

    _, s, vh = np.linalg.svd(mat)
    smax = max(s[0], 1.0)
    cutoff = KERNEL_CUTOFF * smax
    in_gap = (s >= cutoff) & (s < KERNEL_GAP * cutoff)
    if np.any(in_gap):
        raise NumericalRankError(
            "null space of the boundary-data operator is not cleanly separated: "
            f"singular values {s[in_gap]} sit at the cutoff {cutoff:.3e}{where}"
        )
    kernel = vh[s < cutoff].conj().T
    if kernel.shape[1] == 0:
        raise NumericalRankError(f"boundary-data operator has trivial kernel{where}")

    basis = _graph_mgs(kernel, graph, where)
    projector = basis.conj().T @ graph.matrix()
    return BoundaryDataSpace(
        side=side, basis=basis, projector=projector, graph=graph
    )


def dot_map(bd_from: BoundaryDataSpace, bd_to: BoundaryDataSpace, pair: GradDivPair) -> np.ndarray:
    """Transport between the two boundary data spaces, in coordinates.

    For bd_from on the node side this is the restriction of G (columns
    are coordinates in bd_to of G applied to the basis of bd_from); for
    the cell side it is the restriction of D.  The two directions are
    mutually inverse graph isometries.
    """
    if bd_from.side == bd_to.side:
        raise ValueError("transport needs one node-side and one cell-side space")
    op = pair.G if bd_from.side == "G" else pair.D
    return bd_to.projector @ (op @ bd_from.basis)


def dual_projection(
    bdG: BoundaryDataSpace, bdD: BoundaryDataSpace, pair: GradDivPair
) -> np.ndarray:
    """Dual projection of the node-side boundary data space.

    Maps boundary coordinates c to the node vector that represents the
    corresponding boundary functional against the W0 inner product:

        pi_dual = basis_G - Ddot . basis_D . Gdot,

    with Ddot the minimal divergence (the boundary pairing stripped from
    D).  Applying the Riesz isomorphism (1 + G*G)^-1 recovers basis_G.
    """
    Q = dot_map(bdG, bdD, pair)
    return bdG.basis - pair.minimal_div() @ (bdD.basis @ Q)


def build_u_space(
    bdG: BoundaryDataSpace,
    bdD: BoundaryDataSpace,
    N_map: np.ndarray,
    pair: GradDivPair,
) -> np.ndarray:
    """Gram matrix of the auxiliary control space from a map N of
    node-side coordinates into cell-side coordinates.

    The inner product is <f|g>_U = (1/2)<Nf|Gdot g> + (1/2)<Gdot f|Ng>,
    with Gdot the transport dot_map(bdG, bdD, pair).  Raises
    PositivityError (with a witness direction) when this form fails to be
    positive definite.
    """
    N_map = require_shape(N_map, (bdD.dim, bdG.dim), "N_map")
    Q = dot_map(bdG, bdD, pair)
    gram = 0.5 * (N_map.conj().T @ Q + Q.conj().T @ N_map)
    gram = 0.5 * (gram + gram.conj().T)

    evals, evecs = np.linalg.eigh(gram)
    if evals[0] <= 1e-12 * max(abs(evals[-1]), 1.0):
        raise PositivityError(
            f"the chosen N does not induce an inner product: smallest eigenvalue "
            f"{evals[0]:.3e}",
            witness=evecs[:, 0],
        )
    return gram


def boundary_triple_defect(
    pair: GradDivPair,
    x,
    y,
    x2,
    y2,
    bdG: BoundaryDataSpace = None,
    bdD: BoundaryDataSpace = None,
) -> float:
    """Residual of the discrete Green identity for two state pairs.

    With S*(x, y) = -i (Dy, Gx) and the boundary maps Gamma_0 (x, y) =
    node-side coordinates of x, Gamma_1 (x, y) = i times the transported
    cell-side coordinates of y, returns

        | <S*z|z'> - <z|S*z'> - <Gamma_0 z|Gamma_1 z'> + <Gamma_1 z|Gamma_0 z'> |.
    """
    if bdG is None:
        bdG = compute_bd_space(pair, "G")
    if bdD is None:
        bdD = compute_bd_space(pair, "D")

    def star(xa, ya):
        return -1j * (pair.D @ ya), -1j * (pair.G @ xa)

    s1, s2 = star(x, y)
    t1, t2 = star(x2, y2)
    lhs = (
        pair.node_inner(s1, x2)
        + pair.cell_inner(s2, y2)
        - pair.node_inner(x, t1)
        - pair.cell_inner(y, t2)
    )

    Qd = dot_map(bdD, bdG, pair)
    g0 = bdG.project(x)
    g1 = 1j * (Qd @ bdD.project(y))
    g0b = bdG.project(x2)
    g1b = 1j * (Qd @ bdD.project(y2))
    rhs = np.vdot(g0, g1b) - np.vdot(g1, g0b)
    return abs(lhs - rhs)
