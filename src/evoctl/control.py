"""Boundary control systems: block assembly, compatibility conditions,
energy ledgers and input/output recovery.

A control system has state (v, zeta, w, y): a bulk field v, its flux
zeta, boundary values w, and an observation y.  The skew coupling

    A = [[0, -F^H, 0], [F, 0, 0], [0, 0, 0]],   F = (-Gmat; Cmat),

pairs v against (zeta, w); the y block carries no dynamics and its rows
of M1 define the observation algebraically.  The caller supplies both
parts of F: assemble_control requires Gmat, which each preset forms
from its own operators.  All matrices here live in
coordinates in which the physical weighted inner products are plain dot
products, so conjugate transposes realize adjoints and A is exactly
skew.

A control system is an evolutionary system (d/dt M0 + M1 + A) x = J f
(evolution.EvolutionarySystem) in which control acts only through the
boundary data: the input map is J = B, whose rows over the coarse
blocks (v | zeta, w | y) are (B0, B1, B2), and a control run's source
samples are the control samples u themselves; no state source enters.
evolution.solve integrates a ControlSystem as it stands.

The compatibility conditions

    (M1_yv' )^H B2 = B0,   (M1_y1')^H B2 = B1,
    with M1_yv' = M1_yy^{-1} M1[y, v-block], etc.,

tie the control distribution to the observation rows; under them (plus
a zero y-row of M0) the midpoint time stepper satisfies an exact energy
ledger: the drop in stored energy (1/2)<x|M0 x> over [a, b] equals the
accumulated internal dissipation minus the boundary supply
<B2 u|Re(M1_yy^{-1}) B2 u>.  A theta-step with theta > 1/2 (backward
Euler, theta = 1) adds the nonnegative numerical dissipation
(theta - 1/2)<dx|M0 dx>, which step_ledger reports per step.

The per-step checks are array kernels: step_ledger and extract_io take one
product per row block of steps and term.  A system is its operators
alone: a check that needs a model's grid lives with the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (HypothesisViolationError, ShapeMismatchError, as_array, negligible,
                     require_invertible, require_shape)
from .evolution import EvolutionarySystem, Trajectory, row_blocks

COMPAT_TOL = 1e-10


@dataclass(frozen=True)
class BlockPartition:
    """Sizes of the coarse state blocks and the control space.

    n_h0: bulk field block, n_h1: flux-plus-boundary block (zeta and w
    together), n_y: observation block, n_u1: control inputs.
    """

    n_h0: int
    n_h1: int
    n_y: int
    n_u1: int

    def __post_init__(self):
        for name in ("n_h0", "n_h1", "n_y", "n_u1"):
            val = getattr(self, name)
            if int(val) != val or val < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {val}")

    @property
    def dim(self) -> int:
        return self.n_h0 + self.n_h1 + self.n_y

    @property
    def sl_h0(self) -> slice:
        return slice(0, self.n_h0)

    @property
    def sl_h1(self) -> slice:
        return slice(self.n_h0, self.n_h0 + self.n_h1)

    @property
    def sl_y(self) -> slice:
        return slice(self.n_h0 + self.n_h1, self.dim)


def _expand_blocks(blocks, sizes, name):
    """Assemble a square matrix from a nested list over the fine blocks.

    Entries may be None (zero block), a scalar (scaled identity when the
    block is square), or a matrix of matching shape, in the dtype they promote to.
    """
    k = len(sizes)
    if len(blocks) != k or any(len(row) != k for row in blocks):
        raise ShapeMismatchError(f"{name} must be a {k}x{k} nested block list")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    out = np.zeros((offsets[-1], offsets[-1]), dtype=np.result_type(np.float64, *{
        np.asarray(entry).dtype for row in blocks for entry in row if entry is not None}))
    for i in range(k):
        for j in range(k):
            entry = blocks[i][j]
            if entry is None:
                continue
            shape = (sizes[i], sizes[j])
            if np.isscalar(entry):
                if sizes[i] != sizes[j]:
                    raise ShapeMismatchError(
                        f"{name}[{i}][{j}] is scalar but the block is {shape}"
                    )
                block = entry * np.eye(sizes[i])
            else:
                block = as_array(entry)
                if block.shape != shape:
                    raise ShapeMismatchError(
                        f"{name}[{i}][{j}] has shape {block.shape}, expected {shape}"
                    )
            out[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return out


def _fine_sizes(partition: BlockPartition, n_w) -> tuple:
    """Fine block sizes (n_h0, n_zeta, n_w, n_y): the middle block splits
    into the flux zeta and the boundary values w, so 0 <= n_w <= n_h1."""
    if not 0 <= n_w <= partition.n_h1:
        raise ShapeMismatchError(
            f"n_w must lie in [0, {partition.n_h1}] (the middle block size), got {n_w}"
        )
    return (partition.n_h0, partition.n_h1 - n_w, n_w, partition.n_y)


@dataclass(frozen=True)
class ControlSystem(EvolutionarySystem):
    """An evolutionary system (M0, M1, A, J) whose input map is the
    control map, J = B, in flat coordinates over a block partition.

    Only what cannot be derived is stored: the partition, the fine split
    n_w of the middle block and an optional initial state x0, no model
    geometry.  The control columns B0/B1/B2 are the rows of J over the
    coarse blocks, and Gmat and Cmat, the two constituents of F, are read
    off A; Cdual = Cmat^H is the dual map of Cmat appearing in the v-rows
    of A.  The base class checks that M0 is Hermitian and A skew-Hermitian.
    """

    partition: BlockPartition
    n_w: int
    x0: np.ndarray = field(default=None)

    def __post_init__(self):
        super().__post_init__()
        p = self.partition
        _fine_sizes(p, self.n_w)
        if self.M0.shape != (p.dim, p.dim):
            raise ShapeMismatchError(f"M0 must be {p.dim}x{p.dim}, got {self.M0.shape}")
        if self.J.shape != (p.dim, p.n_u1):
            raise ShapeMismatchError(f"J must be {p.dim}x{p.n_u1}, got {self.J.shape}")

    @property
    def B0(self) -> np.ndarray:
        return self.J[self.partition.sl_h0]

    @property
    def B1(self) -> np.ndarray:
        return self.J[self.partition.sl_h1]

    @property
    def B2(self) -> np.ndarray:
        return self.J[self.partition.sl_y]

    @property
    def Gmat(self) -> np.ndarray:
        return -self.A[self.fine_slice(1), self.fine_slice(0)]

    @property
    def Cmat(self) -> np.ndarray:
        return self.A[self.fine_slice(2), self.fine_slice(0)]

    @property
    def Cdual(self) -> np.ndarray:
        return self.Cmat.conj().T

    @property
    def fine_sizes(self) -> tuple:
        return _fine_sizes(self.partition, self.n_w)

    def fine_offsets(self) -> np.ndarray:
        return np.concatenate([[0], np.cumsum(self.fine_sizes)])

    def fine_slice(self, i: int) -> slice:
        off = self.fine_offsets()
        return slice(off[i], off[i + 1])


def assemble_control(
    partition: BlockPartition,
    M0_blocks,
    M1_blocks,
    Gmat,
    Cmat,
    B_blocks,
    *,
    n_w,
    x0=None,
) -> ControlSystem:
    """Build a ControlSystem from fine-block data.

    M0_blocks and M1_blocks are 4x4 nested lists over (v, zeta, w, y).
    Gmat is the gradient part of F, an n_zeta x n_h0 matrix in the
    length-scaled coordinates of the state; presets form it from their
    own operators.  Cmat maps v coordinates to w coordinates (None for
    no boundary coupling); its dual in these coordinates is the
    conjugate transpose.  B_blocks = (B0, B1, B2) over the coarse
    blocks, each optionally None, fill the rows of J = B.
    """
    n_w = int(n_w)
    sizes = _fine_sizes(partition, n_w)
    n_zeta = sizes[1]

    Gmat = require_shape(Gmat, (n_zeta, partition.n_h0), "Gmat")
    Cmat = require_shape(Cmat, (n_w, partition.n_h0), "Cmat",
                         default=np.zeros((n_w, partition.n_h0)))

    F = np.vstack([-Gmat, Cmat])
    A = np.zeros((partition.dim, partition.dim), dtype=F.dtype)
    A[partition.sl_h1, partition.sl_h0] = F
    A[partition.sl_h0, partition.sl_h1] = -F.conj().T

    J = np.zeros((partition.dim, partition.n_u1), dtype=np.result_type(
        np.float64, *(np.asarray(block) for block in B_blocks if block is not None)))
    for sl, block in zip((partition.sl_h0, partition.sl_h1, partition.sl_y), B_blocks):
        if block is not None:
            J[sl] = np.reshape(block, J[sl].shape)

    return ControlSystem(
        M0=_expand_blocks(M0_blocks, sizes, "M0_blocks"),
        M1=_expand_blocks(M1_blocks, sizes, "M1_blocks"), A=A, J=J,
        partition=partition, n_w=n_w,
        x0=None if x0 is None else as_array(x0),
    )


def _coarse_m1_blocks(sys: ControlSystem):
    p = sys.partition
    Myy = sys.M1[p.sl_y, p.sl_y]
    My0 = sys.M1[p.sl_y, p.sl_h0]
    My1 = sys.M1[p.sl_y, p.sl_h1]
    return My0, My1, Myy


def check_compatibility(sys: ControlSystem):
    """Defects of the two control compatibility conditions.

    Returns (|(Myy^-1 My0)^H B2 - B0|, |(Myy^-1 My1)^H B2 - B1|) in the
    spectral norm, where the blocks are taken over the coarse partition.
    """
    My0, My1, Myy = _coarse_m1_blocks(sys)
    if Myy.size == 0:
        raise HypothesisViolationError("observation block is empty")
    require_invertible(
        Myy, "observation block M1[y,y] is not invertible; the compatibility "
        "conditions presuppose its bounded inverse"
    )
    d0 = np.linalg.norm(np.linalg.solve(Myy, My0).conj().T @ sys.B2 - sys.B0, 2)
    d1 = np.linalg.norm(np.linalg.solve(Myy, My1).conj().T @ sys.B2 - sys.B1, 2)
    return float(d0), float(d1)


@dataclass(frozen=True)
class EnergyLedger:
    """Energy balance of a trajectory over a grid interval [a, b].

    stored_drop = E(a) - E(b) with E = (1/2)<x|M0 x>; dissipation and
    supply are the scheme-matched quadratures of <x|Re M1 x> and
    <B2 u|Re(M1_yy^-1) B2 u>; defect = stored_drop - (dissipation -
    supply).
    """

    interval: tuple
    stored_drop: float
    dissipation: float
    supply: float
    defect: float


class StepLedger(NamedTuple):
    """Energy terms of the steps ia, ia+1, ... of a trajectory: energy[j]
    = E(x^{ia+j}), and dissipation[j], supply[j] and the numerical
    dissipation correction[j] = (theta - 1/2)<dx|M0 dx> of step ia+j."""

    ia: int
    energy: np.ndarray
    dissipation: np.ndarray
    supply: np.ndarray
    correction: np.ndarray

    def summed(self, times, start=None) -> EnergyLedger:
        """The steps from grid index start (default ia) to the end summed
        into the ledger of the interval they cover; times are the grid's."""
        j = 0 if start is None else start - self.ia
        # the sums of a ledger that leaves float64 are not finite, with no numpy warning
        with np.errstate(all="ignore"):
            stored_drop = self.energy[j] - self.energy[-1]
            # the builtin sum adds in step order like a running total; np.sum adds
            # pairwise, which changes the last digits of the reported ledger
            dissipation = sum(self.dissipation[j:], 0.0)
            supply = sum(self.supply[j:], 0.0)
            return EnergyLedger(
                interval=(float(times[self.ia + j]), float(times[self.ia + len(self.supply)])),
                stored_drop=float(stored_drop),
                dissipation=float(dissipation),
                supply=float(supply),
                defect=float(stored_drop - (dissipation - supply)),
            )


def _grid_index(grid, t, what):
    times = grid.times()
    k = int(np.argmin(np.abs(times - t)))
    if abs(times[k] - t) > 1e-9 * max(grid.tau, 1.0):
        raise ValueError(f"{what} = {t} is not a grid time")
    return k


def _quad(X, M) -> np.ndarray:
    """Re <x|M x> of every row x of X."""
    return np.vecdot(X, X @ M.T).real


def step_ledger(sys: ControlSystem, traj: Trajectory, a=0.0, b=None) -> StepLedger:
    """Stored energy, dissipation, supply and numerical dissipation of
    every step of a controlled trajectory over [a, b].

    Refuses (naming the failed hypothesis) when the y-rows of M0 are
    nonzero or the compatibility defects exceed tolerance, since the
    balance equation is only asserted under those hypotheses.  The
    supply is that of the control samples traj.inputs, one row of
    length n_u1 per step.  Each step k then satisfies energy drop =
    dissipation - supply + correction.
    """
    p = sys.partition
    if not (negligible(sys.M0[p.sl_y, :], sys.M0) and negligible(sys.M0[:, p.sl_y], sys.M0)):
        raise HypothesisViolationError(
            "energy ledger requires the observation rows and columns of M0 to vanish"
        )
    if not negligible(sys.A[p.sl_y, :], sys.A):
        raise HypothesisViolationError(
            "energy ledger requires the observation rows of A to vanish"
        )
    d0, d1 = check_compatibility(sys)
    if max(d0, d1) > COMPAT_TOL:
        raise HypothesisViolationError(
            f"compatibility defects ({d0:.3e}, {d1:.3e}) exceed {COMPAT_TOL:.0e}; "
            "the energy balance is only asserted under the compatibility conditions"
        )

    if b is None:
        b = traj.grid.t_end
    ia = _grid_index(traj.grid, a, "a")
    ib = _grid_index(traj.grid, b, "b")
    if not ia < ib:
        raise ValueError(f"need a < b on the grid, got indices {ia}, {ib}")

    if traj.inputs.shape != (traj.grid.n_steps, p.n_u1):
        raise ShapeMismatchError(
            f"control samples must be ({traj.grid.n_steps}, {p.n_u1}), "
            f"got {traj.inputs.shape}"
        )

    reM1 = sys.re_m1()
    _, _, Myy = _coarse_m1_blocks(sys)
    Myy_inv = np.linalg.inv(Myy)
    supply_kernel = 0.5 * (Myy_inv + Myy_inv.conj().T)

    tau, theta, states = traj.grid.tau, traj.theta, traj.states
    # a ledger that leaves float64 is reported by its non-finite entries, not by numpy warnings
    with np.errstate(all="ignore"):
        energy = np.concatenate([0.5 * _quad(states[lo:hi], sys.M0)
                                 for lo, hi in row_blocks(ia, ib + 1)])
        dissipation, supply, correction = np.hstack([
            (tau * _quad(traj.x_theta(lo, hi), reM1),
             tau * _quad(traj.inputs[lo:hi] @ sys.B2.T, supply_kernel),
             (theta[lo:hi] - 0.5) * _quad(states[lo + 1:hi + 1] - states[lo:hi], sys.M0))
            for lo, hi in row_blocks(ia, ib)])
    return StepLedger(ia, energy, dissipation, supply, correction)


def energy_ledger(sys: ControlSystem, traj: Trajectory, a=0.0, b=None) -> EnergyLedger:
    """Energy ledger of a controlled trajectory over [a, b]: the steps of
    step_ledger summed (hypotheses and arguments as there)."""
    return step_ledger(sys, traj, a, b).summed(traj.grid.times())


@dataclass(frozen=True)
class IOSamples:
    """Boundary input/output samples recovered from the algebraic rows.

    Row k of w_samples and y_samples belongs to step k, taken at
    traj.sample_times()[k]; max_deviation is the largest distance between
    the recovered values and the trajectory's stored (w, y) components.
    """

    w_samples: np.ndarray
    y_samples: np.ndarray
    max_deviation: float


def extract_io(sys: ControlSystem, traj: Trajectory) -> IOSamples:
    """Recover (w, y) per step from the algebraic (w, y) rows.

    At each step's scheme-consistent state x the rows

        (M1 + A)[wy, wy] (w; y) = J[wy] u - (M1 + A)[wy, v zeta] x

    are solved directly and compared with the trajectory's stored
    components.  Refuses when M0 has nonzero (w, y) rows (the rows are
    only algebraic without them) or when the block to invert is
    singular.
    """
    p = sys.partition
    nw, ny = sys.n_w, p.n_y
    off = sys.fine_offsets()
    wy = slice(off[2], off[4])
    vz = slice(0, off[2])
    if not negligible(sys.M0[wy, :], sys.M0):
        raise HypothesisViolationError(
            "input/output recovery requires the (w, y) rows of M0 to vanish"
        )
    K = sys.M1[wy, wy] + sys.A[wy, wy]
    if K.size:
        require_invertible(
            K, "the (w, y) block of M1 + A is not invertible; input/output "
            "recovery presupposes its bounded inverse"
        )
    B_wy, M1A_wy_vz = sys.J[wy], sys.M1[wy, vz] + sys.A[wy, vz]
    rhs = np.zeros((traj.grid.n_steps, nw + ny),
                   dtype=np.result_type(traj.inputs, traj.states, B_wy, M1A_wy_vz))
    stored = np.zeros_like(rhs)
    # a run that leaves float64 gives non-finite samples, not numpy warnings
    with np.errstate(all="ignore"):
        for lo, hi in row_blocks(0, traj.grid.n_steps):
            xs = traj.x_theta(lo, hi)
            rhs[lo:hi] = traj.inputs[lo:hi] @ B_wy.T - xs[:, vz] @ M1A_wy_vz.T
            stored[lo:hi] = xs[:, wy]
        # one gufunc call that runs ?gesv per step with one right side, so each
        # step's solution is bitwise that of a solve of its own
        sol = np.linalg.solve(K, rhs[:, :, None])[:, :, 0] if K.size else rhs
        deviation = float(np.abs(sol - stored).max()) if sol.size else 0.0
    return IOSamples(w_samples=sol[:, :nw], y_samples=sol[:, nw:], max_deviation=deviation)

