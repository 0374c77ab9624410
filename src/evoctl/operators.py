"""Staggered 1D grid and a discrete gradient/divergence operator pair.

Node functions live on the ``n + 1`` grid points of ``[a, b]``, cell
functions on the ``n`` midpoints.  The forward difference

    (G u)_j = (u_{j+1} - u_j) / h

maps nodes to cells and the divergence ``D`` maps cells back to nodes.
With the diagonal quadrature weights ``W0`` (trapezoid on nodes) and
``W1 = h I`` (midpoint on cells) the pair satisfies a discrete
integration-by-parts identity

    <G u, v>_W1 + <u, D v>_W0 = u^H T v,

where ``T = W0 D + G^T W1`` is supported on the two boundary-node rows
only.  ``D`` is the backward difference at interior nodes; its two
boundary rows carry an extra O(h) correction chosen so that the kernels
of ``1 - D G`` (nodes) and ``1 - G D`` (cells) are exactly
two-dimensional on every grid, the discrete counterpart of the
two-parameter solution family of u'' = u.  Both kernels consist of
sampled growing/decaying exponentials.

The weighted adjoints ``W0^-1 G^T W1`` and ``W1^-1 D^T W0`` give the
"minimal" versions of the two operators (derivatives with the boundary
pairing removed); they agree with ``D`` and ``G`` on vectors carrying no
boundary data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError, ShapeMismatchError


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid on [a, b] with n_cells cells."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        if not np.isfinite([self.a, self.b, self.n_cells]).all():
            raise InvalidGridError(f"need finite a, b, n_cells, got {self.a, self.b, self.n_cells}")
        if not self.b > self.a:
            raise InvalidGridError(f"need a < b, got [{self.a}, {self.b}]")
        if int(self.n_cells) != self.n_cells or self.n_cells < 2:
            raise InvalidGridError(f"need n_cells >= 2, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.n_nodes)

    def cells(self) -> np.ndarray:
        return self.a + self.h * (np.arange(self.n_cells) + 0.5)


@dataclass(frozen=True)
class GradDivPair:
    """Discrete gradient/divergence pair with quadrature weights.

    G : (n_cells, n_nodes)    forward difference, nodes -> cells
    D : (n_nodes, n_cells)    divergence, cells -> nodes
    W0, W1 : diagonal weights as 1D arrays (nodes / cells)
    T : (n_nodes, n_cells)    boundary pairing, W0 D + G^T W1
    """

    grid: Grid1D
    G: np.ndarray
    D: np.ndarray
    W0: np.ndarray
    W1: np.ndarray
    T: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    def grad_adjoint(self) -> np.ndarray:
        """W-weighted adjoint of G: W0^-1 G^T W1, cells -> nodes."""
        return (self.G.T * self.W1[None, :]) / self.W0[:, None]

    def div_adjoint(self) -> np.ndarray:
        """W-weighted adjoint of D: W1^-1 D^T W0, nodes -> cells."""
        return (self.D.T * self.W0[None, :]) / self.W1[:, None]

    def minimal_div(self) -> np.ndarray:
        """Divergence with the boundary pairing removed: D - W0^-1 T.

        Equals -grad_adjoint(); agrees with D on cell vectors v with
        T v = 0, i.e. vectors carrying no boundary data.
        """
        return -self.grad_adjoint()

    def minimal_grad(self) -> np.ndarray:
        """Gradient with the boundary pairing removed: G - W1^-1 T^T."""
        return -self.div_adjoint()

    def node_inner(self, u, v):
        """Weighted node inner product <u|v>_W0 (conjugate-linear in u)."""
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape[0] != self.n_nodes or v.shape[0] != self.n_nodes:
            raise ShapeMismatchError("node vectors must have length n_nodes")
        return np.vdot(u, self.W0 * v) if u.ndim == 1 else u.conj().T @ (self.W0[:, None] * v)

    def cell_inner(self, u, v):
        """Weighted cell inner product <u|v>_W1."""
        u = np.asarray(u)
        v = np.asarray(v)
        if u.shape[0] != self.n_cells or v.shape[0] != self.n_cells:
            raise ShapeMismatchError("cell vectors must have length n_cells")
        return np.vdot(u, self.W1 * v) if u.ndim == 1 else u.conj().T @ (self.W1[:, None] * v)


def build_sbp_pair_1d(grid: Grid1D) -> GradDivPair:
    """Build the staggered gradient/divergence pair on a 1D grid.

    Returns a GradDivPair whose members satisfy, exactly up to roundoff,

        W0 D + G^T W1 = T                 (summation by parts)
        dim N(1 - D G) = dim N(1 - G D) = 2

    with T supported on the first and last node rows.
    """
    n = grid.n_cells
    h = grid.h

    G = np.zeros((n, n + 1))
    idx = np.arange(n)
    G[idx, idx] = -1.0 / h
    G[idx, idx + 1] = 1.0 / h

    # Backward difference at interior nodes.  The boundary rows add a +-h
    # zeroth-order term; it makes the node-0 row of (1 - D G) coincide with
    # the node-1 row (same for the right end), which is what pins both
    # kernel dimensions to 2.
    D = np.zeros((n + 1, n))
    ii = np.arange(1, n)
    D[ii, ii] = 1.0 / h
    D[ii, ii - 1] = -1.0 / h
    D[0, 0] = -1.0 / h - h
    D[0, 1] = 1.0 / h
    D[n, n - 1] = 1.0 / h + h
    D[n, n - 2] = -1.0 / h

    W0 = np.full(n + 1, h)
    W0[0] = h / 2
    W0[n] = h / 2
    W1 = np.full(n, h)

    T = np.zeros((n + 1, n))
    T[0, 0] = -(3.0 + h * h) / 2.0
    T[0, 1] = 0.5
    T[n, n - 1] = (3.0 + h * h) / 2.0
    T[n, n - 2] = -0.5

    return GradDivPair(
        grid=grid,
        G=G,
        D=D,
        W0=W0,
        W1=W1,
        T=T,
    )


def ibp_defect(pair: GradDivPair, u, v) -> float:
    """Residual of the integration-by-parts identity for one pair (u, v).

    Returns | <G u, v>_W1 + <u, D v>_W0 - u^H T v |.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != (pair.n_nodes,):
        raise ShapeMismatchError(f"u must be a node vector of length {pair.n_nodes}")
    if v.shape != (pair.n_cells,):
        raise ShapeMismatchError(f"v must be a cell vector of length {pair.n_cells}")
    lhs = pair.cell_inner(pair.G @ u, v) + pair.node_inner(u, pair.D @ v)
    boundary = np.vdot(u, pair.T @ v)
    return abs(lhs - boundary)


def minimal_projector(pair: GradDivPair, side: str) -> np.ndarray:
    """Coordinate projector onto interior-supported vectors.

    side="node": zeroes the two boundary nodes; side="cell": zeroes the
    first and last cell.  Diagonal, hence idempotent and symmetric with
    respect to the diagonal weight of its side.
    """
    if side not in ("node", "cell"):
        raise ValueError(f"side must be 'node' or 'cell', got {side!r}")
    mask = np.ones(pair.n_nodes if side == "node" else pair.n_cells)
    mask[[0, -1]] = 0.0
    return np.diag(mask)
