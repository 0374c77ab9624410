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

The negated weighted adjoints ``-W0^-1 G^T W1`` and ``-W1^-1 D^T W0`` are
the "minimal" versions of the two operators (derivatives with the boundary
pairing removed, ``minimal_div`` and ``minimal_grad``); they agree with
``D`` and ``G`` on vectors carrying no boundary data.

``ibp_defect`` checks the identity on rows of pairs (u, v) at once; its
products go through ``matvec``, so a row gives the bits it gives alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidGridError, ShapeMismatchError, allocated


@dataclass(frozen=True)
class Grid1D:
    """Uniform staggered grid on [a, b] with n_cells cells."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        # a comparison, not np.isfinite, which raises TypeError on an int beyond
        # int64; NaN fails it, and so does an int beyond the float range
        if not all(abs(value) <= sys.float_info.max for value in (self.a, self.b, self.n_cells)):
            raise InvalidGridError(f"need finite a, b, n_cells, got {self.a, self.b, self.n_cells}")
        # numpy counts the nodes in int64
        if int(self.n_cells) != self.n_cells or not 2 <= self.n_cells < 2 ** 63:
            raise InvalidGridError(f"need an integer n_cells in [2, 2**63), got {self.n_cells}")
        # the pair's boundary rows hold h**2 <= (b - a)**2 / 4, which must be finite;
        # G and D hold 1/h, so a row of D G or G D holds 1/h**2, -2/h**2 and 1/h**2,
        # whose absolute sum 4/h**2 must be finite too
        if not 0 < self.b - self.a <= sys.float_info.max ** 0.5:
            raise InvalidGridError(f"need a < b and a finite (b - a)**2, got [{self.a}, {self.b}]")
        if not self.h >= 2 / sys.float_info.max ** 0.5:
            raise InvalidGridError(f"need a cell width h = (b - a)/n_cells >= 2/sqrt(max float) "
                                   f"= 1.5e-154, so that 4/h**2 is finite, got h = {self.h:.3e} "
                                   f"on [{self.a}, {self.b}] with {self.n_cells} cells")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    def nodes(self) -> np.ndarray:
        return self.a + self.h * allocated(np.arange, self.n_nodes)

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

    def minimal_div(self) -> np.ndarray:
        """Divergence with the boundary pairing removed: D - W0^-1 T,
        cells -> nodes.

        The negated weighted adjoint of G, -W0^-1 G^T W1; agrees with D on
        cell vectors v with T v = 0, i.e. vectors carrying no boundary data.
        """
        return -((self.G.T * self.W1[None, :]) / self.W0[:, None])

    def minimal_grad(self) -> np.ndarray:
        """Gradient with the boundary pairing removed: G - W1^-1 T^T,
        nodes -> cells; the negated weighted adjoint of D, -W1^-1 D^T W0."""
        return -((self.D.T * self.W0[None, :]) / self.W1[:, None])


def matvec(mat: np.ndarray, x) -> np.ndarray:
    """mat @ x for each vector along the last axis of x, one GEMV per row, so each
    row keeps the bits of its own product (a GEMM such as x @ mat.T would not)."""
    return (mat @ np.asarray(x)[..., None])[..., 0]


def build_sbp_pair_1d(grid: Grid1D) -> GradDivPair:
    """Build the staggered gradient/divergence pair on a 1D grid.

    Returns a GradDivPair whose members satisfy, exactly up to roundoff,

        W0 D + G^T W1 = T                 (summation by parts)
        dim N(1 - D G) = dim N(1 - G D) = 2

    with T supported on the first and last node rows.
    """
    n = grid.n_cells
    h = grid.h

    G = allocated(np.zeros, (n, n + 1))
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


def ibp_defect(pair: GradDivPair, u, v):
    """Residual of the integration-by-parts identity, one value per pair.

    u holds node vectors and v cell vectors along the last axis, the
    leading axes broadcasting; returns | <G u, v>_W1 + <u, D v>_W0 - u^H T v |
    for each pair, a 0-d value for one pair of vectors.
    """
    if np.shape(u)[-1:] != (pair.n_nodes,):
        raise ShapeMismatchError(f"u must hold node vectors of length {pair.n_nodes}")
    if np.shape(v)[-1:] != (pair.n_cells,):
        raise ShapeMismatchError(f"v must hold cell vectors of length {pair.n_cells}")
    lhs = np.vecdot(matvec(pair.G, u), pair.W1 * v) + np.vecdot(u, pair.W0 * matvec(pair.D, v))
    # np.abs: the builtin abs of a complex scalar rounds apart from the array kernel
    return np.abs(lhs - np.vecdot(u, matvec(pair.T, v)))
