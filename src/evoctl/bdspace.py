"""Boundary data spaces of a discrete gradient/divergence pair.

The node-side boundary data space is the kernel of ``1 - DG`` and the
cell-side one the kernel of ``1 - GD``; both are two-dimensional on a 1D
staggered pair and consist of sampled growing/decaying exponentials.
They carry the graph inner products

    <u|v>_G = <u|v>_W0 + <Gu|Gv>_W1,   <p|q>_D = <p|q>_W1 + <Dp|Dq>_W0,

and every node vector splits graph-orthogonally into a zero-boundary
part plus its boundary-data component.  Restricting G to the node-side
space gives a map onto the cell-side space that is unitary for the graph
inner products; its inverse is the restriction of D.  unitarity_defects
measures how far the computed round trips miss the identity.

A graph inner product <u|v>_W + <Ou|Ov>_W_out is the Euclidean one of
(sqrt(W) u; sqrt(W_out) O u), so one Householder QR of that stack
orthonormalizes a kernel without squaring a norm, which would overflow on
huge cells.  On tiny cells roundoff swamps the spaces instead, and the
wave builders refuse the grid by how far the round trips miss.

On top of the two spaces the module provides the dual projection that
represents boundary functionals as node vectors (the Riesz isomorphism
``(1 + G*G)^-1`` of the node graph space maps it back to the basis) and
a Green identity check: with

    S*(x, y) = -i (D y, G x),
    Gamma_0 (x, y) = boundary coordinates of x,
    Gamma_1 (x, y) = i * (inverse transport) of the boundary
                     coordinates of y,

the pairing <S*z|z'> - <z|S*z'> equals <Gamma_0 z|Gamma_1 z'> -
<Gamma_1 z|Gamma_0 z'> exactly, the discrete boundary-triple structure.
``boundary_triple_defect`` checks it on rows of pairs of states at once,
forming the transport once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalRankError
from .operators import GradDivPair, matvec

KERNEL_CUTOFF = 1e-8
KERNEL_GAP = 10.0


@dataclass(frozen=True)
class BoundaryDataSpace:
    """Graph-orthonormal basis of a boundary data space.

    side       'G' (node side, kernel of 1 - DG) or 'D' (cell side).
    basis      columns span the space, orthonormal in the graph inner
               product.
    projector  coordinate map, basis^H times the graph form matrix.

    basis maps coordinates back to vectors: basis @ (projector @ u) is
    the boundary-data component of u.
    """

    side: str
    basis: np.ndarray
    projector: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def compute_bd_space(pair: GradDivPair, side: str) -> BoundaryDataSpace:
    """Boundary data space of the pair on one side.

    side='G' returns the kernel of 1 - DG on nodes, side='D' the kernel
    of 1 - GD on cells.  A singular value decomposition finds the kernel
    K, with cutoff 1e-8 relative to the largest singular value, or to 1
    when that is smaller: the operator contains the identity, and on two
    cells 1 - GD is zero up to roundoff.  The basis is K R^-1, with R
    Gram-Schmidt's factor: the QR factor of K's graph-weighted stack with
    its diagonal, the graph norms, made positive.  Each refusal names the
    cell width and the grid; a graph norm below 1e-12 or not finite is one.
    """
    grid = pair.grid
    where = (f" on a cell width h = (b - a)/n_cells = {grid.h:.3e} on [{grid.a}, {grid.b}] "
             f"with {grid.n_cells} cells")
    if side == "G":
        mat = np.eye(pair.n_nodes) - pair.D @ pair.G
        W, O, W_out = pair.W0, pair.G, pair.W1
    elif side == "D":
        mat = np.eye(pair.n_cells) - pair.G @ pair.D
        W, O, W_out = pair.W1, pair.D, pair.W0
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

    r = np.linalg.qr(np.vstack([np.sqrt(W)[:, None] * kernel,
                                np.sqrt(W_out)[:, None] * (O @ kernel)]), mode="r")
    for nrm in np.abs(np.diagonal(r)):
        if not 1e-12 <= nrm < np.inf:  # NaN and inf would come from an overflowing O K
            raise NumericalRankError("kernel basis collapsed or overflowed during "
                                     f"orthonormalization (graph norm {nrm:.3e}){where}")
    basis = kernel @ np.linalg.inv(np.sign(np.diagonal(r)).conj()[:, None] * r)
    projector = (W[:, None] * basis).conj().T + (W_out[:, None] * (O @ basis)).conj().T @ O
    return BoundaryDataSpace(side=side, basis=basis, projector=projector)


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


def unitarity_defects(bdG: BoundaryDataSpace, bdD: BoundaryDataSpace, pair: GradDivPair):
    """max |Qd Q - 1| and max |Q Qd - 1| for the transports Q = dot_map(bdG,
    bdD, pair) and Qd = dot_map(bdD, bdG, pair): roundoff where the spaces
    are accurate, and not small when they differ in dimension."""
    Q, Qd = dot_map(bdG, bdD, pair), dot_map(bdD, bdG, pair)
    return np.abs(Qd @ Q - np.eye(bdG.dim)).max(), np.abs(Q @ Qd - np.eye(bdD.dim)).max()


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


def boundary_triple_defect(pair: GradDivPair, x, y, x2, y2,
                           bdG: BoundaryDataSpace, bdD: BoundaryDataSpace):
    """Residual of the discrete Green identity, one value per pair of states.

    With S*(x, y) = -i (Dy, Gx) and the boundary maps Gamma_0 (x, y) =
    node-side coordinates of x, Gamma_1 (x, y) = i times the transported
    cell-side coordinates of y, returns, for z = (x, y) and z' = (x2, y2),

        | <S*z|z'> - <z|S*z'> - <Gamma_0 z|Gamma_1 z'> + <Gamma_1 z|Gamma_0 z'> |.

    Node vectors x, x2 and cell vectors y, y2 lie along the last axis and
    the leading axes broadcast; one pair of states gives a 0-d value.
    """
    Qd = dot_map(bdD, bdG, pair)

    def star(xa, ya):
        return -1j * matvec(pair.D, ya), -1j * matvec(pair.G, xa)

    def gammas(xa, ya):
        return matvec(bdG.projector, xa), 1j * matvec(Qd, matvec(bdD.projector, ya))

    s1, s2 = star(x, y)
    t1, t2 = star(x2, y2)
    lhs = (np.vecdot(s1, pair.W0 * x2) + np.vecdot(s2, pair.W1 * y2)
           - np.vecdot(x, pair.W0 * t1) - np.vecdot(y, pair.W1 * t2))
    g0, g1 = gammas(x, y)
    g0b, g1b = gammas(x2, y2)
    # np.abs: the builtin abs of a complex scalar rounds apart from the array kernel
    return np.abs(lhs - (np.vecdot(g0, g1b) - np.vecdot(g1, g0b)))
