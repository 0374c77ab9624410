"""Tests for boundary data spaces, their transport maps, the dual
projection, and the Green identity."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evoctl.bdspace import (
    KERNEL_CUTOFF,
    boundary_triple_defect,
    compute_bd_space,
    dot_map,
    dual_projection,
    unitarity_defects,
)
from evoctl.errors import NumericalRankError
from evoctl.operators import Grid1D, build_sbp_pair_1d


@st.composite
def random_grids(draw):
    """A grid on a random [a, a + length] with 2 to 64 cells."""
    a = draw(st.floats(-10.0, 10.0))
    length = draw(st.floats(1e-2, 100.0))
    return Grid1D(a, a + length, draw(st.integers(2, 64)))


@st.composite
def green_pairs(draw):
    """(pair, x, y, x2, y2): a pair on a random grid with complex node
    vectors x, x2 and cell vectors y, y2."""
    pair = build_sbp_pair_1d(draw(random_grids()))
    entries = st.floats(-1.0, 1.0)

    def cplx(n):
        return draw(hnp.arrays(float, n, elements=entries)) \
            + 1j * draw(hnp.arrays(float, n, elements=entries))

    return (pair, cplx(pair.n_nodes), cplx(pair.n_cells),
            cplx(pair.n_nodes), cplx(pair.n_cells))


def green_bound(pair, x, y, x2, y2):
    """1e-12 (h + 1/h)(|x| + |y|)(|x2| + |y2|): Gamma_0 and Gamma_1 are
    coordinates in the graph form diag(W) + O^H W_out O, whose entries
    are O(h + 1/h), so the roundoff of the identity scales with it."""
    # scipy's BLAS norm rescales instead of underflowing like np.linalg.norm
    norm = scipy.linalg.norm
    h = pair.grid.h
    return 1e-12 * (h + 1.0 / h) * (norm(x) + norm(y)) * (norm(x2) + norm(y2))


def ones_on_a_long_coarse_grid():
    """(pair, x, y, x2, y2) on [0, 50] with 2 cells: x = i on the nodes and
    y2 = i on the cells, the rest zero.  Its defect 2.5e-13 exceeds
    1e-12 (|x| + |y|)(|x2| + |y2|)/h = 9.8e-14, a bound without the h term."""
    pair = build_sbp_pair_1d(Grid1D(0.0, 50.0, 2))
    return (pair, np.full(3, 1j), np.zeros(2, complex), np.zeros(3, complex),
            np.full(2, 1j))


def svd_kernel(pair, side):
    """The kernel columns compute_bd_space orthonormalizes: the right
    singular vectors of 1 - DG or 1 - GD below its cutoff, bit for bit."""
    if side == "G":
        mat = np.eye(pair.n_nodes) - pair.D @ pair.G
    else:
        mat = np.eye(pair.n_cells) - pair.G @ pair.D
    _, s, vh = np.linalg.svd(mat)
    return vh[s < KERNEL_CUTOFF * max(s[0], 1.0)].conj().T


def graph_mgs(columns, S):
    """Modified Gram-Schmidt with one reorthogonalization pass in the graph
    inner product (Su)^H (Sv): the orthonormalization that the Householder
    QR of compute_bd_space replaced, kept as the reference for its basis."""
    out = []
    for v in columns.T:
        for _ in range(2):
            for q in out:
                v = v - q * np.vdot(S @ q, S @ v)
        out.append(v / np.linalg.norm(S @ v))
    return np.column_stack(out)


@pytest.fixture(scope="module")
def pair16():
    return build_sbp_pair_1d(Grid1D(0.0, 1.0, 16))


@pytest.fixture(scope="module")
def spaces16(pair16):
    return compute_bd_space(pair16, "G"), compute_bd_space(pair16, "D")


class TestComputeBdSpace:
    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    @pytest.mark.parametrize("side", ["G", "D"])
    def test_dimension_is_two(self, n, side):
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        assert compute_bd_space(pair, side).dim == 2

    @pytest.mark.parametrize("length", [3.0, 0.01, 100.0])
    @pytest.mark.parametrize("side", ["G", "D"])
    def test_two_cells_give_two_dimensions(self, length, side):
        """On two cells 1 - GD vanishes up to roundoff; the cutoff must not
        scale with that roundoff."""
        pair = build_sbp_pair_1d(Grid1D(0.0, length, 2))
        assert compute_bd_space(pair, side).dim == 2

    def test_basis_in_kernel(self, pair16, spaces16):
        """Each basis column solves the defining kernel equation."""
        bdG, bdD = spaces16
        resG = (np.eye(17) - pair16.D @ pair16.G) @ bdG.basis
        resD = (np.eye(16) - pair16.G @ pair16.D) @ bdD.basis
        assert np.max(np.abs(resG)) < 1e-10
        assert np.max(np.abs(resD)) < 1e-10

    def test_graph_orthonormal(self, pair16, spaces16, graph_map):
        for bd in spaces16:
            image = graph_map(pair16, bd.side) @ bd.basis
            gram = image.conj().T @ image
            err = np.max(np.abs(gram - np.eye(bd.dim)))
            assert err < 1e-12, f"basis not graph-orthonormal: {err:.2e}"

    @settings(max_examples=60, deadline=None)
    @given(random_grids())
    @example(Grid1D(0.0, 1.0, 1536))
    def test_basis_is_the_gram_schmidt_basis(self, graph_map, grid):
        """One Householder QR of the graph-weighted kernel gives the basis
        that modified Gram-Schmidt gives, within 1e-13 relative, on either
        side; the basis stays graph-orthonormal and its projector recovers
        its coordinates."""
        pair = build_sbp_pair_1d(grid)
        for side in ("G", "D"):
            bd = compute_bd_space(pair, side)
            S = graph_map(pair, side)
            reference = graph_mgs(svd_kernel(pair, side), S)
            err = np.abs(bd.basis - reference).max() / np.abs(reference).max()
            assert err <= 1e-13, f"{side}: basis off the Gram-Schmidt basis by {err:.2e}"
            image = S @ bd.basis
            assert np.abs(image.conj().T @ image - np.eye(bd.dim)).max() < 1e-12
            assert np.abs(bd.projector @ bd.basis - np.eye(bd.dim)).max() < 1e-10

    def test_zero_boundary_vectors_project_to_zero(self, spaces16):
        """Node vectors vanishing at both ends carry no boundary data."""
        bdG, _ = spaces16
        rng = np.random.default_rng(seed=101)
        for _ in range(20):
            u = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            u[0] = 0.0
            u[-1] = 0.0
            assert np.linalg.norm(bdG.projector @ u) < 1e-10

    def test_projection_error_of_exponential_samples(self, graph_map):
        """Sampled e^x sits O(h^2) from the space of discrete
        exponentials; halving h divides the distance by about 4."""
        errs = []
        for n in (16, 32, 64):
            pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
            bd = compute_bd_space(pair, "G")
            u = np.exp(pair.grid.nodes())
            err = np.linalg.norm(graph_map(pair, "G") @ (u - bd.basis @ (bd.projector @ u)))
            errs.append(err)
        for coarse, fine in zip(errs, errs[1:]):
            ratio = coarse / fine
            assert 2.8 < ratio < 5.2, f"projection error ratio off: {ratio:.3f}"

    def test_orthogonal_decomposition(self, pair16, spaces16, graph_map):
        """u = u_min + embedded boundary data, graph-orthogonally."""
        bdG, _ = spaces16
        S = graph_map(pair16, "G")
        rng = np.random.default_rng(seed=55)
        for _ in range(20):
            u = rng.standard_normal(17) + 1j * rng.standard_normal(17)
            ub = bdG.basis @ (bdG.projector @ u)
            umin = u - ub
            assert abs(umin[0]) < 1e-10 and abs(umin[-1]) < 1e-10
            for k in range(bdG.dim):
                ip = np.vdot(S @ bdG.basis[:, k], S @ umin)
                assert abs(ip) < 1e-10, f"decomposition not orthogonal: {abs(ip):.2e}"

    @pytest.mark.parametrize("scale,norm", [(np.inf, "inf"), (1e-40, r"\S+e-\d\d")])
    @pytest.mark.parametrize("side", ["G", "D"])
    def test_graph_norm_off_its_range_is_refused(self, pair16, scale, norm, side):
        """With the weights scaled to inf, or by 1e-40, the graph norms leave
        [1e-12, inf), and the space is refused naming the grid.  No grid
        Grid1D accepts was found to reach this refusal."""
        pair = dataclasses.replace(pair16, W0=scale * pair16.W0, W1=scale * pair16.W1)
        with pytest.raises(NumericalRankError, match=(
                r"^kernel basis collapsed or overflowed during orthonormalization \(graph norm "
                rf"{norm}\) on a cell width h = \(b - a\)/n_cells = 6\.250e-02 on \[0\.0, 1\.0\] "
                r"with 16 cells$")):
            compute_bd_space(pair, side)

    def test_bad_side_rejected(self, pair16):
        with pytest.raises(ValueError):
            compute_bd_space(pair16, "X")


class TestDotMap:
    def test_mutually_inverse(self, pair16, spaces16):
        bdG, bdD = spaces16
        Q = dot_map(bdG, bdD, pair16)
        Qd = dot_map(bdD, bdG, pair16)
        assert np.max(np.abs(Qd @ Q - np.eye(2))) < 1e-10
        assert np.max(np.abs(Q @ Qd - np.eye(2))) < 1e-10
        assert unitarity_defects(bdG, bdD, pair16) == (np.abs(Qd @ Q - np.eye(2)).max(),
                                                       np.abs(Q @ Qd - np.eye(2)).max())

    def test_a_lost_dimension_is_not_unitary(self, pair16, spaces16):
        """With one cell-side basis vector dropped, Qd Q has rank 1, so it
        misses the identity by at least 1/2 in some entry."""
        bdG, bdD = spaces16
        narrow = dataclasses.replace(bdD, basis=bdD.basis[:, :1], projector=bdD.projector[:1])
        assert unitarity_defects(bdG, narrow, pair16)[0] >= 0.5

    def test_graph_isometry(self, pair16, spaces16):
        """In orthonormal coordinates the transport is unitary."""
        bdG, bdD = spaces16
        Q = dot_map(bdG, bdD, pair16)
        err = np.max(np.abs(Q.conj().T @ Q - np.eye(2)))
        assert err < 1e-10, f"unitarity defect: {err:.2e}"

    def test_transport_applies_the_operator(self, pair16, spaces16):
        """Transporting coordinates matches applying G to the vector."""
        bdG, bdD = spaces16
        Q = dot_map(bdG, bdD, pair16)
        rng = np.random.default_rng(seed=8)
        c = rng.standard_normal(2)
        u = bdG.basis @ c
        v = bdD.basis @ (Q @ c)
        assert np.max(np.abs(v - pair16.G @ u)) < 1e-10

    def test_parity_flip_on_symmetric_interval(self):
        """On [-1, 1] the even boundary-data vector (cosh-like) maps to
        an odd cell vector (sinh-like)."""
        pair = build_sbp_pair_1d(Grid1D(-1.0, 1.0, 20))
        bdG = compute_bd_space(pair, "G")
        bdD = compute_bd_space(pair, "D")
        flip_nodes = np.eye(21)[::-1]
        flip_cells = np.eye(20)[::-1]
        phi = bdG.basis[:, 0]
        even = phi + flip_nodes @ phi
        assert np.linalg.norm(even) > 1e-3
        assert np.max(np.abs(flip_nodes @ even - even)) < 1e-12
        Q = dot_map(bdG, bdD, pair)
        v = bdD.basis @ (Q @ (bdG.projector @ even))
        assert np.max(np.abs(flip_cells @ v + v)) < 1e-10, "transported vector is not odd"

    @settings(max_examples=60, deadline=None)
    @given(random_grids())
    def test_random_grids_transport_unitarily(self, grid):
        """Both spaces are two-dimensional and the transport is unitary to
        roundoff relative to max(1, h^-2), the scale of 1 - DG."""
        pair = build_sbp_pair_1d(grid)
        bdG = compute_bd_space(pair, "G")
        bdD = compute_bd_space(pair, "D")
        assert bdG.dim == bdD.dim == 2
        Q = dot_map(bdG, bdD, pair)
        err = np.abs(Q.conj().T @ Q - np.eye(2)).max()
        assert err <= 1e-12 * max(1.0, grid.h ** -2), f"unitarity defect: {err:.2e}"

    def test_same_side_rejected(self, pair16, spaces16):
        bdG, _ = spaces16
        with pytest.raises(ValueError):
            dot_map(bdG, bdG, pair16)


def riesz(pair, P):
    """The Riesz isomorphism (1 + G*G)^-1 of the node graph space applied to
    P, with G* = -minimal_div() the weight-adjoint W0^-1 G^T W1 of G."""
    return np.linalg.solve(np.eye(pair.n_nodes) - pair.minimal_div() @ pair.G, P)


class TestDualProjection:
    def test_riesz_recovers_embedding(self, pair16, spaces16):
        """The Riesz isomorphism applied to the dual projection gives the
        plain embedding on every coordinate vector."""
        bdG, bdD = spaces16
        P = dual_projection(bdG, bdD, pair16)
        err = np.max(np.abs(riesz(pair16, P) - bdG.basis))
        assert err < 1e-10, f"dual projection mismatch: {err:.2e}"

    def test_pairing_normalization(self, pair16, spaces16):
        """Projecting the Riesz representer returns the coordinates."""
        bdG, bdD = spaces16
        P = dual_projection(bdG, bdD, pair16)
        comp = bdG.projector @ riesz(pair16, P)
        assert np.max(np.abs(comp - np.eye(2))) < 1e-10

    def test_zero_maps_to_zero(self, pair16, spaces16):
        bdG, bdD = spaces16
        P = dual_projection(bdG, bdD, pair16)
        assert np.linalg.norm(P @ np.zeros(2)) == 0.0


class TestGreenIdentity:
    def test_random_draws(self, pair16, spaces16):
        bdG, bdD = spaces16
        rng = np.random.default_rng(seed=77)
        worst = 0.0
        for _ in range(100):
            x, x2 = rng.standard_normal((2, 17)) + 1j * rng.standard_normal((2, 17))
            y, y2 = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
            worst = max(worst, boundary_triple_defect(pair16, x, y, x2, y2, bdG, bdD))
        assert worst < 1e-10, f"Green identity defect: {worst:.2e}"

    @settings(max_examples=60, deadline=None)
    @given(green_pairs())
    @example(ones_on_a_long_coarse_grid())
    def test_random_grids_stay_at_roundoff(self, draw):
        """The identity holds to roundoff relative to
        (h + 1/h)(|x| + |y|)(|x2| + |y2|) on any interval and cell count."""
        pair = draw[0]
        spaces = compute_bd_space(pair, "G"), compute_bd_space(pair, "D")
        assert boundary_triple_defect(*draw, *spaces) <= green_bound(*draw)

    @pytest.mark.parametrize("length,n_cells", [(50.0, 2), (1.0, 16), (0.01, 64)])
    def test_perturbed_coordinates_exceed_the_bound(self, length, n_cells):
        """A node-side coordinate map off by a relative 1e-5 breaks the
        identity by more than the bound on every draw."""
        pair = build_sbp_pair_1d(Grid1D(0.0, length, n_cells))
        bdG, bdD = compute_bd_space(pair, "G"), compute_bd_space(pair, "D")
        off = dataclasses.replace(bdG, projector=bdG.projector * (1.0 + 1e-5))
        rng = np.random.default_rng(seed=80)
        for _ in range(20):
            x, x2, y, y2 = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                            for n in (pair.n_nodes, pair.n_nodes, pair.n_cells, pair.n_cells))
            assert boundary_triple_defect(pair, x, y, x2, y2, bdG, bdD) \
                <= green_bound(pair, x, y, x2, y2)
            assert boundary_triple_defect(pair, x, y, x2, y2, off, bdD) \
                > green_bound(pair, x, y, x2, y2)

    @pytest.mark.parametrize("complex_draws", [False, True], ids=["real", "complex"])
    def test_a_stack_equals_its_rows(self, pair16, spaces16, complex_draws):
        """Element i of a stacked call is the call on row i alone, bit for
        bit, and one pair of states gives a 0-d value."""
        rng = np.random.default_rng(seed=81)

        def draw(n):
            out = rng.standard_normal((7, n))
            return out + 1j * rng.standard_normal((7, n)) if complex_draws else out

        x, x2, y, y2 = draw(17), draw(17), draw(16), draw(16)
        stacked = boundary_triple_defect(pair16, x, y, x2, y2, *spaces16)
        rows = [boundary_triple_defect(pair16, *row, *spaces16) for row in zip(x, y, x2, y2)]
        assert stacked.shape == (7,) and np.ndim(rows[0]) == 0
        assert np.array_equal(stacked, rows)

    def test_zero_boundary_states(self, pair16, spaces16):
        """Interior-supported states make both sides vanish."""
        bdG, bdD = spaces16
        rng = np.random.default_rng(seed=78)
        x = rng.standard_normal(17) + 0j
        x[0] = x[-1] = 0.0
        y = rng.standard_normal(16) + 0j
        # cell vector with no boundary data: kill its T-pairing
        y = y - bdD.basis @ (bdD.projector @ y)
        x2 = np.zeros(17, dtype=complex)
        y2 = np.zeros(16, dtype=complex)
        d = boundary_triple_defect(pair16, x, y, x2, y2, bdG, bdD)
        assert d < 1e-12
        # the symmetric pairing itself vanishes for such states
        s1 = -1j * (pair16.D @ y)
        s2 = -1j * (pair16.G @ x)
        lhs = np.vdot(s1, pair16.W0 * x) + np.vdot(s2, pair16.W1 * y)
        lhs -= np.vdot(x, pair16.W0 * s1) + np.vdot(y, pair16.W1 * s2)
        assert abs(lhs) < 1e-12

    def test_equal_arguments_make_sides_real_free(self, pair16, spaces16):
        """With (x2,y2)=(x,y) the pairing is purely imaginary."""
        bdG, bdD = spaces16
        rng = np.random.default_rng(seed=79)
        x = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        s1 = -1j * (pair16.D @ y)
        s2 = -1j * (pair16.G @ x)
        lhs = np.vdot(s1, pair16.W0 * x) + np.vdot(s2, pair16.W1 * y)
        lhs -= np.vdot(x, pair16.W0 * s1) + np.vdot(y, pair16.W1 * s2)
        assert abs(lhs.real) < 1e-12
        assert boundary_triple_defect(pair16, x, y, x, y, bdG, bdD) < 1e-10
