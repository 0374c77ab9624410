"""Tests for the staggered gradient/divergence pair.

Checks the summation-by-parts identity, the two-dimensional kernels of
1 - DG and 1 - GD, and exactness of the difference stencils on low-order
polynomials.
"""

import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evoctl import Grid1D, InvalidGridError, build_sbp_pair_1d, ibp_defect
from evoctl.errors import ShapeMismatchError


@st.composite
def sbp_pairings(draw):
    """(pair, u, v): a pair on a random [a, b] with 2 to 64 cells and
    complex node and cell vectors."""
    a = draw(st.floats(-10.0, 10.0))
    length = draw(st.floats(1e-2, 10.0))
    pair = build_sbp_pair_1d(Grid1D(a, a + length, draw(st.integers(2, 64))))
    entries = st.floats(-1.0, 1.0)

    def cplx(n):
        return draw(hnp.arrays(float, n, elements=entries)) \
            + 1j * draw(hnp.arrays(float, n, elements=entries))

    return pair, cplx(pair.n_nodes), cplx(pair.n_cells)


def kernel_dimension(mat, tol=1e-8):
    """Number of singular values below tol * largest."""
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return mat.shape[1]
    return int(np.sum(s < tol * s[0]))


class TestGrid1D:
    def test_spacing_and_counts(self):
        """Nodes and cells interleave with spacing h."""
        g = Grid1D(0.0, 2.0, 8)
        assert g.h == pytest.approx(0.25)
        assert g.n_nodes == 9
        nodes = g.nodes()
        cells = g.cells()
        assert nodes[0] == 0.0 and nodes[-1] == 2.0
        err = np.max(np.abs(cells - 0.5 * (nodes[:-1] + nodes[1:])))
        assert err < 1e-14, f"cells are not node midpoints: {err:.2e}"

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidGridError):
            Grid1D(1.0, 0.0, 4)
        with pytest.raises(InvalidGridError):
            Grid1D(0.0, 1.0, 1)
        with pytest.raises(InvalidGridError):
            Grid1D(0.0, np.inf, 4)
        with pytest.raises(InvalidGridError):
            Grid1D(0.0, 1.0, np.inf)
        with pytest.raises(InvalidGridError):
            Grid1D(0.0, 1.0, np.nan)
        for huge in (10 ** 400, int(1e308), 2 ** 63):
            with pytest.raises(InvalidGridError):
                Grid1D(0.0, 1.0, huge)
        with pytest.raises(InvalidGridError):
            Grid1D(0.0, 10 ** 400, 4)

    @pytest.mark.parametrize("a, b", [(0.0, 1e200), (-1e308, 1.0), (-1e308, 1e308)])
    def test_rejects_a_length_whose_square_overflows(self, a, b):
        """T holds (3 + h^2)/2, which overflowed on these grids."""
        with pytest.raises(InvalidGridError, match=r"^need a < b and a finite \(b - a\)\*\*2"):
            Grid1D(a, b, 4)

    def test_the_longest_grid_gives_a_finite_pair(self):
        """The longest accepted length keeps every entry of the pair finite."""
        length = sys.float_info.max ** 0.5
        pair = build_sbp_pair_1d(Grid1D(0.0, length, 2))
        for name in ("G", "D", "W0", "W1", "T"):
            assert np.isfinite(getattr(pair, name)).all(), name


class TestSummationByParts:
    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_matrix_identity(self, n):
        """W0 D + G^T W1 equals the stored boundary pairing T exactly."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        lhs = pair.W0[:, None] * pair.D + pair.G.T * pair.W1[None, :]
        err = np.max(np.abs(lhs - pair.T))
        assert err < 1e-13, f"SBP matrix identity broken at n={n}: {err:.2e}"

    @pytest.mark.parametrize("n", [4, 16, 64, 256])
    def test_random_pairs(self, n):
        """<Gu,v>_W1 + <u,Dv>_W0 = u^H T v for random complex u, v."""
        rng = np.random.default_rng(seed=42 + n)
        pair = build_sbp_pair_1d(Grid1D(-1.0, 1.5, n))
        worst = 0.0
        for _ in range(25):
            u = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            worst = max(worst, ibp_defect(pair, u, v))
        assert worst < 1e-12, f"integration by parts defect at n={n}: {worst:.2e}"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(sbp_pairings())
    def test_random_intervals_stay_at_roundoff(self, draw):
        """The identity holds to roundoff relative to |u| |v| / h on any
        interval and cell count."""
        pair, u, v = draw
        # scipy's BLAS norm rescales; np.linalg.norm squares the entries,
        # which underflows to 0 for entries below about 1e-154
        scale = scipy.linalg.norm(u) * scipy.linalg.norm(v) / pair.grid.h
        assert ibp_defect(pair, u, v) <= 1e-12 * scale

    def test_boundary_pairing_support(self):
        """T vanishes away from the two boundary-node rows."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 20))
        interior = pair.T[1:-1, :]
        assert np.max(np.abs(interior)) == 0.0

    def test_ibp_defect_shape_checks(self):
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 8))
        with pytest.raises(ShapeMismatchError):
            ibp_defect(pair, np.zeros(5), np.zeros(8))
        with pytest.raises(ShapeMismatchError):
            ibp_defect(pair, np.zeros(9), np.zeros(5))


class TestStencils:
    def test_gradient_exact_on_affine(self):
        """G applied to samples of 2x - 3 gives exactly 2 on every cell."""
        # power-of-two endpoints and spacing keep the arithmetic exact
        pair = build_sbp_pair_1d(Grid1D(0.0, 4.0, 16))
        u = 2.0 * pair.grid.nodes() - 3.0
        assert np.array_equal(pair.G @ u, np.full(16, 2.0))

    def test_divergence_interior_is_backward_difference(self):
        """At interior nodes D matches (v_i - v_{i-1}) / h."""
        rng = np.random.default_rng(seed=7)
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 12))
        v = rng.standard_normal(12)
        dv = pair.D @ v
        expected = (v[1:] - v[:-1]) / pair.grid.h
        err = np.max(np.abs(dv[1:-1] - expected))
        assert err < 1e-12, f"interior divergence stencil wrong: {err:.2e}"

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_divergence_second_order_on_smooth(self, n):
        """Interior divergence of sin samples converges at second order
        to the cell-centred derivative values."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        v = np.sin(2.0 * pair.grid.cells())
        dv = pair.D @ v
        exact = 2.0 * np.cos(2.0 * pair.grid.nodes())
        err = np.max(np.abs(dv[1:-1] - exact[1:-1]))
        assert err < 4.0 / n, f"interior divergence not converging: {err:.2e}"

    def test_left_right_reflection_symmetry(self):
        """Reversing the grid conjugates G and D by the flip with a sign."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 10))
        Fn = np.eye(11)[::-1]
        Fc = np.eye(10)[::-1]
        assert np.max(np.abs(pair.G + Fc @ pair.G @ Fn)) < 1e-13
        assert np.max(np.abs(pair.D + Fn @ pair.D @ Fc)) < 1e-13


class TestKernelDimensions:
    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_node_side_kernel(self, n):
        """dim N(1 - DG) = 2 on every grid size."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        mat = np.eye(n + 1) - pair.D @ pair.G
        assert kernel_dimension(mat) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 16, 64])
    def test_cell_side_kernel(self, n):
        """dim N(1 - GD) = 2 on every grid size."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        mat = np.eye(n) - pair.G @ pair.D
        assert kernel_dimension(mat) == 2

    def test_kernel_elements_are_discrete_exponentials(self):
        """N(1 - DG) is spanned by the geometric sequences r^i with
        r = 1 + h^2/2 +- h sqrt(1 + h^2/4), the sampled analogues of
        e^{+-x}."""
        n = 24
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
        h = pair.grid.h
        mat = np.eye(n + 1) - pair.D @ pair.G
        disc = h * np.sqrt(1.0 + h * h / 4.0)
        for r in (1.0 + h * h / 2.0 + disc, 1.0 + h * h / 2.0 - disc):
            z = r ** np.arange(n + 1)
            res = np.max(np.abs(mat @ z)) / np.max(np.abs(z))
            assert res < 1e-12, f"r={r} not in kernel: {res:.2e}"


class TestMinimalOperators:
    def test_minimal_div_is_minus_grad_adjoint(self):
        """minimal_div is -W0^-1 G^T W1, bit for bit."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 9))
        grad_adjoint = (pair.G.T * pair.W1[None, :]) / pair.W0[:, None]
        err = np.max(np.abs(pair.minimal_div() + grad_adjoint))
        assert err == 0.0

    def test_minimal_div_agrees_with_div_off_boundary_pairing(self):
        """D and its minimal version differ exactly by W0^-1 T."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 9))
        diff = pair.D - pair.minimal_div()
        expected = pair.T / pair.W0[:, None]
        err = np.max(np.abs(diff - expected))
        assert err < 1e-13, f"trace correction mismatch: {err:.2e}"

    def test_minimal_grad_agrees_with_grad_on_interior(self):
        """G and its minimal version coincide on zero-boundary nodes."""
        rng = np.random.default_rng(seed=3)
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 9))
        u = rng.standard_normal(10)
        u[0] = 0.0
        u[-1] = 0.0
        err = np.max(np.abs(pair.minimal_grad() @ u - pair.G @ u))
        assert err < 1e-12, f"minimal gradient deviates on interior data: {err:.2e}"

    def test_adjoint_identity(self):
        """<minimal_grad u, v>_W1 = <u, -D v>_W0 for all u, v (no
        boundary term: the adjoint of D absorbs it)."""
        rng = np.random.default_rng(seed=11)
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 13))
        u = rng.standard_normal(14) + 1j * rng.standard_normal(14)
        v = rng.standard_normal(13) + 1j * rng.standard_normal(13)
        lhs = pair.cell_inner(pair.minimal_grad() @ u, v)
        rhs = pair.node_inner(u, -(pair.D @ v))
        assert abs(lhs - rhs) < 1e-12


    @pytest.mark.parametrize("inner, u, v, words", [
        ("node_inner", 9, 10, "node vectors must have length n_nodes"),
        ("cell_inner", 9, 8, "cell vectors must have length n_cells"),
    ], ids=["node", "cell"])
    def test_inner_products_check_lengths(self, inner, u, v, words):
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 8))
        with pytest.raises(ShapeMismatchError, match=f"^{words}$"):
            getattr(pair, inner)(np.zeros(u), np.zeros(v))
