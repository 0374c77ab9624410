"""Tests for the evolutionary-equation steppers, the well-posedness
checker, causality, and the observed order of accuracy of each preset."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evoctl import cli, evolution
from evoctl.errors import HypothesisViolationError, ShapeMismatchError, StepSingularityError
from evoctl.evolution import (
    _ROWS,
    EvolutionarySystem,
    TimeGrid,
    c_min,
    causality_defect,
    check_wellposed,
    row_blocks,
    prepare,
    solve,
)
from evoctl.models import WaveSpec, build_weiss_tucsnak_wave, maxwell_lift_solve
from evoctl.operators import Grid1D, build_sbp_pair_1d


def random_skew(rng, n):
    S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (S - S.conj().T)


class TestTimeGrid:
    def test_tau_and_times(self):
        g = TimeGrid(t_end=2.0, n_steps=8, nu=1.0)
        assert g.tau == pytest.approx(0.25)
        assert g.times()[0] == 0.0 and g.times()[-1] == 2.0

    @pytest.mark.parametrize("kw", [dict(t_end=0.0, n_steps=4), dict(t_end=1.0, n_steps=0),
                                    dict(t_end=1.0, n_steps=4, nu=0.0),
                                    dict(t_end=np.inf, n_steps=10), dict(t_end=np.nan, n_steps=10),
                                    dict(t_end=1.0, n_steps=10, nu=np.inf),
                                    dict(t_end=1.0, n_steps=float("inf")),
                                    dict(t_end=1.0, n_steps=float("nan"))])
    def test_rejects_bad_parameters(self, kw):
        with pytest.raises(ValueError):
            TimeGrid(**kw)


class TestEvolutionarySystem:
    def test_validates_hermitian_m0(self):
        with pytest.raises(HypothesisViolationError):
            EvolutionarySystem(M0=np.array([[0.0, 1.0], [0.0, 0.0]]),
                               M1=np.eye(2), A=np.zeros((2, 2)), J=np.eye(2))

    def test_validates_skew_a(self):
        with pytest.raises(HypothesisViolationError):
            EvolutionarySystem(M0=np.eye(2), M1=np.zeros((2, 2)),
                               A=np.eye(2), J=np.eye(2))

    @pytest.mark.parametrize("name", ["M0", "M1", "A", "J"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_matrices(self, name, bad):
        """A NaN passes every tolerance test, so it is refused up front."""
        mats = {"M0": np.eye(2), "M1": np.zeros((2, 2)), "A": np.zeros((2, 2)),
                "J": np.eye(2)}
        mats[name][1, 1] = bad
        with pytest.raises(HypothesisViolationError, match=f"^{name} is not finite$"):
            EvolutionarySystem(**mats)

    @pytest.mark.parametrize("mats, words", [
        ({"M0": np.ones((2, 3))}, "M0 must be square, got shape (2, 3)"),
        ({"M1": np.zeros((3, 3))}, "M1 must be 2x2, got (3, 3)"),
        ({"J": np.zeros((3, 1))}, "J must have 2 rows, got (3, 1)"),
    ], ids=["M0-square", "M1-size", "J-rows"])
    def test_rejects_matrices_of_the_wrong_shape(self, mats, words):
        base = {"M0": np.eye(2), "M1": np.zeros((2, 2)), "A": np.zeros((2, 2)), "J": np.eye(2)}
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(words)}$"):
            EvolutionarySystem(**{**base, **mats})

    def test_vector_j_promoted_to_column(self):
        sys = EvolutionarySystem(M0=np.eye(2), M1=np.zeros((2, 2)),
                                 A=np.zeros((2, 2)), J=np.array([1.0, 0.0]))
        assert sys.J.shape == (2, 1)
        assert sys.n_inputs == 1


@st.composite
def psd_pencils(draw):
    """(M0, M1, nu_max, nu) with M0 = B B^H for a rank-deficient B and
    nu in (0, nu_max]."""
    n = draw(st.integers(2, 6))
    rank = draw(st.integers(0, n - 1))
    entries = st.floats(-3.0, 3.0)
    B = draw(hnp.arrays(float, (n, rank), elements=entries)) \
        + 1j * draw(hnp.arrays(float, (n, rank), elements=entries))
    M1 = draw(hnp.arrays(float, (n, n), elements=entries))
    nu_max = draw(st.floats(1e-2, 1e2))
    nu = nu_max * draw(st.floats(0.0, 1.0, exclude_min=True))
    return B @ B.conj().T, M1, nu_max, nu


def _hermitian_blocks(draw, sizes, perm):
    """Hermitian matrix with diagonal blocks of these sizes, drawn entries
    in [-3, 3], under the symmetric permutation perm."""
    n = sum(sizes)
    entries = st.floats(-3.0, 3.0)
    S = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        B = draw(hnp.arrays(float, (size, size), elements=entries)) \
            + 1j * draw(hnp.arrays(float, (size, size), elements=entries))
        S[start:start + size, start:start + size] = 0.5 * (B + B.conj().T)
        start += size
    return S[np.ix_(perm, perm)]


@st.composite
def permuted_block_pencils(draw):
    """(M0, Re M1, weights): two Hermitian matrices with the same diagonal
    blocks of sizes 1 to 8 under one random symmetric permutation."""
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4))
    perm = draw(st.permutations(range(sum(sizes))))
    nus = draw(st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=4))
    return _hermitian_blocks(draw, sizes, perm), _hermitian_blocks(draw, sizes, perm), nus


def _dense_pencil(n=12):
    rng = np.random.default_rng(7)
    M0, M1 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2))
    return 0.5 * (M0 + M0.conj().T), 0.5 * (M1 + M1.conj().T), [0.5, 2.0, 16.0]


class TestBlockSpectra:
    """The lowest eigenvalues taken block by block agree with the dense ones."""

    @settings(max_examples=60, deadline=None)
    @given(permuted_block_pencils())
    @example(_dense_pencil())
    def test_split_matches_dense(self, pencil):
        M0, re_m1, nus = pencil
        c = c_min(M0, re_m1, nus)
        for nu, c_nu in zip(nus, c):
            S = nu * M0 + re_m1
            dense = np.linalg.eigvalsh(S)[0]
            assert abs(c_nu - dense) <= 1e-14 * max(1.0, np.linalg.norm(S, 2))
            assert c_nu == c_min(M0, re_m1, [nu])[0]

    @pytest.mark.parametrize("pair,single,expected", [
        ((0, 3), 2, [1.0, 0.0, 0.0, 1.0]),
        ((1, 3), 0, [1.0, 0.0, 0.0, 0.0]),
    ])
    def test_degenerate_minimum_takes_lowest_index_block(self, pair, single, expected):
        """c = -3 is attained by a 2-block on pair and a 1-block on single;
        the witness comes from the block whose smallest index is smallest."""
        S = np.diag([5.0] * 4)
        S[np.ix_(pair, pair)] = [[-2.0, -1.0], [-1.0, -2.0]]
        S[single, single] = -3.0
        rep = check_wellposed(np.zeros((4, 4)), S, nu_max=1.0)
        assert rep.c == -3.0 and not rep.ok
        phase = rep.witness[np.flatnonzero(rep.witness)[0]]
        expected = np.array(expected) / np.linalg.norm(expected)
        np.testing.assert_allclose(rep.witness / phase * abs(phase), expected, atol=1e-15)


class TestCheckWellposed:
    def test_identity_mass(self):
        """M0 = I, M1 = 0: c(nu) = nu, maximized at nu_max."""
        rep = check_wellposed(np.eye(3), np.zeros((3, 3)), nu_max=2.5)
        assert rep.ok
        assert rep.c == pytest.approx(2.5, abs=1e-10)
        assert rep.nu0 == pytest.approx(2.5, abs=1e-10)

    def test_uncoerced_kernel_direction(self):
        """M0 = diag(1,0) with no damping never becomes coercive."""
        rep = check_wellposed(np.diag([1.0, 0.0]), np.zeros((2, 2)), nu_max=100.0)
        assert not rep.ok
        assert rep.c <= 0.0
        w = np.abs(rep.witness)
        assert w[1] > 0.99 and w[0] < 1e-6

    @pytest.mark.parametrize("nu_max", [0.1, 1.0, 10.0])
    def test_wave_block_constant(self, nu_max):
        """The 4x4 wave blocks certify c = min(nu_max, 1 - 1/sqrt(2))."""
        M0 = np.diag([1.0, 1.0, 0.0, 0.0])
        M1 = np.zeros((4, 4))
        M1[2:, 2:] = [[1.0, 0.0], [np.sqrt(2.0), 1.0]]
        rep = check_wellposed(M0, M1, nu_max=nu_max)
        expected = min(nu_max, 1.0 - 1.0 / np.sqrt(2.0))
        assert rep.ok
        assert abs(rep.c - expected) < 1e-8, f"c = {rep.c}, expected {expected}"

    def test_indefinite_m0_is_never_certified(self):
        """c(nu) = min(nu, 2 - nu) is positive on (0, 2) but tends to
        -infinity, so the hypothesis fails along the negative mass."""
        rep = check_wellposed(np.diag([1.0, -1.0]), np.diag([0.0, 2.0]), nu_max=10.0)
        assert not rep.ok
        assert rep.c < 0.0
        w = np.abs(rep.witness)
        assert w[1] > 0.99 and w[0] < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(psd_pencils())
    def test_psd_mass_certifies_at_nu_max(self, pencil):
        """For M0 >= 0 the constant is c(nu_max), the largest on (0, nu_max]."""
        M0, M1, nu_max, nu = pencil
        re_m1 = 0.5 * (M1 + M1.T)
        rep = check_wellposed(M0, M1, nu_max=nu_max)
        scale = 1.0 + nu_max * np.abs(M0).max() + np.abs(M1).max()
        assert rep.nu0 == nu_max
        assert abs(rep.c - np.linalg.eigvalsh(nu_max * M0 + re_m1)[0]) <= 1e-12 * scale
        assert rep.c >= np.linalg.eigvalsh(nu * M0 + re_m1)[0] - 1e-10 * scale
        assert rep.ok == (rep.c > 0)

    @pytest.mark.parametrize("nu_max,rule", [(0.0, "positive"), (-1.0, "positive"),
                                             (np.nan, "positive"), (np.inf, "finite")])
    def test_rejects_a_weight_that_is_not_positive(self, nu_max, rule):
        with pytest.raises(ValueError, match=f"^nu_max must be {rule}, got {nu_max}$"):
            check_wellposed(np.eye(2), np.eye(2), nu_max)

    def test_rejects_nonhermitian_m0(self):
        with pytest.raises(HypothesisViolationError):
            check_wellposed(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("name,entry", [("M0", (1, 1)), ("M1", (0, 2)), ("M1", (3, 3))])
    def test_rejects_non_finite_matrices(self, name, entry):
        """A NaN in a 1x1 block would make c NaN, so it is refused up front,
        with the words EvolutionarySystem uses."""
        mats = {"M0": np.eye(4), "M1": np.eye(4)}
        mats[name][entry] = np.nan
        with pytest.raises(HypothesisViolationError, match=f"^{name} is not finite$"):
            check_wellposed(mats["M0"], mats["M1"], nu_max=1.0)


class TestSolve:
    def test_scalar_decay_matches_geometric_oracle(self):
        """Backward Euler on x' + x = 0, x(0)=1 produces (1+tau)^-k."""
        sys = EvolutionarySystem(M0=np.eye(1), M1=np.eye(1), A=np.zeros((1, 1)), J=np.eye(1))
        grid = TimeGrid(t_end=1.0, n_steps=16)
        traj = solve(sys, np.ones(1), None, grid, "backward_euler")
        oracle = (1.0 + grid.tau) ** (-np.arange(17))
        err = np.abs(traj.states[:, 0] - oracle).max()
        assert err < 1e-13, f"geometric-decay oracle violated: {err:.2e}"

    def test_scalar_decay_first_order(self):
        """Sup-error against e^-t halves (within 20%) when tau halves."""
        sys = EvolutionarySystem(M0=np.eye(1), M1=np.eye(1), A=np.zeros((1, 1)), J=np.eye(1))
        errs = []
        for n in (32, 64, 128):
            grid = TimeGrid(t_end=1.0, n_steps=n)
            traj = solve(sys, np.ones(1), None, grid, "backward_euler")
            errs.append(np.abs(traj.states[:, 0] - np.exp(-grid.times())).max())
        for coarse, fine in zip(errs, errs[1:]):
            assert 1.6 < coarse / fine < 2.4

    def test_midpoint_preserves_rotation_norm(self):
        """A skew flow keeps |x| exactly under the midpoint rule."""
        sys = EvolutionarySystem(M0=np.eye(2), M1=np.zeros((2, 2)),
                                 A=np.array([[0.0, -1.0], [1.0, 0.0]]), J=np.eye(2))
        grid = TimeGrid(t_end=6.0, n_steps=60)
        traj = solve(sys, np.array([1.0, 0.0]), None, grid, "implicit_midpoint")
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_zero_data_zero_trajectory(self):
        sys = EvolutionarySystem(M0=np.eye(2), M1=np.eye(2), A=np.zeros((2, 2)), J=np.eye(2))
        grid = TimeGrid(t_end=1.0, n_steps=10)
        traj = solve(sys, np.zeros(2), None, grid, "backward_euler")
        assert np.abs(traj.states).max() == 0.0

    def test_backward_euler_energy_identity(self):
        """Per step: dE + tau<x+|ReM1 x+> - tau Re<x+|Jf+> equals exactly
        minus the artificial dissipation (1/2)<dx|M0 dx>."""
        rng = np.random.default_rng(seed=31)
        n = 6
        B = rng.standard_normal((n, n))
        M0 = B @ B.T + np.eye(n)
        M1 = rng.standard_normal((n, n))
        M1 = M1 @ M1.T * 0.1 + 0.2 * np.eye(n)
        sys = EvolutionarySystem(M0=M0, M1=M1, A=random_skew(rng, n), J=np.eye(n))
        grid = TimeGrid(t_end=1.0, n_steps=20)
        x0 = rng.standard_normal(n)
        f = lambda t: np.cos(3 * t) * np.ones(n)
        traj = solve(sys, x0, f, grid, "backward_euler")
        reM1 = sys.re_m1()
        tau = grid.tau
        for k in range(grid.n_steps):
            xa, xb = traj.states[k], traj.states[k + 1]
            dx = xb - xa
            lhs = 0.5 * np.vdot(xb, M0 @ xb).real - 0.5 * np.vdot(xa, M0 @ xa).real
            lhs += tau * np.vdot(xb, reM1 @ xb).real
            lhs -= tau * np.vdot(xb, sys.J @ traj.inputs[k]).real
            rhs = -0.5 * np.vdot(dx, M0 @ dx).real
            assert abs(lhs - rhs) < 1e-12, f"step {k}: {abs(lhs - rhs):.2e}"

    def test_midpoint_exact_ledger(self):
        """Per step: dE + tau<xm|ReM1 xm> = tau Re<xm|J fm> exactly."""
        rng = np.random.default_rng(seed=32)
        n = 8
        M1 = rng.standard_normal((n, n)) * 0.3
        sys = EvolutionarySystem(M0=np.eye(n), M1=M1, A=random_skew(rng, n), J=np.eye(n))
        grid = TimeGrid(t_end=2.0, n_steps=40)
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = lambda t: np.sin(t) * np.arange(1.0, n + 1)
        traj = solve(sys, x0, f, grid, "implicit_midpoint")
        reM1 = sys.re_m1()
        tau = grid.tau
        worst = 0.0
        for k in range(grid.n_steps):
            xa, xb = traj.states[k], traj.states[k + 1]
            xm = 0.5 * (xa + xb)
            lhs = 0.5 * np.vdot(xb, sys.M0 @ xb).real - 0.5 * np.vdot(xa, sys.M0 @ xa).real
            lhs += tau * np.vdot(xm, reM1 @ xm).real
            rhs = tau * np.vdot(xm, sys.J @ traj.inputs[k]).real
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-11, f"midpoint ledger defect: {worst:.2e}"

    def test_midpoint_singular_mass_prepends_euler(self):
        """Singular M0 triggers one consistent-initialization step."""
        M0 = np.diag([1.0, 0.0])
        M1 = np.diag([0.0, 1.0])
        sys = EvolutionarySystem(M0=M0, M1=M1, A=np.array([[0.0, -1.0], [1.0, 0.0]]),
                                 J=np.eye(2))
        grid = TimeGrid(t_end=1.0, n_steps=10)
        traj = solve(sys, np.array([1.0, 5.0]), None, grid, "implicit_midpoint")
        assert traj.n_euler_init_steps == 1
        # the algebraic row reads x2 + x1 = 0 and holds after one step
        # even though the initial data violates it
        x = traj.states[1]
        assert abs(x[1] + x[0]) < 1e-12

    def test_singular_step_matrix_raises(self):
        sys = EvolutionarySystem(M0=np.zeros((1, 1)), M1=np.zeros((1, 1)),
                                 A=np.zeros((1, 1)), J=np.eye(1))
        grid = TimeGrid(t_end=1.0, n_steps=4)
        with pytest.raises(StepSingularityError), pytest.warns(RuntimeWarning):
            solve(sys, np.zeros(1), None, grid, "backward_euler")

    def test_ill_conditioned_step_matrix_raises(self):
        """Nonzero pivots do not suffice: a 1-norm condition estimate
        above 1e14 refuses the step matrix and reports the estimate."""
        sys = EvolutionarySystem(M0=np.diag([1.0, 1e-17]), M1=np.zeros((2, 2)),
                                 A=np.zeros((2, 2)), J=np.eye(2))
        grid = TimeGrid(t_end=1.0, n_steps=4)
        with pytest.raises(StepSingularityError, match="numerically singular") as exc:
            solve(sys, np.zeros(2), None, grid, "backward_euler")
        assert exc.value.cond_estimate == pytest.approx(1e17)

    def test_overflowing_step_matrix_raises(self):
        """M0/tau overflows to inf, so kappa_1 is NaN and the step matrix
        is refused before any step is taken."""
        sys = EvolutionarySystem(M0=1e308 * np.eye(2), M1=np.zeros((2, 2)),
                                 A=np.zeros((2, 2)), J=np.eye(2))
        grid = TimeGrid(t_end=1.0, n_steps=4)
        f = lambda t: pytest.fail("a step was taken")
        with pytest.raises(StepSingularityError, match="numerically singular") as exc, \
                pytest.warns(RuntimeWarning):
            solve(sys, np.zeros(2), f, grid, "backward_euler")
        assert not exc.value.cond_estimate <= 1e14

    def test_reported_condition_is_exact(self):
        """The condition number the step matrix reports is the exact
        kappa_1, not a lower bound on it."""
        rng = np.random.default_rng(7)
        n = 12
        K = 4 * n * np.eye(n) + rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.linalg.cond(K, 1) < 10
        P, cond = evolution._factor_step_matrix(K, 0.25)
        assert np.array_equal(P, np.linalg.inv(K))
        assert cond == pytest.approx(np.linalg.cond(K, 1), rel=1e-12)

    def test_non_finite_sample_refused(self):
        """A NaN source sample is refused where it enters, by sample_source,
        naming its sample time and step, before any step is taken."""
        sys = EvolutionarySystem(M0=np.eye(2), M1=np.eye(2), A=np.zeros((2, 2)), J=np.eye(2))
        f = lambda t: np.full(2, np.nan) if t > 0.5 else np.ones(2)
        with pytest.raises(HypothesisViolationError, match=r"^input sampler returned a "
                           r"non-finite sample at t = 0\.625 \(step 4\)$"):
            solve(sys, np.zeros(2), f, TimeGrid(t_end=1.0, n_steps=8), "backward_euler")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x0,amplitude,n_steps,step", [
        ([np.nan, 0.0], 1.0, 8, 0), ([0.0, 0.0], 1.5e308, 8, 5),
        ([0.0, 0.0], 1.5e308, 2 * _ROWS, _ROWS)], ids=["nan-x0", "overflow", "overflow-block-end"])
    def test_non_finite_state_goes_on(self, x0, amplitude, n_steps, step):
        """A run that leaves float64 is not refused: it carries inf and NaN on
        from its first non-finite state, x^0 for a NaN x0, and x^step after
        the first source of 1.5e308, a finite right side that P = 2 maps past
        the largest float (backward Euler, K = n_steps + M1 = 1/2), also when
        that state starts the next block; no numpy warning is raised."""
        M1 = (0.5 - n_steps) * np.eye(2)
        sys = EvolutionarySystem(M0=np.eye(2), M1=M1, A=np.zeros((2, 2)), J=np.eye(2))
        # step k samples at (k + 1) / n_steps: the source is large from step - 1 on
        f = lambda t: np.full(2, amplitude) if t * n_steps > step - 0.5 else np.zeros(2)
        traj = solve(sys, np.array(x0), f, TimeGrid(t_end=1.0, n_steps=n_steps), "backward_euler")
        finite = np.isfinite(traj.states).all(axis=1)
        assert finite.argmin() == step and not finite[step:].any()

    @pytest.mark.parametrize("n_states, n_inputs, words", [
        (3, 3, "states must hold n_steps + 1 rows"),
        (4, 4, "inputs must hold one sample per step"),
    ], ids=["states", "inputs"])
    def test_trajectory_rejects_rows_off_its_grid(self, n_states, n_inputs, words):
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(words)}$"):
            evolution.Trajectory(TimeGrid(t_end=1.0, n_steps=3), np.zeros((n_states, 2)),
                                 np.zeros((n_inputs, 1)), "backward_euler")

    @pytest.mark.parametrize("scheme, n_init, words", [
        ("implicit-midpoint", 0, "scheme must be one of ('backward_euler', 'implicit_midpoint'), "
                                 "got 'implicit-midpoint'"),
        ("implicit_midpoint", -1, "n_euler_init_steps must lie in [0, 3], got -1"),
        ("backward_euler", 4, "n_euler_init_steps must lie in [0, 3], got 4"),
    ], ids=["misspelt-scheme", "negative-start-up", "start-up-beyond-the-grid"])
    def test_trajectory_rejects_a_schedule_its_scheme_cannot_have(self, scheme, n_init, words):
        """theta follows from the scheme and the start-up count, so a misspelt
        scheme (read as theta = 1 before) or a count outside [0, n_steps] is
        refused when the trajectory is made."""
        with pytest.raises(ValueError, match=f"^{re.escape(words)}$"):
            evolution.Trajectory(TimeGrid(t_end=1.0, n_steps=3), np.zeros((4, 2)),
                                 np.zeros((3, 1)), scheme, n_init)

    def test_unknown_scheme_rejected(self):
        sys = EvolutionarySystem(M0=np.eye(1), M1=np.eye(1), A=np.zeros((1, 1)), J=np.eye(1))
        with pytest.raises(ValueError):
            solve(sys, np.zeros(1), None, TimeGrid(1.0, 4), "leapfrog")


class TestRunReference:
    """StepPlan.run against a per-step reference recursion on runs of
    3 _ROWS + 5 steps: every run keeps every bit of the reference's states,
    NaN and inf included, and a run that leaves float64 goes on in IEEE
    arithmetic from its first non-finite state."""

    N = 3 * _ROWS + 5
    # (M0, scheme); a midpoint run on the singular M0 takes theta = 1 at step 0
    SYSTEMS = {"backward_euler": (np.eye(2), "backward_euler"),
               "implicit_midpoint": (np.eye(2), "implicit_midpoint"),
               "implicit_midpoint-singular": (np.diag([1.0, 0.0]), "implicit_midpoint")}
    # a source sample of step k; each makes x^{k+1} the first non-finite state:
    # NaN, inf and a J f_k of 2e308 through a non-finite right side, and J f_k =
    # (1e308, 1e308) through P, of norm 2 to 8 at tau = 4 (M0/tau + theta M1 is
    # 1/8 to 1/2), which carries that finite right side past the largest float
    BAD = {"nan": [np.nan, 0.0], "inf": [np.inf, 0.0], "overflow-source": [1e308, 1e308],
           "overflow-P": [0.0, 1e308]}
    CASES = [("finite", None), ("nan-x0", 0),
             *itertools.product(BAD, (0, 1, _ROWS - 1, _ROWS, N - 1))]

    @staticmethod
    def reference(plan, x0, F):
        """x^{k+1} = P (R x^k + J f_k), step by step; J f_k is formed in row
        blocks, as the run forms it."""
        states = [x0]
        with np.errstate(over="ignore", invalid="ignore"):
            src = np.concatenate([F[lo:hi] @ plan.sys.J.T for lo, hi in row_blocks(0, len(F))])
            for k, theta in enumerate(plan.theta.tolist()):
                P, _, R = plan.steps[theta]
                states.append(P @ (R @ states[k] + src[k]))
        return np.array(states)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad,step", CASES)
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_run_matches_the_reference(self, system, bad, step):
        M0, scheme = self.SYSTEMS[system]
        sys = EvolutionarySystem(M0=M0, M1=0.25 * np.eye(2), A=np.array([[0.0, 0.1], [-0.1, 0.0]]),
                                 J=np.array([[1.0, 1.0], [0.0, 1.0]]))
        plan = evolution.prepare(sys, TimeGrid(t_end=4.0 * self.N, n_steps=self.N), scheme)
        assert plan.n_init == system.endswith("singular")
        k = np.arange(self.N)[:, None]
        F = np.hstack([np.sin(0.1 * k), np.cos(0.3 * k)])
        x0 = np.array([np.nan if bad == "nan-x0" else 1.0, -0.5])
        if bad in self.BAD:
            F[step] = self.BAD[bad]
            step += 1
        got = plan.run(x0, F).states
        assert got.tobytes() == self.reference(plan, x0, F).tobytes()
        finite = np.isfinite(got).all(axis=1)
        assert finite.all() if step is None else finite.argmin() == step


class TestSampleSource:
    """The samples of an input sampler are stacked, converted and checked once."""

    TIMES = np.linspace(0.0, 1.0, 9)

    def test_samples_keep_their_bits_and_promoted_dtype(self):
        out = evolution.sample_source(lambda t: np.array([np.sin(3 * t), 1j * t]), self.TIMES, 2)
        assert out.dtype == np.complex128
        assert out.tobytes() == np.array([[np.sin(3 * t), 1j * t] for t in self.TIMES]).tobytes()
        assert evolution.sample_source(lambda t: [1, 2], self.TIMES, 2).dtype == np.float64

    @pytest.mark.parametrize("f", [lambda t: np.sin(t), lambda t: [np.sin(t)],
                                   lambda t: np.sin(t) if t < 0.5 else np.array([np.sin(t)])])
    def test_scalar_and_length_one_samples_for_one_input(self, f):
        out = evolution.sample_source(f, self.TIMES, 1)
        assert out.shape == (9, 1) and np.array_equal(out[:, 0], np.sin(self.TIMES))

    @pytest.mark.parametrize("f, m", [(lambda t: [1.0, np.inf if t > 0.3 else 0.0], 2),
                                      (lambda t: [1.0, complex(0.0, np.nan) if t > 0.3 else 0j], 2),
                                      (lambda t: np.nan if t > 0.3 else 0.0, 1)],
                             ids=["inf", "complex-nan", "scalar-nan"])
    def test_non_finite_sample_is_refused_naming_its_time_and_step(self, f, m):
        with pytest.raises(HypothesisViolationError, match=r"^input sampler returned a "
                           r"non-finite sample at t = 0\.375 \(step 3\)$"):
            evolution.sample_source(f, self.TIMES, m)

    @pytest.mark.parametrize("f, shape", [(lambda t: np.zeros(3), (3,)),
                                          (lambda t: np.zeros(2 if t < 0.5 else 3), (3,)),
                                          (lambda t: np.zeros((1, 2)), (1, 2)),
                                          (lambda t: 1.0, (1,))])
    def test_wrong_or_ragged_samples_are_refused_naming_the_shape(self, f, shape):
        with pytest.raises(ShapeMismatchError,
                           match=rf"input sampler returned shape {re.escape(str(shape))}, "
                                 r"expected \(2,\)"):
            evolution.sample_source(f, self.TIMES, 2)


class TestCausality:
    def make_system(self, rng, n=5):
        M1 = 0.5 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        return EvolutionarySystem(M0=np.eye(n), M1=M1, A=random_skew(rng, n).real, J=np.eye(n))

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_identical_inputs(self, scheme):
        rng = np.random.default_rng(seed=40)
        sys = self.make_system(rng)
        f = lambda t: np.sin(t) * np.ones(5)
        grid = TimeGrid(t_end=1.0, n_steps=20)
        assert causality_defect(sys, f, f, 0.5, grid, scheme) == 0.0

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_late_bump_invisible_early(self, scheme, a):
        """Perturbing f strictly after a leaves [0, a] untouched."""
        rng = np.random.default_rng(seed=41)
        sys = self.make_system(rng)
        f1 = lambda t: np.cos(2 * t) * np.ones(5)
        f2 = lambda t: f1(t) + (t > a) * 10.0 * np.ones(5)
        grid = TimeGrid(t_end=1.0, n_steps=16)
        defect = causality_defect(sys, f1, f2, a, grid, scheme)
        assert defect <= 1e-12, f"causality defect {defect:.2e}"

    def test_a_zero_compares_initial_states(self):
        rng = np.random.default_rng(seed=42)
        sys = self.make_system(rng)
        f1 = lambda t: np.ones(5)
        f2 = lambda t: -np.ones(5)
        grid = TimeGrid(t_end=1.0, n_steps=8)
        assert causality_defect(sys, f1, f2, 0.0, grid, "backward_euler") == 0.0

    @pytest.mark.parametrize("x0", [None, np.ones(2)])
    def test_system_without_inputs_compares_states(self, x0):
        """A system with J of shape (2, 0) has empty input rows; its runs
        are compared state by state."""
        sys = EvolutionarySystem(np.eye(2), np.eye(2), np.zeros((2, 2)), np.zeros((2, 0)))
        grid = TimeGrid(1.0, 4)
        assert causality_defect(sys, None, None, 0.5, grid, "backward_euler", x0) == 0.0

    def test_early_disagreement_reported(self):
        rng = np.random.default_rng(seed=43)
        sys = self.make_system(rng)
        f1 = lambda t: np.ones(5)
        f2 = lambda t: np.ones(5) + (t < 0.3)
        grid = TimeGrid(t_end=1.0, n_steps=10)
        with pytest.raises(HypothesisViolationError, match="differ at sample"):
            causality_defect(sys, f1, f2, 0.5, grid, "backward_euler")

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    @pytest.mark.parametrize("start", [0.0, 0.24, 0.31, 0.45])
    def test_disagreement_reported_at_the_first_sample(self, scheme, start):
        """The reported sample is the first one <= a at which the inputs
        differ beyond 1e-13 max(1, |f1|), as a test sample by sample finds it."""
        rng = np.random.default_rng(seed=44)
        sys = self.make_system(rng)
        f1 = lambda t: 3.0 * np.cos(t) * np.ones(5)
        # below the tolerance before start, above it after
        f2 = lambda t: f1(t) + (1e-14 if t < start else 1e-11) * np.arange(5)
        grid = TimeGrid(t_end=1.0, n_steps=10)
        a = 0.5
        times = prepare(sys, grid, scheme).sample_times()
        first = next(t for t in times if t <= a + 1e-12 and np.abs(f1(t) - f2(t)).max()
                     > 1e-13 * max(1.0, np.abs(f1(t)).max()))
        with pytest.raises(HypothesisViolationError,
                           match=re.escape(f"inputs differ at sample t = {first:.6g} <= a = 0.5")):
            causality_defect(sys, f1, f2, a, grid, scheme)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), m=st.integers(1, 3),
           n_steps=st.integers(1, 30), data=st.data(),
           scheme=st.sampled_from(["backward_euler", "implicit_midpoint"]))
    def test_random_systems_ignore_inputs_after_a(self, seed, n, m, n_steps, data, scheme):
        """On random systems, singular masses included, inputs that agree
        up to a grid time a give the same states up to a."""
        rng = np.random.default_rng(seed)
        M0 = np.diag((rng.random(n) < 0.7) * rng.uniform(0.5, 2.0, n))
        M1 = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        J = rng.standard_normal((n, m))
        sys = EvolutionarySystem(M0=M0, M1=M1, A=random_skew(rng, n), J=J)
        grid = TimeGrid(t_end=1.0, n_steps=n_steps)
        a = grid.times()[data.draw(st.integers(0, n_steps))]
        c, bump = rng.standard_normal((2, m))
        f1 = lambda t: np.cos(3.0 * t) * c
        f2 = lambda t: f1(t) + (t > a + 1e-9 * grid.tau) * bump
        x0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        defect = causality_defect(sys, f1, f2, a, grid, scheme, x0)
        assert defect <= 1e-12, f"causality defect {defect:.2e}"

    def test_singular_mass_checks_the_euler_start_up_sample(self):
        """A midpoint run on singular M0 samples its first step at t_1,
        so inputs that differ only near tau/2 do not reach t = 0.75 tau."""
        wave = build_weiss_tucsnak_wave(WaveSpec(grid=Grid1D(0.0, 1.0, 8)))
        sys = wave
        grid = TimeGrid(t_end=1.0, n_steps=20)
        tau = grid.tau
        f1 = lambda t: np.zeros(sys.n_inputs)
        f2 = lambda t: np.full(sys.n_inputs, float(abs(t - 0.5 * tau) < 0.1 * tau))
        assert causality_defect(sys, f1, f2, 0.75 * tau, grid, "implicit_midpoint") == 0.0
        with pytest.raises(HypothesisViolationError, match="differ at sample"):
            causality_defect(sys, f1, lambda t: f2(t - 0.5 * tau), 1.25 * tau, grid,
                             "implicit_midpoint")


class TestThetaSchedule:
    @pytest.mark.parametrize("M0, scheme, first, rest", [
        (np.eye(3), "backward_euler", 1.0, 1.0),
        (np.diag([1.0, 1.0, 0.0]), "backward_euler", 1.0, 1.0),
        (np.eye(3), "implicit_midpoint", 0.5, 0.5),
        (np.diag([1.0, 1.0, 0.0]), "implicit_midpoint", 1.0, 0.5),
    ])
    def test_schedule(self, M0, scheme, first, rest):
        """theta is 1 on Euler steps and on the start-up step of a
        midpoint run on singular M0, and 1/2 otherwise."""
        theta = prepare(self.system(M0), TimeGrid(t_end=1.0, n_steps=5), scheme).theta
        assert theta[0] == first and np.all(theta[1:] == rest)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            prepare(self.system(np.eye(2)), TimeGrid(t_end=1.0, n_steps=3), "crank_nicolson")

    @staticmethod
    def system(M0):
        n = len(M0)
        return EvolutionarySystem(M0=M0, M1=np.eye(n), A=np.zeros((n, n)), J=np.eye(n))

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_trajectory_reads_back_the_schedule(self, scheme):
        """A solved trajectory carries the schedule, samples its source at
        t_k + theta tau and yields x_theta = (1 - theta) x^k + theta x^{k+1}."""
        sys = self.system(np.diag([1.0, 1.0, 0.0]))
        grid = TimeGrid(t_end=1.0, n_steps=6)
        traj = solve(sys, np.ones(3), lambda t: t * np.ones(3), grid, scheme)
        assert np.array_equal(traj.theta, prepare(sys, grid, scheme).theta)
        times = grid.times()
        assert np.allclose(traj.sample_times(), times[:-1] + traj.theta * grid.tau)
        assert np.allclose(traj.inputs[:, 0], traj.sample_times())
        for k, (theta, x) in enumerate(zip(traj.theta, traj.x_theta(0, 6))):
            expected = (1 - theta) * traj.states[k] + theta * traj.states[k + 1]
            assert np.array_equal(x, expected)

    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, _ROWS), (_ROWS, 150), (_ROWS - 2, _ROWS + 3),
                                       (1, 150), (0, 150)])
    def test_x_theta_builds_its_steps_schedule(self, lo, hi):
        """On singular M0 a midpoint run takes theta = 1 at step 0 only; any
        range of steps, across a row block boundary too, reads that
        schedule from its own first step."""
        sys = self.system(np.diag([1.0, 1.0, 0.0]))
        traj = solve(sys, np.ones(3), lambda t: np.sin(t) * np.ones(3),
                     TimeGrid(t_end=1.0, n_steps=150), "implicit_midpoint")
        assert traj.n_euler_init_steps == 1
        theta = np.where(np.arange(lo, hi) == 0, 1.0, 0.5)[:, None]
        expected = (1 - theta) * traj.states[lo:hi] + theta * traj.states[lo + 1:hi + 1]
        assert np.array_equal(traj.x_theta(lo, hi), expected)


def matmul_loop(plan, x0, F):
    """The states of plan.run(x0, F) stepped by np.matmul on a fresh view of
    each state, with each row block's sources formed as run forms them."""
    J, n_steps = plan.sys.J, plan.grid.n_steps
    mats = [mat for P, _, R in plan.steps.values() for mat in (P, R)]
    states = np.zeros((n_steps + 1, len(x0)), np.result_type(x0, F, J, *mats))
    states[0] = x0
    rhs = np.empty(len(x0), states.dtype)
    for lo, hi in row_blocks(0, n_steps):
        src = F[lo:hi] @ J.T
        for k in range(lo, hi):
            P, _, R = plan.steps[plan.theta[k]]
            np.matmul(R, states[k], out=rhs)
            rhs += src[k - lo]
            np.matmul(P, rhs, out=states[k + 1])
    return states


class TestStepPlan:
    """prepare inverts one step matrix at a time and forms the right sides
    after every inverse, keeping every bit of the formulas evaluated term by
    term."""

    @staticmethod
    def singular_midpoint_system(n, dtype_m0=float, dtype_m1a=float, seed=0):
        """M0 >= 0 with a zero eigenvalue (a midpoint run on it takes theta = 1
        at step 0, then 1/2), M1 = I + noise and a skew A; M0 holds -0.0
        off its diagonal when it is real."""
        rng = np.random.default_rng(seed)
        M0 = -np.zeros((n, n), dtype_m0)
        M0[np.diag_indices(n)] = np.linspace(1.0, 2.0, n)
        M0[-1, -1] = 0.0
        if dtype_m0 is complex:
            M0[0, 1], M0[1, 0] = 0.25j, -0.25j
        S = rng.standard_normal((n, n)).astype(dtype_m1a)
        M1 = np.eye(n) + 0.1 * rng.standard_normal((n, n))
        if dtype_m1a is complex:
            S += 1j * rng.standard_normal((n, n))
            M1 = M1 + 0.1j * rng.standard_normal((n, n))
        return EvolutionarySystem(M0, M1, S - S.conj().T, np.zeros((n, 1)))

    def test_one_step_matrix_alive_at_each_inversion(self, monkeypatch):
        """At the k-th inversion the traced memory above the system holds the
        k - 1 inverses made before and the step matrix (k n^2 words): no
        M1 + A, no right side and no earlier step matrix."""
        n = 300
        sys = self.singular_midpoint_system(n)
        live, inverse = [], evolution.lu_factor

        def spy(K):
            live.append(tracemalloc.get_traced_memory()[0] - base)
            return inverse(K)

        monkeypatch.setattr(evolution, "lu_factor", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            plan = prepare(sys, TimeGrid(t_end=1.0, n_steps=4), "implicit_midpoint")
        finally:
            tracemalloc.stop()
        assert sorted(plan.steps) == [0.5, 1.0]
        words = np.array(live) / (8 * n * n)
        assert np.allclose(words, [1.0, 2.0], atol=0.1), words

    @pytest.mark.parametrize("dtype_m0,dtype_m1a", [(float, float), (complex, complex),
                                                    (complex, float), (float, complex)],
                             ids=["real", "complex", "complex-M0", "complex-M1-A"])
    def test_plan_holds_the_bits_of_the_formulas(self, dtype_m0, dtype_m1a):
        """P = inv(M0/tau + theta (M1 + A)), kappa = |K|_1 |P|_1 and
        R = M0/tau - (1 - theta)(M1 + A), bit for bit and signed zeros
        included, in the dtype of the three matrices together."""
        sys = self.singular_midpoint_system(7, dtype_m0, dtype_m1a, seed=3)
        grid = TimeGrid(t_end=0.7, n_steps=3)
        plan = prepare(sys, grid, "implicit_midpoint")
        M1A = sys.M1 + sys.A
        assert sorted(plan.steps) == [0.5, 1.0]
        for theta, (P, kappa, R) in plan.steps.items():
            K = sys.M0 / grid.tau + theta * M1A
            for got, want in ((P, np.linalg.inv(K)),
                              (R, sys.M0 / grid.tau - (1.0 - theta) * M1A)):
                assert got.dtype == want.dtype == np.result_type(sys.M0, sys.M1, sys.A)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert kappa == np.linalg.norm(K, 1) * np.linalg.norm(P, 1)
        # at theta = 1, R = M0/tau - 0 (M1 + A) is -0.0 or +0.0 where the real M0 is -0.0
        zeros = plan.steps[1.0][2][sys.M0 == 0]
        if zeros.dtype == float:
            assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    @pytest.mark.parametrize("data", ["real", "complex"])
    def test_run_steps_the_bits_of_a_matmul_loop(self, data):
        """run's states equal a plain np.matmul loop's bit for bit over 150
        steps, three row blocks: the real wave-wt system with real data, and
        a complex system on singular M0 (theta = 1, then 1/2) with complex
        data."""
        rng = np.random.default_rng(17)
        grid = TimeGrid(t_end=1.0, n_steps=150)
        if data == "real":
            sys = build_weiss_tucsnak_wave(WaveSpec(grid=Grid1D(0.0, 1.0, 8)))
            x0 = rng.standard_normal(sys.dim)
            F = rng.standard_normal((grid.n_steps, sys.n_inputs))
        else:
            sys = self.singular_midpoint_system(7, complex, complex, seed=5)
            sys = EvolutionarySystem(sys.M0, sys.M1, sys.A,
                                     rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
            x0 = rng.standard_normal(7) + 1j * rng.standard_normal(7)
            F = rng.standard_normal((grid.n_steps, 2)) + 1j * rng.standard_normal((grid.n_steps, 2))
        plan = prepare(sys, grid, "implicit_midpoint")
        states = plan.run(x0, F).states
        reference = matmul_loop(plan, x0, F)
        assert states.dtype == reference.dtype == (float if data == "real" else complex)
        assert np.array_equal(states.view(np.uint8), reference.view(np.uint8))


class TestOrderOfAccuracy:
    """The observed order of each preset under each scheme, both Maxwell
    routes included: the Richardson ratio |x_n - x_2n| / |x_2n - x_4n| of the
    final states (max norm) lies within 20 % of 2^p, with p = 1 for backward
    Euler and p = 2 for the midpoint rule.  The ledger, causality and io
    checks hold for whatever source samples a run takes, so this is the test
    that fails when a step samples its source at the wrong time: at t_k + tau
    the midpoint rule is first order, and the control presets read about 2.

    The run is 8 cells on [0, 1] with t_end 1, the source sin(3t) on the
    first input and a sine initial profile, and n = 320 for every preset:
    the range where each one is asymptotic.  wave-mixed under backward Euler
    comes last, because its parabolic region is stiff: its ratio reads 1.27,
    1.57 and 1.78 from n = 80, 160 and 320.
    """

    ORDER = {"backward_euler": 1, "implicit_midpoint": 2}
    N_STEPS = 320

    @staticmethod
    def source(n_inputs):
        return lambda t: np.sin(3.0 * t) * np.eye(n_inputs)[0]

    def final_states(self, preset, scheme, n_steps):
        """The final state of each route of the preset's run, by name."""
        cfg = cli.load_config(None, [f"preset={preset}", "grid.n_cells=8", "initial.kind=sine",
                                     f"time.n_steps={n_steps}"], None)
        if preset != "maxwell-lift-1d":
            system = cli._build_preset(cfg)
            source = self.source(system.partition.n_u1)
            return {preset: solve(system, system.x0, source, cfg.time, scheme).states[-1]}
        pair = build_sbp_pair_1d(cfg.grid)
        u = np.array([self.source(2)(t) for t in cfg.time.times()])
        E0 = np.sin(np.pi * cfg.grid.nodes())
        routes = maxwell_lift_solve(pair, None, None, u, (E0, np.zeros(pair.n_cells)), cfg.time,
                                    scheme)
        return {f"{preset} {name}": traj.states[-1] for name, traj in routes._asdict().items()}

    @pytest.mark.parametrize("scheme", evolution.SCHEMES)
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_richardson_ratio(self, preset, scheme):
        x_n, x_2n, x_4n = (self.final_states(preset, scheme, k * self.N_STEPS) for k in (1, 2, 4))
        expected = 2.0 ** self.ORDER[scheme]
        for route in x_n:
            ratio = np.abs(x_n[route] - x_2n[route]).max() / np.abs(x_2n[route] - x_4n[route]).max()
            assert 0.8 * expected <= ratio <= 1.2 * expected, f"{route}: ratio {ratio:.3f}"
