"""Tests for boundary control assembly, compatibility, ledgers, and io.

The small wave example used throughout has scalar blocks (v, zeta, w, y)
with M0 = diag(1, 1, 0, 0), algebraic rows w + C v = -sqrt(2) u and
sqrt(2) w + y = -u, and control columns B = (0; (0, -sqrt(2)); -1).  It
satisfies the compatibility conditions exactly, so the midpoint energy
ledger closes to machine precision once the Euler start-up step is past.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import qr

from evoctl import cli, evolution
from evoctl.control import (
    BlockPartition,
    assemble_control,
    check_compatibility,
    energy_ledger,
    extract_io,
    step_ledger,
)
from evoctl.errors import HypothesisViolationError, ShapeMismatchError
from evoctl.evolution import (_ROWS, EvolutionarySystem, TimeGrid, Trajectory, causality_defect,
                              prepare, sample_source, solve)
from evoctl.models import (PortHamiltonianSpec, WaveSpec, build_mixed_type_wave,
                           build_port_hamiltonian, build_weiss_tucsnak_wave, maxwell_system,
                           three_region_indicators)
from evoctl.operators import Grid1D, build_sbp_pair_1d

RT2 = np.sqrt(2.0)


def empty_blocks():
    return [[None] * 4 for _ in range(4)]


def wave_example_system(g=1.3, c=0.7):
    """Smallest wave-type control system with scalar fine blocks."""
    part = BlockPartition(n_h0=1, n_h1=2, n_y=1, n_u1=1)
    M0b = empty_blocks()
    M0b[0][0] = 1.0
    M0b[1][1] = 1.0
    M1b = empty_blocks()
    M1b[2][2] = 1.0
    M1b[3][2] = RT2
    M1b[3][3] = 1.0
    return assemble_control(
        part, M0b, M1b, Cmat=np.array([[c]], dtype=complex),
        B_blocks=(None, np.array([[0.0], [-RT2]]), np.array([[-1.0]])),
        Gmat=np.array([[g]], dtype=complex), n_w=1,
    )


def random_compatible_system(rng, n_h0=4, n_zeta=3, n_w=2, n_y=2, n_u1=2):
    """Random complex system whose B blocks satisfy compatibility exactly."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def hpd(n):
        a = cplx(n, n)
        return a @ a.conj().T + np.eye(n)

    part = BlockPartition(n_h0, n_zeta + n_w, n_y, n_u1)
    M0b = empty_blocks()
    M0b[0][0] = hpd(n_h0)
    M0b[1][1] = hpd(n_zeta)
    M1b = empty_blocks()
    M1b[0][0] = hpd(n_h0)
    M1b[2][2] = 2.0 * np.eye(n_w) + 0.1 * cplx(n_w, n_w)
    My0 = 0.1 * cplx(n_y, n_h0)
    My1 = 0.1 * cplx(n_y, n_zeta + n_w)
    Myy = np.eye(n_y) + 0.1 * cplx(n_y, n_y)
    M1b[3][0] = My0
    M1b[3][1] = My1[:, :n_zeta]
    M1b[3][2] = My1[:, n_zeta:]
    M1b[3][3] = Myy
    B2 = cplx(n_y, n_u1)
    B0 = np.linalg.solve(Myy, My0).conj().T @ B2
    B1 = np.linalg.solve(Myy, My1).conj().T @ B2
    return assemble_control(
        part, M0b, M1b, Cmat=cplx(n_w, n_h0),
        B_blocks=(B0, B1, B2), Gmat=cplx(n_zeta, n_h0), n_w=n_w,
    )


class TestBlockPartition:
    def test_dim_and_slices(self):
        """The coarse slices tile the flat state in order."""
        p = BlockPartition(n_h0=3, n_h1=5, n_y=2, n_u1=4)
        assert p.dim == 10
        assert p.sl_h0 == slice(0, 3)
        assert p.sl_h1 == slice(3, 8)
        assert p.sl_y == slice(8, 10)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            BlockPartition(n_h0=-1, n_h1=2, n_y=1, n_u1=1)


class TestAssembleControl:
    def test_scalar_blocks_expand_to_identity(self):
        """Scalar block entries become scaled identities on the diagonal."""
        sys = wave_example_system()
        assert np.array_equal(sys.M0, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        M1 = np.zeros((4, 4), dtype=complex)
        M1[2, 2] = 1.0
        M1[3, 2] = RT2
        M1[3, 3] = 1.0
        assert np.array_equal(sys.M1, M1)

    def test_coupling_block_is_skew(self):
        """A carries F = (-G; C) against -F^H and nothing else, exactly."""
        rng = np.random.default_rng(7)
        sys = random_compatible_system(rng)
        F = np.vstack([-sys.Gmat, sys.Cmat])
        p = sys.partition
        assert np.array_equal(sys.A[p.sl_h1, p.sl_h0], F)
        assert np.array_equal(sys.A[p.sl_h0, p.sl_h1], -F.conj().T)
        assert np.abs(sys.A + sys.A.conj().T).max() == 0.0
        assert np.abs(sys.A[p.sl_y, :]).max() == 0.0

    def test_omitted_coupling_is_zero(self):
        """Cmat None means no boundary coupling: a zero n_w x n_h0 block."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 8))
        n_nodes, n_cells = pair.n_nodes, pair.grid.n_cells
        part = BlockPartition(n_h0=n_nodes, n_h1=n_cells + 2, n_y=2, n_u1=2)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[1][1] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][3] = 1.0
        ghat = (pair.G / np.sqrt(pair.W0)[None, :]) * np.sqrt(pair.W1)[:, None]
        sys = assemble_control(part, M0b, M1b, ghat, None, (None, None, None), n_w=2)
        assert np.abs(sys.Cmat).max() == 0.0
        assert sys.Cdual.shape == (n_nodes, 2)

    def test_rejects_non_hermitian_mass(self):
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[1][1] = np.array([[0.0, 1.0], [0.0, 0.0]])
        M1b = empty_blocks()
        M1b[3][3] = 1.0
        part = BlockPartition(n_h0=1, n_h1=3, n_y=1, n_u1=1)
        with pytest.raises(HypothesisViolationError, match="Hermitian"):
            assemble_control(part, M0b, M1b, np.zeros((2, 1)), None,
                             (None, None, None), n_w=1)

    def test_rejects_wrong_coupling_shape(self):
        part = BlockPartition(n_h0=2, n_h1=3, n_y=1, n_u1=1)
        M0b = empty_blocks()
        M1b = empty_blocks()
        M1b[3][3] = 1.0
        with pytest.raises(ShapeMismatchError):
            assemble_control(part, M0b, M1b, np.zeros((2, 2)), np.zeros((3, 2)),
                             (None, None, None), n_w=1)

    @staticmethod
    def assemble(M0_blocks, n_w=1):
        """Fine sizes (1, 2, 1, 1) at n_w = 1 and an identity observation block."""
        M1b = empty_blocks()
        M1b[3][3] = 1.0
        return assemble_control(BlockPartition(n_h0=1, n_h1=3, n_y=1, n_u1=1), M0_blocks, M1b,
                                np.zeros((2, 1)), None, (None, None, None), n_w=n_w)

    def test_rejects_a_block_list_of_the_wrong_size(self):
        with pytest.raises(ShapeMismatchError,
                           match=re.escape("M0_blocks must be a 4x4 nested block list")):
            self.assemble(empty_blocks()[:3])

    @pytest.mark.parametrize("entry, words", [
        (1.0, "M0_blocks[0][1] is scalar but the block is (1, 2)"),
        (np.ones((2, 2)), "M0_blocks[0][1] has shape (2, 2), expected (1, 2)"),
    ], ids=["scalar", "matrix"])
    def test_rejects_an_entry_of_the_wrong_shape(self, entry, words):
        M0b = empty_blocks()
        M0b[0][1] = entry
        with pytest.raises(ShapeMismatchError, match=re.escape(words)):
            self.assemble(M0b)

    @pytest.mark.parametrize("n_w", [-1, 4])
    def test_rejects_n_w_outside_the_middle_block(self, n_w):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"n_w must lie in [0, 3] (the middle block size), got {n_w}")):
            self.assemble(empty_blocks(), n_w=n_w)

    @pytest.mark.parametrize("mats, words", [
        ({"M0": np.eye(5), "M1": np.zeros((5, 5)), "A": np.zeros((5, 5)), "J": np.zeros((5, 1))},
         "M0 must be 4x4, got (5, 5)"),
        ({"J": np.zeros((4, 2))}, "J must be 4x1, got (4, 2)"),
    ], ids=["M0", "J"])
    def test_control_system_checks_its_matrices_against_the_partition(self, mats, words):
        with pytest.raises(ShapeMismatchError, match=re.escape(words)):
            replace(wave_example_system(), **mats)

    def test_solve_rejects_a_control_of_the_wrong_length(self):
        """A control signal must have one entry per control input."""
        sys = wave_example_system()
        with pytest.raises(ShapeMismatchError):
            solve(sys, np.zeros(4), lambda t: np.ones(2), TimeGrid(1.0, 2), "backward_euler")


class TestAdjointStructure:
    def test_two_sided_adjoint_identity(self):
        """<Fx|(zeta, w)> equals <x|-G^H zeta + Cdual w> for random draws."""
        rng = np.random.default_rng(11)
        sys = random_compatible_system(rng)
        F = np.vstack([-sys.Gmat, sys.Cmat])
        worst = 0.0
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = np.vdot(F @ x, np.concatenate([zeta, w]))
            rhs = np.vdot(x, -sys.Gmat.conj().T @ zeta + sys.Cdual @ w)
            worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-12, f"adjoint identity defect {worst:.2e}"

    def test_skew_pairing_through_assembled_matrix(self):
        """<x|Ay> = -<Ax|y> holds exactly for the assembled coupling."""
        rng = np.random.default_rng(12)
        sys = random_compatible_system(rng)
        worst = 0.0
        for _ in range(50):
            x = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            y = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            worst = max(worst, abs(np.vdot(x, sys.A @ y) + np.vdot(sys.A @ x, y)))
        assert worst < 1e-12, f"skew pairing defect {worst:.2e}"

    def test_is_the_evolutionary_system_with_j_equal_b(self):
        """A control system is solved as it stands: its input map is its
        control columns, and solve gives bitwise what it gives for the plain
        evolutionary system with the same four matrices."""
        rng = np.random.default_rng(13)
        sys = random_compatible_system(rng)
        assert isinstance(sys, EvolutionarySystem)
        assert sys.J.tobytes() == np.vstack([sys.B0, sys.B1, sys.B2]).tobytes()
        plain = EvolutionarySystem(sys.M0, sys.M1, sys.A, sys.J)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        u = lambda t: np.array([np.cos(3.0 * t), 0.5j * np.sin(2.0 * t)])
        for scheme in ("backward_euler", "implicit_midpoint"):
            grid = TimeGrid(t_end=1.0, n_steps=16)
            ours, theirs = (solve(s, x0, u, grid, scheme) for s in (sys, plain))
            assert ours.states.tobytes() == theirs.states.tobytes()
            assert ours.inputs.tobytes() == theirs.inputs.tobytes()


class TestCheckCompatibility:
    def test_wave_example_is_exactly_compatible(self):
        """The wave example control columns satisfy both conditions exactly."""
        d0, d1 = check_compatibility(wave_example_system())
        assert d0 == 0.0, f"first compatibility defect {d0:.2e}"
        assert d1 == 0.0, f"second compatibility defect {d1:.2e}"

    def test_zeroed_middle_column_defects_by_sqrt_two(self):
        """Dropping B1 leaves a defect of sqrt(2) in the spectral norm."""
        sys = wave_example_system()
        broken = assemble_control(
            sys.partition,
            [[1.0, None, None, None], [None, 1.0, None, None],
             [None] * 4, [None] * 4],
            [[None] * 4, [None] * 4,
             [None, None, 1.0, None], [None, None, RT2, 1.0]],
            sys.Gmat, sys.Cmat, (None, None, np.array([[-1.0]])), n_w=1,
        )
        d0, d1 = check_compatibility(broken)
        assert d0 == 0.0
        assert abs(d1 - RT2) < 1e-12, f"expected sqrt(2), got {d1:.12f}"

    def test_spectral_norm_on_two_dimensional_control(self):
        """With two controls the B1 = 0 defect is sqrt(2), not Frobenius 2."""
        part = BlockPartition(n_h0=2, n_h1=3, n_y=2, n_u1=2)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[1][1] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][2] = RT2
        M1b[3][3] = 1.0
        sys = assemble_control(
            part, M0b, M1b, np.zeros((1, 2)), None, (None, None, -np.eye(2)), n_w=2,
        )
        d0, d1 = check_compatibility(sys)
        assert d0 == 0.0
        assert abs(d1 - RT2) < 1e-12, f"expected sqrt(2), got {d1:.12f}"

    def test_constructed_compatible_system_has_zero_defects(self):
        rng = np.random.default_rng(21)
        d0, d1 = check_compatibility(random_compatible_system(rng))
        assert d0 < 1e-13, f"first defect {d0:.2e}"
        assert d1 < 1e-13, f"second defect {d1:.2e}"

    def test_defects_invariant_under_observation_rotation(self):
        """Conjugating the observation block by a unitary keeps the defects."""
        rng = np.random.default_rng(22)
        sys = random_compatible_system(rng)
        broken = assemble_control(
            sys.partition,
            [[sys.M0[sys.fine_slice(i), sys.fine_slice(j)] for j in range(4)]
             for i in range(4)],
            [[sys.M1[sys.fine_slice(i), sys.fine_slice(j)] for j in range(4)]
             for i in range(4)],
            sys.Gmat, sys.Cmat,
            (sys.B0 + rng.standard_normal(sys.B0.shape), sys.B1, sys.B2),
            n_w=sys.n_w,
        )
        d0, d1 = check_compatibility(broken)
        U = qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        M1r = [[broken.M1[broken.fine_slice(i), broken.fine_slice(j)]
                for j in range(4)] for i in range(4)]
        for j in range(3):
            M1r[3][j] = U.conj().T @ M1r[3][j]
        M1r[3][3] = U.conj().T @ M1r[3][3] @ U
        for i in range(3):
            M1r[i][3] = M1r[i][3] @ U
        rotated = assemble_control(
            broken.partition,
            [[broken.M0[broken.fine_slice(i), broken.fine_slice(j)]
              for j in range(4)] for i in range(4)],
            M1r, broken.Gmat, broken.Cmat,
            (broken.B0, broken.B1, U.conj().T @ broken.B2),
            n_w=broken.n_w,
        )
        r0, r1 = check_compatibility(rotated)
        assert abs(r0 - d0) < 1e-11, f"rotation moved first defect by {abs(r0 - d0):.2e}"
        assert abs(r1 - d1) < 1e-11, f"rotation moved second defect by {abs(r1 - d1):.2e}"

    def test_empty_observation_block_is_refused(self):
        part = BlockPartition(n_h0=1, n_h1=2, n_y=0, n_u1=1)
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        sys = assemble_control(part, empty_blocks(), M1b, np.zeros((1, 1)), None,
                               (None, None, None), n_w=1)
        with pytest.raises(HypothesisViolationError, match="^observation block is empty$"):
            check_compatibility(sys)

    def test_singular_observation_block_is_refused(self):
        part = BlockPartition(n_h0=1, n_h1=2, n_y=1, n_u1=1)
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][3] = 0.0
        sys = assemble_control(part, empty_blocks(), M1b, np.zeros((1, 1)), None,
                               (None, None, None), n_w=1)
        with pytest.raises(HypothesisViolationError, match="not invertible"):
            check_compatibility(sys)


class TestEnergyLedger:
    def u_signal(self, n_u1):
        def u(t):
            base = np.cos(3.0 * t) + 0.4j * np.sin(2.0 * t)
            return base * (1.0 + 0.2 * np.arange(n_u1))

        return u

    @pytest.mark.parametrize("ia, ib", [(1, 16), (1, 8), (4, 12)])
    def test_midpoint_ledger_closes_exactly(self, ia, ib):
        """Midpoint steps balance stored drop, dissipation, and supply."""
        rng = np.random.default_rng(31)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.2, n_steps=16)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, "implicit_midpoint")
        assert traj.n_euler_init_steps == 1
        times = grid.times()
        led = energy_ledger(sys, traj, a=times[ia], b=times[ib])
        scale = max(1.0, abs(led.stored_drop), led.dissipation, abs(led.supply))
        assert abs(led.defect) < 1e-11 * scale, \
            f"midpoint ledger defect {led.defect:.2e} on [{times[ia]}, {times[ib]}]"

    def test_wave_example_midpoint_ledger(self):
        """The scalar wave example closes its ledger after the start-up step."""
        rng = np.random.default_rng(32)
        sys = wave_example_system()
        grid = TimeGrid(t_end=2.0, n_steps=40)
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        traj = solve(sys, x0, self.u_signal(1), grid, "implicit_midpoint")
        led = energy_ledger(sys, traj, a=grid.times()[1], b=grid.t_end)
        scale = max(1.0, abs(led.stored_drop), led.dissipation, abs(led.supply))
        assert abs(led.defect) < 1e-11 * scale, f"ledger defect {led.defect:.2e}"

    def test_euler_defect_is_the_artificial_dissipation(self):
        """Backward Euler defects equal the summed squared increments."""
        rng = np.random.default_rng(33)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=12)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, "backward_euler")
        led = energy_ledger(sys, traj, a=0.0, b=grid.t_end)
        expected = sum(
            0.5 * np.vdot(d, sys.M0 @ d).real
            for d in np.diff(traj.states, axis=0)
        )
        scale = max(1.0, abs(led.stored_drop), led.dissipation, expected)
        assert led.defect >= -1e-12 * scale
        assert abs(led.defect - expected) < 1e-11 * scale, \
            f"Euler defect {led.defect:.6e} vs increments {expected:.6e}"

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_every_theta_step_closes_with_its_correction(self, scheme):
        """Each step's stored drop equals dissipation - supply plus the
        theta-method correction (theta - 1/2)<dx|M0 dx>, the Euler
        start-up step of a midpoint run included."""
        rng = np.random.default_rng(34)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=12)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, scheme)
        steps = step_ledger(sys, traj)
        drop = steps.energy[:-1] - steps.energy[1:]
        residual = drop - (steps.dissipation - steps.supply) - steps.correction
        scale = max(1.0, np.abs(drop).max(), steps.dissipation.max())
        assert np.abs(residual).max() < 1e-11 * scale
        dx = np.diff(traj.states, axis=0)
        increments = np.array([np.vdot(d, sys.M0 @ d).real for d in dx])
        assert np.all(np.abs(steps.correction - (traj.theta - 0.5) * increments)
                      <= 1e-14 * np.maximum(1.0, np.abs(increments)))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.tuples(*[st.integers(1, 3)] * 5),
           n_steps=st.integers(1, 30),
           scheme=st.sampled_from(["backward_euler", "implicit_midpoint"]))
    def test_random_systems_close_every_step(self, seed, sizes, n_steps, scheme):
        """Per-step closure with the theta correction holds for random
        compatible systems, step counts and both schemes, and the run
        stores one control sample per step."""
        rng = np.random.default_rng(seed)
        sys = random_compatible_system(rng, *sizes)
        n_u1 = sys.partition.n_u1
        grid = TimeGrid(t_end=1.0, n_steps=n_steps)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(n_u1), grid, scheme)
        assert traj.inputs.shape == (n_steps, n_u1)
        steps = step_ledger(sys, traj)
        drop = steps.energy[:-1] - steps.energy[1:]
        residual = drop - (steps.dissipation - steps.supply) - steps.correction
        scale = max(1.0, np.abs(drop).max(), steps.dissipation.max())
        assert np.abs(residual).max() < 1e-11 * scale
        dx = np.diff(traj.states, axis=0)
        increments = np.array([np.vdot(d, sys.M0 @ d).real for d in dx])
        assert np.all(np.abs(steps.correction - (traj.theta - 0.5) * increments)
                      <= 1e-14 * np.maximum(1.0, np.abs(increments)))

    def test_interval_ledger_sums_the_steps(self):
        """energy_ledger over [a, b] is the step ledger summed over it."""
        rng = np.random.default_rng(35)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=10)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, "implicit_midpoint")
        times = grid.times()
        steps = step_ledger(sys, traj, a=times[3], b=times[7])
        assert steps.ia == 3 and steps.energy.shape == (5,)
        led = energy_ledger(sys, traj, a=times[3], b=times[7])
        assert led.interval == (times[3], times[7])
        assert led.stored_drop == steps.energy[0] - steps.energy[-1]
        assert led.dissipation == pytest.approx(steps.dissipation.sum(), rel=1e-14)
        assert led.supply == pytest.approx(steps.supply.sum(), rel=1e-14)

    def test_reactive_observation_conserves_energy(self):
        """Purely imaginary algebraic blocks yield a conservative ledger."""
        part = BlockPartition(n_h0=2, n_h1=3, n_y=1, n_u1=1)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[1][1] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0j
        M1b[3][3] = 1.0j
        rng = np.random.default_rng(34)
        sys = assemble_control(
            part, M0b, M1b, Cmat=rng.standard_normal((1, 2)),
            B_blocks=(None, None, np.array([[1.0]])),
            Gmat=rng.standard_normal((2, 2)), n_w=1,
        )
        grid = TimeGrid(t_end=1.0, n_steps=20)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        with pytest.warns(RuntimeWarning, match="not certified well-posed"):
            traj = solve(sys, x0, self.u_signal(1), grid, "implicit_midpoint")
        led = energy_ledger(sys, traj, a=grid.times()[1], b=grid.t_end)
        assert led.dissipation == 0.0
        assert led.supply == 0.0
        scale = max(1.0, np.abs(traj.states).max() ** 2)
        assert abs(led.stored_drop) < 1e-11 * scale, \
            f"energy drifted by {led.stored_drop:.2e}"

    def test_refuses_mass_on_observation_block(self):
        part = BlockPartition(n_h0=1, n_h1=2, n_y=1, n_u1=1)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[3][3] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][3] = 1.0
        sys = assemble_control(part, M0b, M1b, np.zeros((1, 1)), None,
                               (None, None, None), n_w=1)
        grid = TimeGrid(t_end=1.0, n_steps=2)
        traj = Trajectory(grid=grid, states=np.zeros((3, 4), dtype=complex),
                          inputs=np.zeros((2, 1), dtype=complex),
                          scheme="backward_euler")
        with pytest.raises(HypothesisViolationError, match="observation rows"):
            energy_ledger(sys, traj)

    def test_refuses_incompatible_control_columns(self):
        sys = wave_example_system()
        broken = assemble_control(
            sys.partition,
            [[1.0, None, None, None], [None, 1.0, None, None],
             [None] * 4, [None] * 4],
            [[None] * 4, [None] * 4,
             [None, None, 1.0, None], [None, None, RT2, 1.0]],
            sys.Gmat, sys.Cmat,
            (np.array([[0.5]]), sys.B1, sys.B2), n_w=1,
        )
        grid = TimeGrid(t_end=1.0, n_steps=2)
        traj = Trajectory(grid=grid, states=np.zeros((3, 4), dtype=complex),
                          inputs=np.zeros((2, 1), dtype=complex),
                          scheme="backward_euler")
        with pytest.raises(HypothesisViolationError, match="compatibility"):
            energy_ledger(broken, traj)

    @staticmethod
    def zero_trajectory(n_inputs=1):
        return Trajectory(grid=TimeGrid(t_end=1.0, n_steps=2),
                          states=np.zeros((3, 4)), inputs=np.zeros((2, n_inputs)),
                          scheme="backward_euler")

    def test_refuses_coupling_on_observation_rows(self):
        sys = wave_example_system()
        A = sys.A.copy()
        A[3, 0], A[0, 3] = 1.0, -1.0
        with pytest.raises(HypothesisViolationError,
                           match="requires the observation rows of A to vanish"):
            energy_ledger(replace(sys, A=A), self.zero_trajectory())

    @pytest.mark.parametrize("a, b, indices", [(0.5, 0.5, "1, 1"), (1.0, 0.5, "2, 1")])
    def test_rejects_an_empty_interval(self, a, b, indices):
        with pytest.raises(ValueError, match=f"need a < b on the grid, got indices {indices}$"):
            energy_ledger(wave_example_system(), self.zero_trajectory(), a=a, b=b)

    def test_rejects_control_samples_of_the_wrong_shape(self):
        with pytest.raises(ShapeMismatchError,
                           match=re.escape("control samples must be (2, 1), got (2, 2)")):
            energy_ledger(wave_example_system(), self.zero_trajectory(n_inputs=2))

    def test_rejects_off_grid_interval(self):
        rng = np.random.default_rng(36)
        sys = wave_example_system()
        grid = TimeGrid(t_end=1.0, n_steps=4)
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        traj = solve(sys, x0, self.u_signal(1), grid, "backward_euler")
        with pytest.raises(ValueError, match="grid time"):
            energy_ledger(sys, traj, a=0.1, b=1.0)


class TestExtractIO:
    def u_signal(self, n_u1):
        def u(t):
            return (np.sin(1.7 * t) + 0.5j * np.cos(t)) * np.ones(n_u1)

        return u

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_recovered_io_matches_stored_components(self, scheme):
        """Solving the algebraic rows reproduces the stored (w, y) states."""
        rng = np.random.default_rng(41)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=14)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, scheme)
        io = extract_io(sys, traj)
        assert io.w_samples.shape == (14, 2)
        assert io.y_samples.shape == (14, 2)
        assert io.max_deviation < 1e-10, \
            f"recovered io deviates from the states by {io.max_deviation:.2e}"

    def test_wave_example_io_relations(self):
        """The wave example satisfies w = -sqrt(2) u - C v and w = C v - sqrt(2) y."""
        rng = np.random.default_rng(42)
        c = 0.7
        sys = wave_example_system(c=c)
        grid = TimeGrid(t_end=2.0, n_steps=32)
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        traj = solve(sys, x0, self.u_signal(1), grid, "implicit_midpoint")
        io = extract_io(sys, traj)
        w, y = io.w_samples, io.y_samples
        u_used = traj.inputs
        worst_in = worst_out = 0.0
        for k in range(1, grid.n_steps):
            xm = 0.5 * (traj.states[k] + traj.states[k + 1])
            v = xm[:1]
            worst_in = max(worst_in, np.abs(w[k] + RT2 * u_used[k] + c * v).max())
            worst_out = max(worst_out, np.abs(w[k] - (c * v - RT2 * y[k])).max())
        assert worst_in < 1e-10, f"input relation defect {worst_in:.2e}"
        assert worst_out < 1e-10, f"output relation defect {worst_out:.2e}"

    def test_sample_times_follow_the_scheme(self):
        """Euler start-up samples sit at t_1, midpoint ones at midpoints."""
        rng = np.random.default_rng(44)
        sys = wave_example_system()
        grid = TimeGrid(t_end=1.0, n_steps=4)
        x0 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        traj = solve(sys, x0, self.u_signal(1), grid, "implicit_midpoint")
        sample_times = traj.sample_times()
        times = grid.times()
        assert sample_times[0] == times[1]
        assert np.allclose(sample_times[1:], times[1:-1] + 0.5 * grid.tau)

    def test_non_finite_state_poisons_the_deviation(self):
        """A NaN anywhere in the states shows up in max_deviation."""
        rng = np.random.default_rng(46)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=6)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        traj = solve(sys, x0, self.u_signal(2), grid, "backward_euler")
        traj.states[4, -1] = np.nan
        assert np.isnan(extract_io(sys, traj).max_deviation)

    def test_quiet_system_recovers_zeros(self):
        """No control and no coupling leaves the boundary values at zero."""
        part = BlockPartition(n_h0=2, n_h1=3, n_y=1, n_u1=1)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[1][1] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][2] = RT2
        M1b[3][3] = 1.0
        rng = np.random.default_rng(45)
        sys = assemble_control(part, M0b, M1b, rng.standard_normal((2, 2)), None,
                               (None, None, None), n_w=1)
        grid = TimeGrid(t_end=1.0, n_steps=6)
        x0 = np.zeros(sys.dim, dtype=complex)
        x0[:2] = rng.standard_normal(2)
        traj = solve(sys, x0, lambda t: np.zeros(1), grid, "implicit_midpoint")
        io = extract_io(sys, traj)
        assert np.abs(io.w_samples).max() < 1e-13
        assert np.abs(io.y_samples).max() < 1e-13

    def test_refuses_mass_on_boundary_rows(self):
        part = BlockPartition(n_h0=1, n_h1=2, n_y=1, n_u1=1)
        M0b = empty_blocks()
        M0b[0][0] = 1.0
        M0b[2][2] = 1.0
        M1b = empty_blocks()
        M1b[2][2] = 1.0
        M1b[3][3] = 1.0
        sys = assemble_control(part, M0b, M1b, np.zeros((1, 1)), None,
                               (None, None, None), n_w=1)
        grid = TimeGrid(t_end=1.0, n_steps=2)
        traj = Trajectory(grid=grid, states=np.zeros((3, 4), dtype=complex),
                          inputs=np.zeros((2, 1), dtype=complex),
                          scheme="backward_euler")
        with pytest.raises(HypothesisViolationError, match="rows of M0"):
            extract_io(sys, traj)


def reference_ledger(sys, traj, ia, ib):
    """Per-step loop of the ledger terms of steps ia..ib-1, one np.vdot each."""
    Myy = sys.M1[sys.partition.sl_y, sys.partition.sl_y]
    inv = np.linalg.inv(Myy)
    kernel, reM1, tau = 0.5 * (inv + inv.conj().T), sys.re_m1(), traj.grid.tau
    x = traj.states
    energy = [0.5 * np.vdot(x[k], sys.M0 @ x[k]).real for k in range(ia, ib + 1)]
    terms = []
    for k in range(ia, ib):
        theta = traj.theta[k]
        xs = (1.0 - theta) * x[k] + theta * x[k + 1]
        bu, dx = sys.B2 @ traj.inputs[k], x[k + 1] - x[k]
        terms.append((tau * np.vdot(xs, reM1 @ xs).real, tau * np.vdot(bu, kernel @ bu).real,
                      (theta - 0.5) * np.vdot(dx, sys.M0 @ dx).real))
    return np.array(energy), *np.array(terms).T


def reference_io(sys, traj):
    """Per-step loop of extract_io: w, y and the largest deviation from
    the stored (w, y) components."""
    off = sys.fine_offsets()
    wy, vz = slice(off[2], off[4]), slice(0, off[2])
    M1A = sys.M1 + sys.A
    sol, dev = [], 0.0
    for k, theta in enumerate(traj.theta):
        xs = (1.0 - theta) * traj.states[k] + theta * traj.states[k + 1]
        rhs = sys.J[wy] @ traj.inputs[k] - M1A[wy, vz] @ xs[vz]
        sol.append(np.linalg.solve(M1A[wy, wy], rhs))
        dev = max(dev, np.abs(sol[-1] - xs[wy]).max())
    sol = np.array(sol)
    return sol[:, :sys.n_w], sol[:, sys.n_w:], dev


def rel_close(a, b, tol=1e-14):
    return np.abs(np.asarray(a) - b).max() <= tol * np.abs(b).max()


class TestRowBlocks:
    """Runs of 2 * _ROWS + 3 steps, so that the ledger, the I/O recovery and
    the step sources cross two block boundaries and end in a short block.
    A midpoint run on these systems (singular M0) starts with a theta = 1
    step in the first block."""

    n_steps = 2 * _ROWS + 3

    def run(self, scheme, seed=41):
        rng = np.random.default_rng(seed)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=self.n_steps)
        x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        u = lambda t: np.array([np.cos(3.0 * t), 0.5j * np.sin(2.0 * t)])
        return sys, solve(sys, x0, u, grid, scheme)

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    @pytest.mark.parametrize("ia,ib", [(0, None), (_ROWS - 27, 2 * _ROWS + 1)])
    def test_ledger_matches_the_step_loop(self, scheme, ia, ib):
        """Every ledger term agrees with a per-step loop within 1e-14
        relative, over [0, T] and over a sub-interval whose start is not
        a multiple of _ROWS."""
        sys, traj = self.run(scheme)
        ib = self.n_steps if ib is None else ib
        times = traj.grid.times()
        led = step_ledger(sys, traj, a=times[ia], b=times[ib])
        assert led.ia == ia and led.energy.shape == (ib - ia + 1,)
        if scheme == "implicit_midpoint":
            assert traj.n_euler_init_steps == 1
        for ours, ref in zip(led[1:], reference_ledger(sys, traj, ia, ib)):
            assert rel_close(ours, ref)

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_io_matches_the_step_loop(self, scheme):
        """w and y agree with per-step solves within 1e-14 relative, and
        max_deviation, a roundoff-sized distance, within 1e-14 of the
        scale of the samples it measures."""
        sys, traj = self.run(scheme)
        io = extract_io(sys, traj)
        w, y, dev = reference_io(sys, traj)
        assert rel_close(io.w_samples, w) and rel_close(io.y_samples, y)
        scale = max(np.abs(w).max(), np.abs(y).max())
        assert abs(io.max_deviation - dev) <= 1e-14 * scale

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_every_step_solves_its_theta_equation(self, scheme):
        """The step sources J u_k, formed per block, enter every step:
        (M0/tau + theta (M1+A)) x^{k+1} = (M0/tau - (1-theta)(M1+A)) x^k + J u_k."""
        sys, traj = self.run(scheme)
        tau, M1A, x = traj.grid.tau, sys.M1 + sys.A, traj.states
        for k, theta in enumerate(traj.theta):
            lhs = (sys.M0 / tau + theta * M1A) @ x[k + 1]
            rhs = (sys.M0 / tau - (1.0 - theta) * M1A) @ x[k] + sys.J @ traj.inputs[k]
            assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max(), k

    @pytest.mark.parametrize("scheme,step", [
        ("backward_euler", _ROWS + 7), ("implicit_midpoint", _ROWS + 7),
        ("backward_euler", _ROWS - 1), ("implicit_midpoint", _ROWS - 1)],
        ids=["backward_euler", "implicit_midpoint", "backward_euler-block-end",
             "implicit_midpoint-block-end"])
    def test_nan_sample_names_its_step(self, scheme, step):
        """A NaN sample inside the second block, or at the last step of the
        first, is refused at its own step."""
        sys, _ = self.run(scheme)
        grid = TimeGrid(t_end=1.0, n_steps=self.n_steps)
        bad = prepare(sys, grid, scheme).sample_times()[step]
        u = lambda t: np.full(2, np.nan) if t == bad else np.ones(2)
        with pytest.raises(ValueError, match="must not contain infs or NaNs: "
                                             f"the right side of step {step}$"):
            solve(sys, np.zeros(sys.dim), u, grid, scheme)


def shipped_systems():
    """The systems of the four presets on small grids."""
    grid = Grid1D(0.0, 1.0, 8)
    spec = WaveSpec(grid=grid, z1=np.sin(np.pi * grid.nodes()))
    return [build_weiss_tucsnak_wave(spec),
            build_mixed_type_wave(spec, three_region_indicators(grid)),
            build_port_hamiltonian(PortHamiltonianSpec(grid=Grid1D(0.0, 1.0, 4), Nmat=[[1.0]])),
            maxwell_system(build_sbp_pair_1d(grid))]


class TestStepPlan:
    """solve is prepare, sample and run; one plan serves any number of runs."""

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_solve_equals_prepare_then_run(self, scheme):
        """Bitwise, on a random compatible system, whose M0 is singular so that
        a midpoint run starts with a theta = 1 step, and on every preset."""
        rng = np.random.default_rng(71)
        grid = TimeGrid(t_end=1.0, n_steps=_ROWS + 9)
        for sys in [random_compatible_system(rng)] + shipped_systems():
            x0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            weights = rng.standard_normal(sys.n_inputs)
            f = lambda t: np.cos(3.0 * t) * weights
            traj = solve(sys, x0, f, grid, scheme)
            plan = prepare(sys, grid, scheme)
            again = plan.run(x0, sample_source(f, plan.sample_times(), sys.n_inputs))
            assert np.array_equal(traj.states, again.states)
            assert np.array_equal(traj.inputs, again.inputs)
            assert traj.n_euler_init_steps == again.n_euler_init_steps == plan.n_init
            # theta = 1 on Euler steps and on the start-up step of a midpoint
            # run on singular M0, 1/2 otherwise
            eigs = np.abs(np.linalg.eigvalsh(sys.M0))
            midpoint = scheme == "implicit_midpoint"
            expected = np.full(grid.n_steps, 0.5 if midpoint else 1.0)
            expected[:int(midpoint and eigs.min() <= 1e-12 * max(eigs.max(), 1.0))] = 1.0
            assert np.array_equal(plan.theta, expected)
            assert np.array_equal(plan.sample_times(), traj.sample_times())
        singular = random_compatible_system(rng)
        assert prepare(singular, grid, scheme).n_init == (scheme == "implicit_midpoint")

    def test_one_plan_runs_many_sources(self):
        """Each run of a plan from the zero state equals a fresh solve of its
        own source from x0 None."""
        rng = np.random.default_rng(72)
        sys = random_compatible_system(rng)
        grid = TimeGrid(t_end=1.0, n_steps=30)
        plan = prepare(sys, grid, "implicit_midpoint")
        for freq in (1.0, 2.0, 5.0):
            f = lambda t: np.sin(freq * t) * np.ones(sys.n_inputs)
            run = plan.run(np.zeros(sys.dim), sample_source(f, plan.sample_times(), sys.n_inputs))
            fresh = solve(sys, None, f, grid, "implicit_midpoint")
            assert np.array_equal(run.states, fresh.states)

    def test_run_refuses_a_source_of_the_wrong_shape(self):
        sys = random_compatible_system(np.random.default_rng(73))
        plan = prepare(sys, TimeGrid(t_end=1.0, n_steps=4), "backward_euler")
        with pytest.raises(ShapeMismatchError, match="F must have shape"):
            plan.run(np.zeros(sys.dim), np.zeros((3, sys.n_inputs)))
        with pytest.raises(ShapeMismatchError, match="x0 must have shape"):
            plan.run(np.zeros(sys.dim + 1), np.zeros((4, sys.n_inputs)))

    @pytest.mark.parametrize("scheme,distinct", [("backward_euler", 1),
                                                 ("implicit_midpoint", 2)])
    def test_causality_defect_prepares_once(self, calls_to, scheme, distinct):
        """Both runs of causality_defect step through one plan: one
        certificate and one inverse per distinct theta."""
        sys = random_compatible_system(np.random.default_rng(74))
        certs = calls_to(evolution, "check_wellposed")
        inverses = calls_to(evolution, "lu_factor")
        f1 = lambda t: np.ones(sys.n_inputs)
        f2 = lambda t: np.ones(sys.n_inputs) * (1.0 + (t > 0.5))
        defect = causality_defect(sys, f1, f2, 0.5, TimeGrid(1.0, 16), scheme)
        assert defect <= 1e-12
        assert len(certs) == 1 and len(inverses) == distinct

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_plan_keeps_the_exact_condition_number(self, scheme):
        """kappa of every distinct theta is the exact 1-norm condition number
        of that theta's step matrix."""
        rng = np.random.default_rng(75)
        n = 10
        M1 = 0.5 * np.eye(n) + 0.1 * rng.standard_normal((n, n))
        S = rng.standard_normal((n, n))
        sys = EvolutionarySystem(M0=np.diag([1.0] * (n - 2) + [0.0, 0.0]), M1=M1,
                                 A=S - S.T, J=np.eye(n))
        grid = TimeGrid(t_end=1.0, n_steps=8)
        plan = prepare(sys, grid, scheme)
        assert sorted(plan.steps) == sorted(set(plan.theta))
        for theta, (P, kappa, R) in plan.steps.items():
            K = sys.M0 / grid.tau + theta * (sys.M1 + sys.A)
            assert np.linalg.cond(K, 1) < 1e3
            assert kappa == pytest.approx(np.linalg.cond(K, 1), rel=1e-12)
            assert np.array_equal(P, np.linalg.inv(K))
            assert np.array_equal(R, sys.M0 / grid.tau - (1.0 - theta) * (sys.M1 + sys.A))

    def test_midpoint_plan_diagonalizes_m0_once(self, calls_to):
        """The singular-M0 test and the M0 >= 0 test read one spectrum of M0:
        a midpoint plan makes a single eigvalsh call whose argument is made
        of entries of M0 alone."""
        sys = random_compatible_system(np.random.default_rng(76))
        calls = calls_to(np.linalg, "eigvalsh")
        plan = prepare(sys, TimeGrid(t_end=1.0, n_steps=8), "implicit_midpoint")
        on_m0 = [args[0] for args in calls if np.isin(args[0], sys.M0).all()]
        assert len(on_m0) == 1 and plan.n_init == 1
        assert np.array_equal(plan.report.spectrum[0], np.linalg.eigvalsh(on_m0[0]))


class TestDtypeFollowsTheData:
    """The dtype of a system and its runs follows the data (errors.as_array):
    the shipped presets are real and step in float64, a complex system
    stays complex128, and the real run agrees with the complex one."""

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_every_preset_assembles_float64(self, preset):
        sys = cli._build_preset(cli.load_config(None, [f"preset={preset}"], 1e-9))
        assert [m.dtype for m in (sys.M0, sys.M1, sys.A, sys.J)] == [np.float64] * 4

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_simulate_steps_in_float64(self, tmp_path, calls_to, preset):
        """The trajectory a simulate run writes holds float64 states."""
        runs = calls_to(cli, "_write_run")
        assert cli.main(["simulate", "--set", f"preset={preset}", "--set", f"outdir={tmp_path}",
                         "--set", "input.kind=sinusoid", "--set", "initial.kind=sine",
                         "--set", "time.n_steps=20"]) == 0
        traj = runs[0][2]
        assert traj.states.dtype == traj.inputs.dtype == np.float64

    def test_complex_system_stays_complex(self):
        """A random complex system steps, ledgers and recovers its I/O in
        complex128, also under a real source; a complex source promotes a
        real system."""
        sys = random_compatible_system(np.random.default_rng(81))
        assert [m.dtype for m in (sys.M0, sys.M1, sys.A, sys.J)] == [np.complex128] * 4
        grid = TimeGrid(t_end=1.0, n_steps=12)
        traj = solve(sys, np.zeros(sys.dim), lambda t: np.array([np.sin(t), np.cos(t)]),
                     grid, "implicit_midpoint")
        assert traj.inputs.dtype == np.float64 and traj.states.dtype == np.complex128
        assert extract_io(sys, traj).y_samples.dtype == np.complex128
        assert np.isfinite(step_ledger(sys, traj).energy).all()
        real = shipped_systems()[0]
        traj = solve(real, real.x0, lambda t: np.full(real.n_inputs, 1j * t), grid,
                     "backward_euler")
        assert traj.inputs.dtype == traj.states.dtype == np.complex128

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    @pytest.mark.parametrize("index", range(3))
    def test_real_run_matches_the_complex_run(self, scheme, index):
        """A control preset's float64 run agrees with the run of the same
        matrices cast to complex within 1e-13 relative: states, every
        ledger term and the recovered I/O."""
        real = shipped_systems()[index]
        cplx = replace(real, M0=real.M0.astype(complex), M1=real.M1.astype(complex),
                       A=real.A.astype(complex), J=real.J.astype(complex),
                       x0=real.x0.astype(complex))
        grid = TimeGrid(t_end=1.0, n_steps=_ROWS + 9)
        u = lambda t: np.cos(3.0 * t) * np.arange(1.0, real.n_inputs + 1.0)
        ref, ours = (solve(sys, sys.x0, u, grid, scheme) for sys in (cplx, real))
        assert ours.states.dtype == np.float64 and ref.states.dtype == np.complex128
        assert rel_close(ours.states, ref.states, 1e-13)
        for term, ref_term in zip(step_ledger(real, ours)[1:], step_ledger(cplx, ref)[1:]):
            assert rel_close(term, ref_term, 1e-13)
        io, ref_io = (np.hstack([io.w_samples, io.y_samples])
                      for io in (extract_io(real, ours), extract_io(cplx, ref)))
        assert rel_close(io, ref_io, 1e-13)
