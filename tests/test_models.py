"""Tests for the model presets built on the staggered pair.

The wave preset stores (v, zeta, w, y) with the velocity deflated to
the complement of constants, constant blocks M0 = diag(1, 1, 0, 0) and
algebraic rows w + Cv = -sqrt(2) u, sqrt(2) w + y = -u; its closed-loop
energy obeys E(a) - E(b) = integral of |y|^2/2 - |u|^2/2.  The mixed
builder moves points between the derivative and damping blocks by
region, the port-Hamiltonian chain eliminates w through the endpoint
sampler while keeping the dual rows exactly maximal, and the Maxwell
lift integrates the same boundary data through a state shift and
through the boundary pairing rows side by side.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evoctl import evolution, models
from evoctl.bdspace import compute_bd_space, dual_projection
from evoctl.control import (BlockPartition, assemble_control, check_compatibility,
                            energy_ledger, extract_io, step_ledger)
from evoctl.errors import (
    HypothesisViolationError,
    InvalidGridError,
    PositivityError,
    ShapeMismatchError,
)
from evoctl.evolution import SCHEMES, TimeGrid, Trajectory, check_wellposed, solve
from evoctl.models import (
    MaxwellLiftResult,
    PortHamiltonianSpec,
    WaveSpec,
    all_hyperbolic_indicators,
    boundary_equation_defect,
    build_mixed_type_wave,
    build_port_hamiltonian,
    build_weiss_tucsnak_wave,
    deflation_basis,
    maxwell_lift_solve,
    maxwell_system,
    three_region_indicators,
)
from evoctl.operators import Grid1D, build_sbp_pair_1d

RT2 = np.sqrt(2.0)


GRID = Grid1D(0.0, 1.0, 24)


def wave_system(grid=GRID, **kwargs):
    return build_weiss_tucsnak_wave(WaveSpec(grid=grid, **kwargs))


def wave_operators(grid):
    """(pair, S0, S1, V) of the wave built on grid."""
    pair = build_sbp_pair_1d(grid)
    return pair, np.sqrt(pair.W0), np.sqrt(pair.W1), deflation_basis(pair)


def m1_block(sys, i, j):
    """The (i, j) block of M1 over the fine blocks (v, zeta, w, y)."""
    return sys.M1[sys.fine_slice(i), sys.fine_slice(j)]


def endpoint_sampler(sys):
    """The chain's endpoint sampler E, read off the (y, x1) block M32 E of
    M1 under the default M32 = sqrt(2) I."""
    return m1_block(sys, 3, 1) / RT2


def two_tone(t):
    return np.array([np.sin(2.1 * t), 0.4 * np.cos(1.3 * t)])


@st.composite
def lift_draws(draw):
    """(pair, u, x0, grid, scheme) for a Maxwell run: 2 to 64 cells on an
    interval of length 0.01 to 100, 1 to 50 steps up to t_end 10,
    boundary data in [-1, 1] and standard normal initial fields."""
    length = draw(st.floats(1e-2, 100.0))
    pair = build_sbp_pair_1d(Grid1D(0.0, length, draw(st.integers(2, 64))))
    tg = TimeGrid(t_end=draw(st.floats(1e-2, 10.0)), n_steps=draw(st.integers(1, 50)))
    u = draw(hnp.arrays(float, (tg.n_steps + 1, 2), elements=st.floats(-1.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x0 = (rng.standard_normal(pair.n_nodes), rng.standard_normal(pair.n_cells))
    return pair, u, x0, tg, draw(st.sampled_from(SCHEMES))


class TestDeflationBasis:
    def test_orthonormal_and_kills_scaled_constants(self):
        """V has orthonormal columns spanning the complement of S0 1."""
        pair = build_sbp_pair_1d(Grid1D(-1.0, 2.0, 17))
        V = deflation_basis(pair)
        assert V.shape == (pair.n_nodes, pair.n_nodes - 1)
        err = np.abs(V.T @ V - np.eye(pair.n_nodes - 1)).max()
        assert err < 1e-13, f"columns not orthonormal: {err:.2e}"
        s0 = np.sqrt(pair.W0)
        err = np.abs(V.T @ s0).max()
        assert err < 1e-13, f"scaled constant survives deflation: {err:.2e}"

    def test_gradient_restricted_to_basis_is_injective(self):
        """Ghat V is square with full rank, so the deflated F is injective."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 12))
        s0, s1 = np.sqrt(pair.W0), np.sqrt(pair.W1)
        Gv = ((pair.G / s0[None, :]) * s1[:, None]) @ deflation_basis(pair)
        assert Gv.shape == (12, 12)
        smin = np.linalg.svd(Gv, compute_uv=False)[-1]
        assert smin > 1e-3, f"deflated gradient nearly singular: {smin:.2e}"


class TestIndicators:
    def test_all_hyperbolic_covers_everything(self):
        grid = Grid1D(0.0, 1.0, 9)
        ind = all_hyperbolic_indicators(grid)
        assert ind["hyperbolic"][0].all() and ind["hyperbolic"][1].all()
        for label in ("parabolic", "elliptic"):
            assert not ind[label][0].any() and not ind[label][1].any()

    def test_three_regions_partition_and_split_side(self):
        """Every point lands in exactly one region; split points go right."""
        grid = Grid1D(0.0, 1.0, 6)
        ind = three_region_indicators(grid)
        node_count = sum(ind[label][0].astype(int) for label in ind)
        cell_count = sum(ind[label][1].astype(int) for label in ind)
        assert np.array_equal(node_count, np.ones(grid.n_nodes, dtype=int))
        assert np.array_equal(cell_count, np.ones(grid.n_cells, dtype=int))
        # node 2 sits at 1/3 exactly and belongs to the parabolic side
        assert ind["parabolic"][0][2] and not ind["hyperbolic"][0][2]
        assert ind["hyperbolic"][1][1] and ind["parabolic"][1][2]
        assert ind["elliptic"][1][4]

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            three_region_indicators(Grid1D(0.0, 1.0, 6), left=0.7, right=0.3)

    def test_wrong_keys_rejected(self):
        grid = Grid1D(0.0, 1.0, 6)
        ind = all_hyperbolic_indicators(grid)
        ind["dispersive"] = ind.pop("elliptic")
        with pytest.raises(ValueError, match="keys"):
            build_mixed_type_wave(WaveSpec(grid=grid), ind)

    def test_masks_of_the_wrong_shape_rejected(self):
        grid = Grid1D(0.0, 1.0, 6)
        ind = all_hyperbolic_indicators(grid)
        ind["hyperbolic"] = (ind["hyperbolic"][0][:-1], ind["hyperbolic"][1])
        with pytest.raises(ShapeMismatchError, match=re.escape(
                "indicator 'hyperbolic' must be boolean masks of shapes (7,) and (6,), "
                "got (6,) and (6,)")):
            build_mixed_type_wave(WaveSpec(grid=grid), ind)

    def test_overlap_and_gap_rejected(self):
        grid = Grid1D(0.0, 1.0, 6)
        ind = all_hyperbolic_indicators(grid)
        ind["elliptic"] = (ind["hyperbolic"][0].copy(), ind["elliptic"][1])
        with pytest.raises(ValueError, match="partition"):
            build_mixed_type_wave(WaveSpec(grid=grid), ind)
        gap = all_hyperbolic_indicators(grid)
        nodes = gap["hyperbolic"][0].copy()
        nodes[3] = False
        gap["hyperbolic"] = (nodes, gap["hyperbolic"][1])
        with pytest.raises(ValueError, match="partition"):
            build_mixed_type_wave(WaveSpec(grid=grid), gap)


class TestWaveBuilder:
    def test_constant_blocks_exactly_as_written(self):
        """M0, the lower M1 rows, and B carry the exact constants."""
        sys = wave_system()
        n_v, n_zeta, n_w, n_y = sys.fine_sizes
        assert (n_w, n_y) == (2, 2)
        M0 = np.zeros((sys.dim, sys.dim), dtype=complex)
        M0[sys.fine_slice(0), sys.fine_slice(0)] = np.eye(n_v)
        M0[sys.fine_slice(1), sys.fine_slice(1)] = np.eye(n_zeta)
        assert np.array_equal(sys.M0, M0)
        M1 = np.zeros((sys.dim, sys.dim), dtype=complex)
        M1[sys.fine_slice(2), sys.fine_slice(2)] = np.eye(2)
        M1[sys.fine_slice(3), sys.fine_slice(2)] = RT2 * np.eye(2)
        M1[sys.fine_slice(3), sys.fine_slice(3)] = np.eye(2)
        assert np.array_equal(sys.M1, M1)
        assert np.array_equal(sys.B2, -np.eye(2).astype(complex))
        assert np.array_equal(sys.B1[-2:], -RT2 * np.eye(2).astype(complex))
        assert not sys.B0.any() and not sys.B1[:-2].any()

    @pytest.mark.parametrize("mode,energy", [(1, 0.047378), (2, 0.25), (3, 0.227505)])
    def test_initial_energy_drops_the_mean_of_the_velocity(self, mode, energy):
        """The velocity block stores V^H S0 z1, which drops the W0-weighted
        mean of z1: E(x0) = (1/2) |z1 - mean|^2_W0 on wave-wt at 128 cells,
        against (1/2) |z1|^2_W0 = 0.25 for every mode."""
        grid = Grid1D(0.0, 1.0, 128)
        z1 = np.sin(mode * np.pi * grid.nodes())
        sys = build_weiss_tucsnak_wave(WaveSpec(grid=grid, z1=z1))
        W0 = build_sbp_pair_1d(grid).W0
        kept = z1 - (W0 * z1).sum() / W0.sum()
        expected = 0.5 * (W0 * kept ** 2).sum()
        stored = 0.5 * np.vdot(sys.x0, sys.M0 @ sys.x0).real
        assert abs(stored - expected) <= 1e-14 * expected
        assert round(stored, 6) == energy
        assert 0.5 * (W0 * z1 ** 2).sum() == pytest.approx(0.25, rel=1e-14)

    def test_compatibility_defects_vanish_exactly(self):
        """The default control columns satisfy both conditions exactly."""
        d0, d1 = check_compatibility(wave_system())
        assert d0 == 0.0 and d1 == 0.0, f"defects ({d0:.2e}, {d1:.2e})"

    def test_wellposedness_constant(self):
        """The damping bound is min(nu, 1 - 1/sqrt(2)) for large nu."""
        sys = wave_system()
        rep = check_wellposed(sys.M0, sys.M1, nu_max=4.0)
        assert rep.ok
        err = abs(rep.c - (1.0 - 1.0 / RT2))
        assert err < 1e-8, f"damping constant off: {err:.2e}"

    def test_dual_coupling_chain(self, dual_map):
        """C^H equals V^H S0 times the physical dual coupling map."""
        sys = wave_system()
        _, s0, _, V = wave_operators(GRID)
        chain = V.conj().T @ (s0[:, None] * dual_map(GRID))
        err = np.abs(sys.Cmat.conj().T - chain).max()
        assert err < 1e-12, f"dual coupling chain broken: {err:.2e}"

    def test_gradient_part_is_the_deflated_gradient(self):
        """Gmat is the real product S1 G S0^-1 V, bit for bit."""
        grid = Grid1D(0.0, 1.0, 192)
        sys = wave_system(grid)
        pair, s0, s1, V = wave_operators(grid)
        ghat = (pair.G / s0[None, :]) * s1[:, None]
        assert sys.Gmat.dtype == np.float64
        assert np.array_equal(sys.Gmat, ghat @ V)

    def test_coupling_is_the_scaled_boundary_coordinate_map(self):
        """Cmat is -P_G S0^-1 V with P_G the node-side coordinate map, bit
        for bit: w holds node-side boundary coordinates as they are."""
        grid = Grid1D(0.0, 1.0, 192)
        sys = wave_system(grid)
        pair, s0, _, V = wave_operators(grid)
        bdG = compute_bd_space(pair, "G")
        assert np.array_equal(sys.Cmat, -(bdG.projector @ (V / s0[:, None])))

    def test_dual_coupling_supported_on_boundary(self, dual_map):
        """The physical dual coupling vanishes at interior nodes."""
        err = np.abs(dual_map(GRID)[1:-1]).max()
        assert err < 1e-12, f"interior support: {err:.2e}"

    def test_adjoint_through_physical_operators(self, dual_map):
        """F^H agrees with the minimal divergence plus dual coupling route.

        For (zeta, w) the adjoint must act as V^H S0 (div_min zeta_phys
        + Cdual w); the assembled blocks realize this through entirely
        different formulas (scaled gradient transpose, node-side
        boundary coordinates).
        """
        sys = wave_system()
        cdual = dual_map(GRID)
        pair, s0, s1, V = wave_operators(GRID)
        div_min = pair.minimal_div()
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            zeta = rng.standard_normal(pair.n_cells) + 1j * rng.standard_normal(pair.n_cells)
            w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assembled = -sys.Gmat.conj().T @ zeta + sys.Cmat.conj().T @ w
            physical = V.conj().T @ (s0 * (div_min @ (zeta / s1) + cdual @ w))
            worst = max(worst, np.abs(assembled - physical).max())
        assert worst < 1e-10, f"adjoint routes disagree: {worst:.2e}"

    def test_initial_data_mapping(self):
        """z1 loses only its weighted mean; z0 maps onto the flux block."""
        grid = Grid1D(0.0, 1.0, 20)
        pair = build_sbp_pair_1d(grid)
        x = grid.nodes()
        z1 = 1.0 + x
        z0 = np.cos(np.pi * grid.cells())
        sys = build_weiss_tucsnak_wave(WaveSpec(grid=grid, z1=z1, z0=z0))
        _, s0, s1, V = wave_operators(grid)
        v_phys = (V @ sys.x0[sys.fine_slice(0)]) / s0
        mean = (pair.W0 * z1).sum() / pair.W0.sum()
        err = np.abs(v_phys - (z1 - mean)).max()
        assert err < 1e-12, f"velocity initial data mangled: {err:.2e}"
        err = np.abs(sys.x0[sys.fine_slice(1)] - s1 * z0).max()
        assert err < 1e-10, f"flux initial data mangled: {err:.2e}"
        assert not sys.x0[sys.fine_slice(2)].any()
        assert not sys.x0[sys.fine_slice(3)].any()

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_boundary_relations_hold_along_runs(self, scheme):
        """w + Cv = -sqrt(2) u and w = Cv - sqrt(2) y at scheme states."""
        sys = wave_system()
        tg = TimeGrid(t_end=1.0, n_steps=200, nu=1.0)
        traj = solve(sys, sys.x0, two_tone, tg, scheme)
        us = traj.inputs
        worst = 0.0
        for k, x in enumerate(traj.x_theta(0, tg.n_steps)):
            v = x[sys.fine_slice(0)]
            w = x[sys.fine_slice(2)]
            y = x[sys.fine_slice(3)]
            cv = sys.Cmat @ v
            worst = max(worst, np.abs(w + cv + RT2 * us[k]).max())
            worst = max(worst, np.abs(w - cv + RT2 * y).max())
        assert worst < 1e-10, f"boundary relations violated: {worst:.2e}"
        io = extract_io(sys, traj)
        assert io.max_deviation < 1e-10, \
            f"io recovery deviates: {io.max_deviation:.2e}"

    def test_conservation_identity_midpoint(self):
        """E(a) - E(b) equals the integral of |y|^2/2 - |u|^2/2.

        Measured after the Euler start-up step that the singular M0
        forces on midpoint runs.
        """
        sys = wave_system()
        tg = TimeGrid(t_end=2.0, n_steps=400, nu=1.0)
        traj = solve(sys, sys.x0, two_tone, tg, "implicit_midpoint")
        us = traj.inputs
        flux = 0.0
        for k, x in enumerate(traj.x_theta(0, tg.n_steps)):
            if k < traj.n_euler_init_steps:
                continue
            y = x[sys.fine_slice(3)]
            flux += tg.tau * (0.5 * np.vdot(y, y).real
                              - 0.5 * np.vdot(us[k], us[k]).real)

        def stored(i):
            return 0.5 * np.vdot(traj.states[i], sys.M0 @ traj.states[i]).real

        start = traj.n_euler_init_steps
        err = abs(stored(start) - stored(tg.n_steps) - flux)
        assert err < 1e-9, f"conservation identity broken: {err:.2e}"

    def test_ledger_forms_agree(self):
        """The w-resolved quadrature matches the reduced |y|, |u| form.

        The dissipation-minus-supply quadrature of the ledger carries
        |w|^2 + sqrt(2) Re<w|y> + |y|^2 - |u|^2; substituting the w-row
        relation w = -(y + u)/sqrt(2) collapses it to |y|^2/2 - |u|^2/2.
        """
        sys = wave_system()
        tg = TimeGrid(t_end=1.5, n_steps=300, nu=1.0)
        traj = solve(sys, sys.x0, two_tone, tg, "implicit_midpoint")
        led = energy_ledger(sys, traj, a=tg.times()[1])
        us = traj.inputs
        full = reduced = 0.0
        worst = 0.0
        for k, x in enumerate(traj.x_theta(0, tg.n_steps)):
            if k < traj.n_euler_init_steps:
                continue
            w = x[sys.fine_slice(2)]
            y = x[sys.fine_slice(3)]
            u = us[k]
            worst = max(worst, np.abs(w + (y + u) / RT2).max())
            full += tg.tau * (np.vdot(w, w).real + RT2 * np.vdot(w, y).real
                              + np.vdot(y, y).real - np.vdot(u, u).real)
            reduced += tg.tau * 0.5 * (np.vdot(y, y).real - np.vdot(u, u).real)
        assert worst < 1e-10, f"w-row substitution violated: {worst:.2e}"
        assert abs(full - reduced) < 1e-10, \
            f"quadrature forms disagree: {abs(full - reduced):.2e}"
        assert abs(led.stored_drop - reduced) < 1e-10, \
            f"ledger drop off the reduced form: {abs(led.stored_drop - reduced):.2e}"
        assert abs(led.defect) < 1e-11, f"ledger defect: {led.defect:.2e}"

    def test_bad_shapes_rejected(self):
        grid = Grid1D(0.0, 1.0, 8)
        with pytest.raises(ShapeMismatchError):
            build_weiss_tucsnak_wave(WaveSpec(grid=grid, z1=np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            build_weiss_tucsnak_wave(WaveSpec(grid=grid, z0=np.zeros(9)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n_cells,b", [(4, 4e-140), (16, 1.6e-139), (64, 6.4e-139),
                                           (2, 3.2e-154), (4, 6.4e-154), (16, 1e-3)])
    def test_grid_whose_transport_is_not_unitary_is_refused(self, n_cells, b):
        """On cells of width 1e-140, and at the Grid1D bound, roundoff swamps
        the boundary spaces: the transport's round trips leave float64 or
        the cell side loses a dimension, so node-side coordinates would not
        be control coordinates.  On [0, 1e-3] they miss the identity by
        7.8e-8.  Both builders and the boundary equation check refuse the
        grid, naming h, without a numpy warning; the check is handed a wave
        of the same size on [0, 1]."""
        grid = Grid1D(0.0, b, n_cells)
        fitting = wave_system(Grid1D(0.0, 1.0, n_cells))
        refusal = (r"^the boundary data transport is not unitary: its round trips miss the "
                   r"identity by \S+ \(bound 1e-08\) on a cell width h = \(b - a\)/n_cells = "
                   rf"{grid.h:.3e} on \[0.0, {b}\] with {n_cells} cells$")
        for check in (lambda: build_weiss_tucsnak_wave(WaveSpec(grid=grid)),
                      lambda: build_mixed_type_wave(WaveSpec(grid=grid),
                                                    three_region_indicators(grid)),
                      lambda: boundary_equation_defect(fitting, None, grid)):
            with pytest.raises(InvalidGridError, match=refusal):
                check()

    def test_transport_within_the_kernel_cutoff_builds(self, dual_map):
        """On [0, 1e-2] with 16 cells the round trip misses the identity by
        about 1e-10, and the wave builds with a finite dual map."""
        grid = Grid1D(0.0, 1e-2, 16)
        sys = build_weiss_tucsnak_wave(WaveSpec(grid=grid))
        assert np.isfinite(sys.Cmat).all()
        assert np.isfinite(dual_map(grid)).all()


class TestMixedTypeWave:
    def test_all_hyperbolic_matches_wave_preset_bitwise(self):
        """The purely hyperbolic indicators rebuild the wave matrices."""
        grid = Grid1D(0.0, 1.0, 18)
        spec = WaveSpec(grid=grid)
        a = build_weiss_tucsnak_wave(spec)
        b = build_mixed_type_wave(spec, all_hyperbolic_indicators(grid))
        for name in ("M0", "M1", "A", "B0", "B1", "B2", "x0"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_all_parabolic_decays_monotonically(self):
        """With every point parabolic the closed run is a heat equation."""
        grid = Grid1D(0.0, 1.0, 20)
        ind = {label: (np.zeros(grid.n_nodes, bool), np.zeros(grid.n_cells, bool))
               for label in ("hyperbolic", "parabolic", "elliptic")}
        ind["parabolic"] = (np.ones(grid.n_nodes, bool), np.ones(grid.n_cells, bool))
        z1 = np.sin(2 * np.pi * grid.nodes()) + 0.3
        sys = build_mixed_type_wave(WaveSpec(grid=grid, z1=z1), ind)
        assert not sys.M0[sys.fine_slice(1), sys.fine_slice(1)].any()
        tg = TimeGrid(t_end=0.5, n_steps=100, nu=1.0)
        traj = solve(sys, sys.x0, None, tg, "backward_euler")
        energies = 0.5 * np.einsum("ki,ij,kj->k", traj.states.conj(),
                                   sys.M0, traj.states).real
        diffs = np.diff(energies)
        assert (diffs <= 1e-12).all(), f"energy grew by {diffs.max():.2e}"
        assert energies[-1] < 0.9 * energies[0], "no visible decay"

    def test_three_region_wellposed_and_ledger(self):
        """The split system keeps the constant damping bound and a clean
        midpoint ledger."""
        grid = Grid1D(0.0, 1.0, 24)
        sys = build_mixed_type_wave(WaveSpec(grid=grid),
                                    three_region_indicators(grid))
        rep = check_wellposed(sys.M0, sys.M1, nu_max=4.0)
        assert rep.ok
        err = abs(rep.c - (1.0 - 1.0 / RT2))
        assert err < 1e-8, f"damping constant off: {err:.2e}"
        tg = TimeGrid(t_end=1.0, n_steps=250, nu=1.0)
        traj = solve(sys, sys.x0, two_tone, tg, "implicit_midpoint")
        led = energy_ledger(sys, traj, a=tg.times()[1])
        assert abs(led.defect) < 1e-9, f"mixed ledger defect: {led.defect:.2e}"

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_elliptic_residual_vanishes_at_scheme_states(self, scheme, dual_map):
        """v = div grad v holds on interior elliptic nodes along runs.

        Eligible nodes are elliptic with both neighboring cells elliptic,
        so the flux rows there read zeta = grad v and the divergence row
        carries no boundary pairing.  The deflation fixes the velocity rows
        only up to a shared constant, so the residual is measured after
        removing its mean over the eligible nodes."""
        grid = Grid1D(0.0, 1.0, 30)
        indicators = three_region_indicators(grid)
        sys = build_mixed_type_wave(WaveSpec(grid=grid), indicators)
        tg = TimeGrid(t_end=1.0, n_steps=150, nu=1.0)
        traj = solve(sys, sys.x0, two_tone, tg, scheme)
        off = sys.fine_offsets()
        pair, s0, s1, V = wave_operators(grid)
        cdual = dual_map(grid)
        nm_e, cm_e = indicators["elliptic"]
        inner = np.arange(1, pair.n_nodes - 1)
        inner = inner[nm_e[inner] & cm_e[inner - 1] & cm_e[inner]]
        assert inner.size > 0
        res = []
        for x in traj.x_theta(0, tg.n_steps):
            r = ((V @ x[off[0]:off[1]]) / s0
                 - pair.minimal_div() @ (x[off[1]:off[2]] / s1)
                 - cdual @ x[off[2]:off[3]])[inner]
            res.append(np.abs(r - r.mean()).max())
        assert max(res) < 1e-10, f"elliptic residual: {max(res):.2e}"


@pytest.fixture(scope="module")
def operators():
    """The grad/div pair on 16 cells of [0, 1], its boundary spaces and the
    physical dual map."""
    pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 16))
    bdG = compute_bd_space(pair, "G")
    bdD = compute_bd_space(pair, "D")
    return pair, bdG, bdD, -dual_projection(bdG, bdD, pair)


class TestBoundaryEquationDefect:
    def build_system(self, operators, couple=True):
        pair, bdG, _, cdual_phys = operators
        n_nodes, n_cells = pair.n_nodes, pair.grid.n_cells
        part = BlockPartition(n_h0=n_nodes, n_h1=n_cells + 2, n_y=2, n_u1=2)
        M0b = [[None] * 4 for _ in range(4)]
        M0b[0][0] = 1.0
        M0b[1][1] = 1.0
        M1b = [[None] * 4 for _ in range(4)]
        M1b[2][2] = 1.0
        M1b[3][2] = RT2
        M1b[3][3] = 1.0
        cmat = -bdG.projector @ np.diag(1.0 / np.sqrt(pair.W0)) if couple else None
        ghat = (pair.G / np.sqrt(pair.W0)[None, :]) * np.sqrt(pair.W1)[:, None]
        B1 = np.vstack([np.zeros((n_cells, 2)), -RT2 * np.eye(2)])
        return assemble_control(
            part, M0b, M1b, ghat, cmat, (None, B1, -np.eye(2)), n_w=2,
        )

    def constant_trajectory(self, sys, x, n_steps=3):
        grid = TimeGrid(t_end=1.0, n_steps=n_steps)
        states = np.tile(x, (n_steps + 1, 1))
        inputs = np.zeros((n_steps, sys.partition.n_u1), dtype=complex)
        return Trajectory(grid=grid, states=states, inputs=inputs,
                          scheme="backward_euler")

    def test_manufactured_state_has_zero_defect(self, operators):
        """A flux built from the least-squares lift satisfies the equation."""
        pair, _, _, cdual_phys = operators
        rng = np.random.default_rng(51)
        sys = self.build_system(operators)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lift = np.linalg.lstsq(pair.minimal_div(), cdual_phys @ w, rcond=1e-10)[0]
        x = np.zeros(sys.dim, dtype=complex)
        x[sys.fine_slice(1)] = np.sqrt(pair.W1) * (-lift)
        x[sys.fine_slice(2)] = w
        defects = boundary_equation_defect(sys, self.constant_trajectory(sys, x), pair.grid)
        assert defects.shape == (4,)
        assert defects.max() < 1e-12, f"manufactured defect {defects.max():.2e}"

    def test_defect_ignores_invisible_flux_components(self, operators):
        """Adding a flux from the boundary pairing's kernel changes nothing."""
        pair, _, _, cdual_phys = operators
        rng = np.random.default_rng(52)
        sys = self.build_system(operators)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lift = np.linalg.lstsq(pair.minimal_div(), cdual_phys @ w, rcond=1e-10)[0]
        from scipy.linalg import null_space

        kernel = null_space(pair.T)
        z = kernel @ (rng.standard_normal(kernel.shape[1])
                      + 1j * rng.standard_normal(kernel.shape[1]))
        x = np.zeros(sys.dim, dtype=complex)
        x[sys.fine_slice(1)] = np.sqrt(pair.W1) * (z - lift)
        x[sys.fine_slice(2)] = w
        defects = boundary_equation_defect(sys, self.constant_trajectory(sys, x), pair.grid)
        assert defects.max() < 1e-10, f"kernel flux leaked {defects.max():.2e}"

    def test_zero_boundary_values_need_kernel_flux_only(self, operators):
        """With w = 0 the defect is the boundary content of the flux alone."""
        pair = operators[0]
        rng = np.random.default_rng(53)
        sys = self.build_system(operators)
        from scipy.linalg import null_space

        kernel = null_space(pair.T)
        z = kernel @ rng.standard_normal(kernel.shape[1])
        x = np.zeros(sys.dim, dtype=complex)
        x[sys.fine_slice(1)] = np.sqrt(pair.W1) * z
        defects = boundary_equation_defect(sys, self.constant_trajectory(sys, x), pair.grid)
        assert defects.max() < 1e-10, f"kernel-only flux defect {defects.max():.2e}"

    def test_boundary_heavy_flux_is_flagged(self, operators):
        """A flux with boundary content produces an order-one defect."""
        pair, _, bdD, _ = operators
        sys = self.build_system(operators)
        x = np.zeros(sys.dim, dtype=complex)
        x[sys.fine_slice(1)] = np.sqrt(pair.W1) * bdD.basis[:, 0]
        defects = boundary_equation_defect(sys, self.constant_trajectory(sys, x), pair.grid)
        assert defects.max() > 0.1, f"boundary flux went unnoticed {defects.max():.2e}"

    def test_matches_a_least_squares_solve_per_state(self, operators):
        """The defect of every state of a random trajectory agrees with one
        least-squares solve per state, the lift of its own w."""
        pair, _, bdD, cdual_phys = operators
        rng = np.random.default_rng(54)
        sys = self.build_system(operators)
        states = rng.standard_normal((8, sys.dim)) + 1j * rng.standard_normal((8, sys.dim))
        traj = Trajectory(grid=TimeGrid(t_end=1.0, n_steps=7), states=states,
                          inputs=np.zeros((7, 2)), scheme="backward_euler")
        reference = np.array([np.linalg.norm(bdD.projector @ (
            x[sys.fine_slice(1)] / np.sqrt(pair.W1)
            + np.linalg.lstsq(pair.minimal_div(), cdual_phys @ x[sys.fine_slice(2)],
                              rcond=1e-10)[0])) for x in states])
        err = np.abs(boundary_equation_defect(sys, traj, pair.grid) - reference).max()
        assert err <= 1e-13 * max(1.0, reference.max()), f"off the per-state solve by {err:.2e}"

    def test_refuses_a_grid_with_another_number_of_cells(self, operators):
        """A grid of 8 cells has the wave's 2-dimensional boundary space but
        not its 16-cell flux block, and the refusal names both sizes."""
        sys = self.build_system(operators)
        traj = self.constant_trajectory(sys, np.zeros(sys.dim))
        with pytest.raises(ShapeMismatchError,
                           match=r"^the grid has 8 cells, the system's flux block 16$"):
            boundary_equation_defect(sys, traj, Grid1D(0.0, 1.0, 8))

    def test_refuses_on_the_chain(self):
        """The chain eliminates w, so its n_w = 0 does not fit the grid's
        2-dimensional boundary space, and the refusal names both sizes."""
        grid = Grid1D(0.0, 1.0, 4)
        sys = build_port_hamiltonian(PortHamiltonianSpec(grid=grid, Nmat=[[1.0]]))
        traj = solve(sys, sys.x0, None, TimeGrid(t_end=1.0, n_steps=2), "backward_euler")
        with pytest.raises(ShapeMismatchError, match=r"^the grid's boundary space has "
                           r"dimension 2, the system's n_w is 0$"):
            boundary_equation_defect(sys, traj, grid)

    def test_refuses_without_coupling(self, operators):
        sys = self.build_system(operators, couple=False)
        x = np.zeros(sys.dim, dtype=complex)
        with pytest.raises(HypothesisViolationError, match="coupling"):
            boundary_equation_defect(sys, self.constant_trajectory(sys, x), operators[0].grid)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_falls_at_first_order_from_compatible_data(self, scheme):
        """From sin(2 pi x), whose mean is 0 so the deflation drops nothing,
        wave-wt runs 400 steps to t = 1 with zero input.  The largest defect
        over the run reads 7.90e-2, 3.45e-2, 1.63e-2 (midpoint) and 7.67e-2,
        3.23e-2, 1.44e-2 (backward Euler) on 16, 32 and 64 cells: each
        halving of h divides it by 2.11 to 2.37, so it measures first-order
        discretisation error.

        Not covered: from sin(pi x) the step-1 value stays at 0.62, 0.58,
        0.52 and 0.39 on 16 to 128 cells, the jump of the dropped velocity
        mean, and wave-mixed from sin(2 pi x) does not converge (0.52, 0.46,
        0.39 on 16 to 64 cells)."""
        largest = []
        for n_cells in (16, 32, 64):
            grid = Grid1D(0.0, 1.0, n_cells)
            sys = wave_system(grid, z1=np.sin(2 * np.pi * grid.nodes()))
            traj = solve(sys, sys.x0, None, TimeGrid(t_end=1.0, n_steps=400), scheme)
            largest.append(boundary_equation_defect(sys, traj, grid).max())
        ratios = np.array(largest[:-1]) / np.array(largest[1:])
        assert (ratios >= 1.8).all(), f"defects {largest} fall by {ratios}"


class TestPortHamiltonian:
    def test_dual_rows_are_exactly_maximal(self):
        """The x0-rows of A reduce to -kron(N^H, Ghat): the endpoint
        substitution cancels the boundary pairing of the dual derivative."""
        grid = Grid1D(0.0, 1.0, 16)
        pair = build_sbp_pair_1d(grid)
        s0, s1 = np.sqrt(pair.W0), np.sqrt(pair.W1)
        N = np.array([[1.0, 0.5], [-0.25, 2.0]])
        sys = build_port_hamiltonian(PortHamiltonianSpec(grid=grid, Nmat=N))
        Ghat = (pair.G / s0[None, :]) * s1[:, None]
        block = sys.A[sys.fine_slice(0), sys.fine_slice(1)]
        err = np.abs(block + np.kron(N.conj().T, Ghat)).max()
        scale = np.abs(Ghat).max()
        assert err < 1e-12 * scale, f"boundary terms survive in x0-rows: {err:.2e}"

    def test_default_compatibility_exact(self):
        sys = build_port_hamiltonian(
            PortHamiltonianSpec(grid=Grid1D(0.0, 1.0, 12), Nmat=[[1.0]]))
        d0, d1 = check_compatibility(sys)
        assert d0 < 1e-12 and d1 < 1e-12, f"defects ({d0:.2e}, {d1:.2e})"

    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    def test_endpoint_values_match_recovered_w(self, scheme):
        """x1's endpoint samples equal the w recovered from the y-rows,
        w = M32^-1 (B2 u - M33 y), at every scheme-consistent state."""
        grid = Grid1D(0.0, 1.0, 20)
        sys = build_port_hamiltonian(
            PortHamiltonianSpec(grid=grid, Nmat=[[1.0]]))
        tg = TimeGrid(t_end=1.5, n_steps=300, nu=1.0)
        u = lambda t: np.array([np.sin(1.7 * t), 0.3 * np.cos(2.4 * t)])
        traj = solve(sys, sys.x0, u, tg, scheme)
        E, M33, off = endpoint_sampler(sys), m1_block(sys, 3, 3), sys.fine_offsets()
        defects = [np.abs(E @ x[off[1]:off[2]] - np.linalg.solve(
            RT2 * np.eye(2), sys.B2 @ u_k - M33 @ x[off[3]:off[4]])).max()
            for x, u_k in zip(traj.x_theta(0, tg.n_steps), traj.inputs)]
        assert max(defects) < 1e-9, f"endpoint coupling broken: {max(defects):.2e}"

    def test_recovered_w_is_physical_endpoint_value(self):
        """The sampler really reads x1 at (b, a) in physical units."""
        grid = Grid1D(0.0, 1.0, 10)
        sys = build_port_hamiltonian(PortHamiltonianSpec(grid=grid, Nmat=[[1.0]]))
        rng = np.random.default_rng(11)
        x1_phys = rng.standard_normal(grid.n_nodes)
        s0 = np.sqrt(build_sbp_pair_1d(grid).W0)
        sample = endpoint_sampler(sys) @ (s0 * x1_phys)
        err = np.abs(sample - np.array([x1_phys[-1], x1_phys[0]])).max()
        assert err < 1e-13, f"sampler is not nodal evaluation: {err:.2e}"

    def test_closed_chain_energy_never_grows(self):
        """With zero control columns the damped chain dissipates."""
        grid = Grid1D(0.0, 1.0, 16)
        zero = np.zeros((2, 2))
        rng = np.random.default_rng(5)
        spec = PortHamiltonianSpec(
            grid=grid, Nmat=[[1.0]],
            M1_lower=(np.eye(2), zero, zero, np.eye(2)),
            B1=zero, B2=zero,
            xi0=rng.standard_normal((1, grid.n_cells)),
            xi1=rng.standard_normal((1, grid.n_nodes)),
        )
        sys = build_port_hamiltonian(spec)
        assert check_compatibility(sys) == (0.0, 0.0)
        tg = TimeGrid(t_end=1.0, n_steps=200, nu=1.0)
        traj = solve(sys, sys.x0, None, tg, "backward_euler")
        energies = 0.5 * np.einsum("ki,ij,kj->k", traj.states.conj(),
                                   sys.M0, traj.states).real
        diffs = np.diff(energies)
        assert (diffs <= 1e-12).all(), f"energy grew by {diffs.max():.2e}"

    def test_stored_energy_with_uniform_density(self):
        """H = 2 halves M0, so E(0) = (|xi0|_W1^2 + |xi1|_W0^2) / 4."""
        grid = Grid1D(0.0, 1.0, 14)
        pair = build_sbp_pair_1d(grid)
        rng = np.random.default_rng(7)
        xi0 = rng.standard_normal((1, pair.n_cells))
        xi1 = rng.standard_normal((1, pair.n_nodes))
        sys = build_port_hamiltonian(PortHamiltonianSpec(
            grid=grid, Nmat=[[1.0]], Hfun=lambda x: 2.0 * np.eye(2),
            xi0=xi0, xi1=xi1))
        stored = 0.5 * np.vdot(sys.x0, sys.M0 @ sys.x0).real
        ref = 0.25 * ((pair.W1 * np.abs(xi0[0]) ** 2).sum()
                      + (pair.W0 * np.abs(xi1[0]) ** 2).sum())
        err = abs(stored - ref)
        assert err < 1e-12 * max(1.0, ref), f"stored energy off: {err:.2e}"

    def test_variable_density_enters_pointwise(self):
        """A scalar density multiplies M0 by its pointwise reciprocal."""
        grid = Grid1D(0.0, 1.0, 12)
        dens = lambda x: (2.0 + np.sin(3.0 * x)) * np.eye(2)
        sys = build_port_hamiltonian(PortHamiltonianSpec(
            grid=grid, Nmat=[[1.0]], Hfun=dens))
        m00 = np.diagonal(sys.M0)[:grid.n_cells].real
        ref = 1.0 / (2.0 + np.sin(3.0 * grid.cells()))
        err = np.abs(m00 - ref).max()
        assert err < 1e-14, f"pointwise density lost: {err:.2e}"

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_pointwise_operator_places_diagonal_blocks(self, dtype):
        """Block (i, j) of the stacked operator is diag(vals[:, i, j]), bitwise."""
        rng = np.random.default_rng(12)
        vals = rng.standard_normal((7, 3, 3)) + (dtype is complex) * 1j * rng.standard_normal(
            (7, 3, 3))
        reference = np.zeros((21, 21), dtype=vals.dtype)
        for i in range(3):
            for j in range(3):
                reference[7 * i:7 * (i + 1), 7 * j:7 * (j + 1)] = np.diag(vals[:, i, j])
        out = models._pointwise_operator(vals)
        assert out.dtype == vals.dtype and np.array_equal(out, reference)

    def test_indefinite_density_rejected(self):
        bad = lambda x: np.diag([1.0, 2.0 * x - 1.0])
        with pytest.raises(PositivityError):
            build_port_hamiltonian(PortHamiltonianSpec(
                grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0]], Hfun=bad))

    def test_nan_density_refused_at_its_point(self):
        """A NaN density passes no selfadjointness test; the refusal names
        the first point where it appears."""
        bad = lambda x: np.diag([1.0, np.nan if x > 0.5 else 1.0])
        with pytest.raises(HypothesisViolationError,
                           match="density at x = 0.5625 is not selfadjoint"):
            build_port_hamiltonian(PortHamiltonianSpec(
                grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0]], Hfun=bad))

    def test_cross_group_density_rejected(self):
        """Densities coupling the cell and node groups have no pointwise
        realization on the staggered grid."""
        bad = lambda x: np.array([[2.0, 0.5], [0.5, 2.0]])
        with pytest.raises(ValueError, match="block-diagonal|groups"):
            build_port_hamiltonian(PortHamiltonianSpec(
                grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0]], Hfun=bad))

    def test_cross_group_p0_rejected(self):
        with pytest.raises(ValueError, match="groups"):
            build_port_hamiltonian(PortHamiltonianSpec(
                grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0]],
                P0=np.array([[0.0, 1.0], [-1.0, 0.0]])))

    def test_p0_folds_into_damping_blocks(self):
        """Block-diagonal P0 lands as -P0 kron identity per group."""
        grid = Grid1D(0.0, 1.0, 8)
        base = build_port_hamiltonian(PortHamiltonianSpec(grid=grid, Nmat=[[1.0]]))
        shifted = build_port_hamiltonian(PortHamiltonianSpec(
            grid=grid, Nmat=[[1.0]], P0=np.diag([0.3, -0.2])))
        err = np.abs(m1_block(shifted, 0, 0) + 0.3 * np.eye(grid.n_cells)).max()
        assert err < 1e-14, f"cell-group P0 misfolded: {err:.2e}"
        delta = m1_block(shifted, 1, 1) - m1_block(base, 1, 1)
        err = np.abs(delta - 0.2 * np.eye(grid.n_nodes)).max()
        assert err < 1e-12, f"node-group P0 misfolded: {err:.2e}"

    def test_boundary_damping_m23_couples_x1_to_y(self):
        """A nonzero M23 enters M1 as the (x1, y) block E^H M23; the default
        B1 stays compatible and every step of both schemes closes."""
        grid = Grid1D(0.0, 1.0, 8)
        eye = np.eye(2)
        sys = build_port_hamiltonian(PortHamiltonianSpec(
            grid=grid, Nmat=[[1.0]], M1_lower=(eye, 0.1 * eye, RT2 * eye, eye),
            xi1=np.sin(np.pi * grid.nodes())[None, :]))
        # the builder's endpoint sampler: 1/S0 at b, then at a
        s0 = np.sqrt(build_sbp_pair_1d(grid).W0)
        E = np.zeros((2, grid.n_nodes))
        E[0, -1], E[1, 0] = 1.0 / s0[-1], 1.0 / s0[0]
        block = m1_block(sys, 1, 3)
        assert np.array_equal(block, E.conj().T @ (0.1 * eye))
        assert np.abs(block).max() == 0.4
        assert check_compatibility(sys) == (0.0, 0.0)
        for scheme in SCHEMES:
            traj = solve(sys, sys.x0, two_tone, TimeGrid(t_end=1.0, n_steps=40), scheme)
            steps = step_ledger(sys, traj)
            drop = steps.energy[:-1] - steps.energy[1:]
            residual = drop - (steps.dissipation - steps.supply) - steps.correction
            assert np.abs(residual).max() <= 1e-14 * max(1.0, steps.energy.max()), scheme

    def test_indefinite_lower_block_warns(self):
        spec = PortHamiltonianSpec(
            grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0]],
            M1_lower=(-np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)),
            B1=np.zeros((2, 2)), B2=np.zeros((2, 2)))
        with pytest.warns(RuntimeWarning, match="damping"):
            build_port_hamiltonian(spec)

    def test_non_square_nmat_rejected(self):
        with pytest.raises(ShapeMismatchError,
                           match=re.escape("Nmat must be square, got shape (1, 2)")):
            PortHamiltonianSpec(grid=Grid1D(0.0, 1.0, 8), Nmat=[[1.0, 2.0]])

    def test_singular_nmat_rejected(self):
        with pytest.raises(HypothesisViolationError):
            PortHamiltonianSpec(grid=Grid1D(0.0, 1.0, 8),
                                Nmat=[[1.0, 1.0], [1.0, 1.0]])


class TestMaxwellLift:
    def setup_method(self):
        self.grid = Grid1D(0.0, 1.0, 32)
        self.pair = build_sbp_pair_1d(self.grid)
        rng = np.random.default_rng(3)
        self.E0 = rng.standard_normal(self.pair.n_nodes)
        self.H0 = rng.standard_normal(self.pair.n_cells)

    def gap(self, n_steps, u_fun, scheme="backward_euler"):
        tg = TimeGrid(t_end=1.0, n_steps=n_steps, nu=1.0)
        u = None if u_fun is None else \
            np.stack([u_fun(t) for t in tg.times()])
        res = maxwell_lift_solve(self.pair, None, None, u,
                                 (self.E0, self.H0), tg, scheme)
        assert isinstance(res, MaxwellLiftResult)
        return np.abs(res.lifted.states - res.direct.states).max()

    def test_zero_data_routes_identical(self):
        """Without boundary data the two routes are the same recursion."""
        gap = self.gap(100, None)
        assert gap < 1e-12, f"zero-data routes split: {gap:.2e}"

    def test_constant_data_routes_agree(self):
        """Constant data kills the derivative source, so the routes are
        algebraically equivalent step by step."""
        gap = self.gap(100, lambda t: np.array([0.7, -0.3]))
        assert gap < 1e-10, f"constant-data routes split: {gap:.2e}"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_routes_agree_to_roundoff_for_any_data(self, scheme):
        """The shift is taken at the step's own u_theta and difference
        quotient, so the theta-step commutes with it: zero, constant and
        time-varying data all give routes equal to roundoff."""
        data = {
            "zero": None,
            "constant": lambda t: np.array([0.7, -0.3]),
            "varying": lambda t: np.array([np.sin(3.0 * t), np.cos(2.0 * t)]),
        }
        for name, u_fun in data.items():
            for n_steps in (1, 2, 200):
                gap = self.gap(n_steps, u_fun, scheme)
                assert gap <= 1e-12, f"{name} data, {n_steps} steps: gap {gap:.2e}"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_inputs_hold_theta_averaged_data(self, scheme):
        """Both routes report u_theta = (1 - theta) u^k + theta u^{k+1},
        one row of boundary data per step."""
        tg = TimeGrid(t_end=1.0, n_steps=20, nu=1.0)
        u = np.stack([np.array([np.sin(3.0 * t), t]) for t in tg.times()])
        res = maxwell_lift_solve(self.pair, None, None, u,
                                 (self.E0, self.H0), tg, scheme)
        theta = res.direct.theta[:, None]
        expected = (1.0 - theta) * u[:-1] + theta * u[1:]
        for traj in res:
            assert traj.inputs.shape == (20, 2)
            assert np.array_equal(traj.inputs, expected)

    @settings(max_examples=60, deadline=None)
    @given(lift_draws())
    def test_random_runs_agree_to_roundoff(self, draw):
        """Route agreement on random grids, step counts, data and initial
        fields, relative to max(1, max|x|) max(1, 1/h)."""
        pair, u, x0, tg, scheme = draw
        res = maxwell_lift_solve(pair, None, None, u, x0, tg, scheme)
        gap = np.abs(res.lifted.states - res.direct.states).max()
        size = max(np.abs(res.lifted.states).max(), np.abs(res.direct.states).max())
        scale = max(1.0, size) * max(1.0, 1.0 / pair.grid.h)
        assert gap <= 1e-12 * scale, f"{scheme}: gap {gap:.2e}, scale {scale:.2e}"

    def test_midpoint_routes_coincide(self):
        """Under the midpoint rule the derivative source telescopes to the
        divided difference, making the routes equivalent for any data."""
        u = lambda t: np.array([np.sin(3.0 * t), np.cos(2.0 * t)])
        gap = self.gap(200, u, "implicit_midpoint")
        assert gap < 1e-10, f"midpoint routes split: {gap:.2e}"

    def test_closed_run_conserves_energy(self):
        """Skew A with zero damping keeps the weighted energy constant
        under the midpoint rule, also with varying coefficients."""
        tg = TimeGrid(t_end=1.0, n_steps=100, nu=1.0)
        eps = 2.0 + 0.5 * np.sin(2 * np.pi * self.grid.nodes())
        mu = 1.5 + 0.25 * np.cos(np.pi * self.grid.cells())
        res = maxwell_lift_solve(self.pair, eps, mu, None,
                                 (self.E0, self.H0), tg, "implicit_midpoint")
        nn = self.pair.n_nodes
        states = res.direct.states
        energies = 0.5 * ((self.pair.W0 * eps * np.abs(states[:, :nn]) ** 2).sum(axis=1)
                          + (self.pair.W1 * mu * np.abs(states[:, nn:]) ** 2).sum(axis=1))
        drift = np.abs(energies - energies[0]).max()
        assert drift < 1e-11 * energies[0], f"energy drift: {drift:.2e}"

    def test_initial_state_forms_equivalent(self):
        """A flat initial state behaves exactly like the field pair."""
        tg = TimeGrid(t_end=0.5, n_steps=50, nu=1.0)
        u = np.stack([np.array([np.sin(t), 0.2 * t]) for t in tg.times()])
        a = maxwell_lift_solve(self.pair, None, None, u,
                               (self.E0, self.H0), tg, "backward_euler")
        b = maxwell_lift_solve(self.pair, None, None, u,
                               np.concatenate([self.E0, self.H0]), tg,
                               "backward_euler")
        assert np.array_equal(a.lifted.states, b.lifted.states)
        assert np.array_equal(a.direct.states, b.direct.states)

    def test_diagonal_matrix_coefficients_accepted(self):
        """A diagonal matrix coefficient equals its extracted diagonal."""
        tg = TimeGrid(t_end=0.5, n_steps=50, nu=1.0)
        eps = 2.0 + 0.5 * np.sin(2 * np.pi * self.grid.nodes())
        a = maxwell_lift_solve(self.pair, np.diag(eps), None, None,
                               (self.E0, self.H0), tg, "backward_euler")
        b = maxwell_lift_solve(self.pair, eps, None, None,
                               (self.E0, self.H0), tg, "backward_euler")
        assert np.array_equal(a.direct.states, b.direct.states)

    def test_coefficient_validation(self):
        tg = TimeGrid(t_end=0.5, n_steps=10, nu=1.0)
        with pytest.raises(PositivityError):
            maxwell_lift_solve(self.pair, -1.0, None, None, None, tg,
                               "backward_euler")
        full = np.eye(self.pair.n_nodes)
        full[0, 1] = 0.5
        with pytest.raises(ValueError, match="diagonal"):
            maxwell_lift_solve(self.pair, full, None, None, None, tg,
                               "backward_euler")
        for eps, mu, words in (
                (np.eye(3), None, "eps must be 33x33 or a length-33 diagonal, got (3, 3)"),
                (None, np.ones(3), "mu must be a scalar or a length-32 diagonal, got (3,)")):
            with pytest.raises(ShapeMismatchError, match=re.escape(words)):
                maxwell_lift_solve(self.pair, eps, mu, None, None, tg, "backward_euler")

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_routes_share_one_plan(self, calls_to, scheme):
        """Both routes step through one plan: one certificate, and one
        inverse per distinct theta (M0 is definite, so one theta)."""
        certs = calls_to(evolution, "check_wellposed")
        inverses = calls_to(evolution, "lu_factor")
        tg = TimeGrid(t_end=1.0, n_steps=20, nu=1.0)
        u = np.stack([np.array([np.sin(3.0 * t), t]) for t in tg.times()])
        res = maxwell_lift_solve(self.pair, None, None, u, (self.E0, self.H0), tg, scheme)
        assert len(certs) == 1 and len(inverses) == 1
        assert res.lifted.n_euler_init_steps == res.direct.n_euler_init_steps == 0

    @pytest.mark.parametrize("n_cells", [8, 24, 128])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_sources_are_those_of_each_step(self, calls_to, n_cells, scheme):
        """The sources both routes step through equal, bitwise, the products
        of each step's own u_theta and difference quotient."""
        runs = calls_to(evolution.StepPlan, "run")
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n_cells))
        nn, nc = pair.n_nodes, pair.n_cells
        rng = np.random.default_rng(n_cells)
        mu = rng.uniform(0.5, 2.0, nc)
        tg = TimeGrid(t_end=1.0, n_steps=30, nu=1.0)
        u = rng.standard_normal((tg.n_steps + 1, 2))
        res = maxwell_lift_solve(pair, None, mu, u, None, tg, scheme)
        (_, _, F_lifted), (_, _, F_direct) = runs
        s0, s1 = np.sqrt(pair.W0), np.sqrt(pair.W1)
        lift = s1[:, None] * compute_bd_space(pair, "D").basis
        Dhat = (pair.D / s1[None, :]) * s0[:, None]
        Theta = Dhat - maxwell_system(pair).A[:nn, nn:]
        du = (u[1:] - u[:-1]) / tg.tau
        for k, u_theta in enumerate(res.direct.inputs):
            assert np.array_equal(F_lifted[k, :nn], -(Dhat @ (lift @ u_theta)))
            assert np.array_equal(F_lifted[k, nn:], -mu * (lift @ du[k]))
            assert np.array_equal(F_direct[k], np.concatenate([-(Theta @ (lift @ u_theta)),
                                                               np.zeros(nc)]))

    def test_data_shape_validation(self):
        tg = TimeGrid(t_end=0.5, n_steps=10, nu=1.0)
        with pytest.raises(ShapeMismatchError, match="u_bd"):
            maxwell_lift_solve(self.pair, None, None, np.zeros((10, 2)),
                               None, tg, "backward_euler")
        with pytest.raises(ShapeMismatchError):
            maxwell_lift_solve(self.pair, None, None, None,
                               np.zeros(5), tg, "backward_euler")
        with pytest.raises(ShapeMismatchError,
                           match=re.escape("x0 must be (E0, H0) or a flat state")):
            maxwell_lift_solve(self.pair, None, None, None,
                               (self.E0, self.H0, self.H0), tg, "backward_euler")
