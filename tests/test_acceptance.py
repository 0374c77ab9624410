"""Acceptance sweep: one verdict per advertised guarantee.

Fifteen numbered checks cover the discrete calculus (summation by
parts, boundary data spaces, transport unitarity, decompositions,
Green identity), the control structure (coupling adjoint, coercivity,
causality, compatibility), the integrators (first-order Euler decay,
midpoint per-step ledger), and the bundled models (wave energy
exchange, chain endpoint coupling, boundary lifting, mixed-type
degeneration).  Every test prints a single line

    criterion NN PASS/FAIL: <measured defect and tolerance>

visible under pytest -s, and fails its assertion exactly when the line
says FAIL.  All randomness is seeded; the whole sweep runs in seconds.
"""

import dataclasses

import numpy as np

from evoctl import (
    Grid1D,
    PortHamiltonianSpec,
    TimeGrid,
    WaveSpec,
    all_hyperbolic_indicators,
    assemble_control,
    boundary_triple_defect,
    build_mixed_type_wave,
    build_port_hamiltonian,
    build_sbp_pair_1d,
    build_weiss_tucsnak_wave,
    causality_defect,
    check_compatibility,
    check_wellposed,
    compute_bd_space,
    deflation_basis,
    dot_map,
    energy_ledger,
    extract_io,
    ibp_defect,
    maxwell_lift_solve,
    solve,
    three_region_indicators,
)
from evoctl.control import BlockPartition
from evoctl.evolution import EvolutionarySystem

RT2 = np.sqrt(2.0)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hpd(rng, n):
    a = cplx(rng, n, n)
    return a @ a.conj().T / n + np.eye(n)


def wave_system(n_cells=16):
    return build_weiss_tucsnak_wave(WaveSpec(grid=Grid1D(0.0, 1.0, n_cells)))


def port_system(n_cells=16):
    return build_port_hamiltonian(
        PortHamiltonianSpec(grid=Grid1D(0.0, 1.0, n_cells), Nmat=[[1.0]])
    )


def random_wave_input(rng):
    """Random two-component trigonometric control signal."""
    amp = rng.standard_normal((2, 3))
    frq = rng.uniform(0.5, 5.0, (2, 3))
    phs = rng.uniform(0.0, 2.0 * np.pi, (2, 3))

    def u(t):
        return (amp * np.sin(frq * t + phs)).sum(axis=1)

    return u


class TestAcceptance:
    def test_01_summation_by_parts_identity(self):
        """<Gu,v> + <u,Dv> - u^H T v vanishes on every grid size."""
        rng = np.random.default_rng(101)
        worst = 0.0
        for n in (4, 16, 64, 256):
            pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
            for _ in range(100):
                u = cplx(rng, pair.n_nodes)
                v = cplx(rng, pair.n_cells)
                worst = max(worst, ibp_defect(pair, u, v))
        assert report(1, worst <= 1e-12,
                      f"summation-by-parts defect {worst:.2e} over "
                      f"n_cells in (4,16,64,256), 100 pairs each (tol 1e-12)")

    def test_02_boundary_space_dimension_and_resolution(self):
        """Both boundary spaces are two-dimensional and capture sampled
        exponentials to second order in the mesh width."""
        dims_ok = True
        errs = []
        for n in (16, 32, 64):
            pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, n))
            bdG = compute_bd_space(pair, "G")
            bdD = compute_bd_space(pair, "D")
            dims_ok = dims_ok and bdG.dim == 2 and bdD.dim == 2
            u = np.exp(pair.grid.nodes())
            errs.append(bdG.graph.norm(u - bdG.basis @ (bdG.projector @ u)))
        ratios = [c / f for c, f in zip(errs, errs[1:])]
        ratios_ok = all(2.8 < r < 5.2 for r in ratios)
        assert report(2, dims_ok and ratios_ok,
                      f"dims (G,D) = 2, exp projection error ratios "
                      f"{ratios[0]:.2f}, {ratios[1]:.2f} within 4 +- 30%")

    def test_03_boundary_transport_unitarity(self):
        """Transport between the boundary spaces is a unitary with the
        reverse transport as its inverse."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 16))
        bdG = compute_bd_space(pair, "G")
        bdD = compute_bd_space(pair, "D")
        Q = dot_map(bdG, bdD, pair)
        Qd = dot_map(bdD, bdG, pair)
        eye = np.eye(2)
        iso = max(np.linalg.norm(Q.conj().T @ Q - eye, 2),
                  np.linalg.norm(Qd.conj().T @ Qd - eye, 2))
        inv = max(np.linalg.norm(Qd @ Q - eye, 2),
                  np.linalg.norm(Q @ Qd - eye, 2))
        assert report(3, iso <= 1e-10 and inv <= 1e-10,
                      f"isometry defect {iso:.2e}, inverse defect {inv:.2e} "
                      f"(tol 1e-10)")

    def test_04_graph_orthogonal_decomposition(self):
        """Node vectors split into a boundary-data part and a remainder
        with zero boundary values, orthogonally in the graph product."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 16))
        bdG = compute_bd_space(pair, "G")
        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(100):
            u = cplx(rng, pair.n_nodes)
            ub = bdG.basis @ (bdG.projector @ u)
            umin = u - ub
            cross = max(abs(bdG.graph.inner(bdG.basis[:, k], umin))
                        for k in range(bdG.dim))
            worst = max(worst, abs(umin[0]), abs(umin[-1]), cross)
        assert report(4, worst <= 1e-10,
                      f"decomposition defect {worst:.2e} over 100 node "
                      f"vectors (tol 1e-10)")

    def test_05_boundary_triple_green_identity(self):
        """The two boundary maps satisfy the Green identity for the
        rotated joint operator on random state pairs."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 16))
        bdG = compute_bd_space(pair, "G")
        bdD = compute_bd_space(pair, "D")
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(100):
            worst = max(worst, boundary_triple_defect(
                pair,
                cplx(rng, pair.n_nodes), cplx(rng, pair.n_cells),
                cplx(rng, pair.n_nodes), cplx(rng, pair.n_cells),
                bdG=bdG, bdD=bdD,
            ))
        assert report(5, worst <= 1e-10,
                      f"Green identity defect {worst:.2e} over 100 draws "
                      f"(tol 1e-10)")

    def test_06_coupling_adjoint_dual_route(self, dual_map):
        """The assembled adjoint of the coupling map equals the minimal
        divergence plus dual-coupling route through physical operators."""
        grid = Grid1D(0.0, 1.0, 16)
        sys = build_weiss_tucsnak_wave(WaveSpec(grid=grid))
        cdual = dual_map(grid)
        pair = build_sbp_pair_1d(grid)
        s0, s1, V = np.sqrt(pair.W0), np.sqrt(pair.W1), deflation_basis(pair)
        div_min = pair.minimal_div()
        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(100):
            zeta = cplx(rng, pair.n_cells)
            w = cplx(rng, 2)
            assembled = -sys.Gmat.conj().T @ zeta + sys.Cmat.conj().T @ w
            physical = V.conj().T @ (s0 * (div_min @ (zeta / s1) + cdual @ w))
            worst = max(worst, np.abs(assembled - physical).max())
        assert report(6, worst <= 1e-10,
                      f"adjoint route gap {worst:.2e} over 100 draws "
                      f"(tol 1e-10)")

    def test_07_wave_coercivity_constant(self):
        """The certified constant equals min(nu, 1 - 1/sqrt 2) on the
        wave blocks, scalar template and assembled system alike."""
        target = 1.0 - 1.0 / RT2
        M0 = np.diag([1.0, 1.0, 0.0, 0.0])
        M1 = np.zeros((4, 4))
        M1[2, 2] = 1.0
        M1[3, 2] = RT2
        M1[3, 3] = 1.0
        scalar = check_wellposed(M0, M1, nu_max=4.0)
        sys = wave_system()
        full = check_wellposed(sys.M0, sys.M1, nu_max=4.0)
        err = max(abs(scalar.c - target), abs(full.c - target))
        ok = scalar.ok and full.ok and err <= 1e-8
        assert report(7, ok,
                      f"coercivity constant off by {err:.2e} from "
                      f"1 - 1/sqrt(2) (tol 1e-8)")

    def test_08_causality_of_solution_operators(self):
        """Solutions up to time a ignore input changes after a, for
        three systems and three cut times."""
        rng = np.random.default_rng(108)
        tg = TimeGrid(t_end=1.0, n_steps=80, nu=1.0)

        wsys = wave_system(12)
        psys = port_system(12)
        dim = 8
        dense = EvolutionarySystem(
            M0=hpd(rng, dim),
            M1=hpd(rng, dim) + 0.3 * (lambda s: s - s.conj().T)(cplx(rng, dim, dim)),
            A=(lambda s: s - s.conj().T)(cplx(rng, dim, dim)),
            J=np.eye(dim, dtype=complex),
        )

        def control_pair(sys, a):
            def u(t):
                return np.array([np.sin(2.0 * t), np.cos(3.0 * t)])

            def f1(t):
                return u(t)

            def f2(t):
                return u(t) + (t > a + 1e-9) * np.array([0.8, -0.6])

            return f1, f2

        def dense_pair(a):
            def f1(t):
                return np.cos(np.arange(dim) + t)

            def f2(t):
                return f1(t) + (t > a + 1e-9) * np.ones(dim)

            return f1, f2

        worst = 0.0
        for a in (0.25, 0.5, 0.75):
            for sys, pair_of, scheme in (
                (wsys, control_pair, "backward_euler"),
                (psys, control_pair, "backward_euler"),
                (None, None, "implicit_midpoint"),
            ):
                if sys is None:
                    f1, f2 = dense_pair(a)
                    d = causality_defect(dense, f1, f2, a, tg, scheme)
                else:
                    f1, f2 = pair_of(sys, a)
                    d = causality_defect(sys, f1, f2, a, tg, scheme)
                worst = max(worst, d)
        assert report(8, worst <= 1e-12,
                      f"causality defect {worst:.2e} over 3 systems x 3 cut "
                      f"times (tol 1e-12)")

    def test_09_euler_first_order_decay(self):
        """Halving the step halves the backward Euler error against the
        exact exponential decay."""
        one = np.eye(1, dtype=complex)
        sys = EvolutionarySystem(M0=one, M1=one, A=0.0 * one, J=one)

        def sup_err(n_steps):
            tg = TimeGrid(t_end=1.0, n_steps=n_steps, nu=1.0)
            traj = solve(sys, np.array([1.0 + 0.0j]), None, tg, "backward_euler")
            exact = np.exp(-tg.times())
            return np.abs(traj.states[:, 0] - exact).max()

        ratio = sup_err(64) / sup_err(128)
        assert report(9, 1.6 < ratio < 2.4,
                      f"Euler decay error ratio {ratio:.3f} under step "
                      f"halving (want 2 +- 20%)")

    def test_10_midpoint_per_step_ledger(self):
        """Per-step energy balance closes on a 60-dimensional system
        with positive semidefinite symmetric part."""
        rng = np.random.default_rng(110)
        sizes = (25, 20, 7, 8)
        off = np.concatenate([[0], np.cumsum(sizes)])
        dim, n_u1 = off[-1], 5

        herm = hpd(rng, dim)
        skew = (lambda s: s - s.conj().T)(cplx(rng, dim, dim))
        M1 = herm + 0.2 * skew
        assert np.linalg.eigvalsh(0.5 * (M1 + M1.conj().T))[0] > 0.0

        def block(i, j):
            return M1[off[i]:off[i + 1], off[j]:off[j + 1]]

        M1b = [[block(i, j) for j in range(4)] for i in range(4)]
        M0b = [[None] * 4 for _ in range(4)]
        M0b[0][0] = hpd(rng, sizes[0])
        M0b[1][1] = hpd(rng, sizes[1])
        Myy = M1[off[3]:, off[3]:]
        B2 = cplx(rng, sizes[3], n_u1)
        B0 = np.linalg.solve(Myy, M1[off[3]:, :off[1]]).conj().T @ B2
        B1 = np.linalg.solve(Myy, M1[off[3]:, off[1]:off[3]]).conj().T @ B2
        sys = assemble_control(
            BlockPartition(sizes[0], sizes[1] + sizes[2], sizes[3], n_u1),
            M0b, M1b, Cmat=cplx(rng, sizes[2], sizes[0]),
            B_blocks=(B0, B1, B2), Gmat=cplx(rng, sizes[1], sizes[0]),
            n_w=sizes[2],
        )

        amp = rng.standard_normal((n_u1, 2))

        def u(t):
            return amp[:, 0] * np.sin(3.0 * t) + amp[:, 1] * np.cos(2.0 * t)

        tg = TimeGrid(t_end=0.5, n_steps=50, nu=1.0)
        traj = solve(sys, sys.x0, u, tg, "implicit_midpoint")
        times = tg.times()
        worst = 0.0
        for k in range(traj.n_euler_init_steps, tg.n_steps):
            led = energy_ledger(sys, traj, a=times[k], b=times[k + 1])
            worst = max(worst, abs(led.defect))
        assert report(10, worst <= 1e-11,
                      f"per-step midpoint ledger defect {worst:.2e} on a "
                      f"{dim}-dimensional system (tol 1e-11)")

    def test_11_compatibility_defects(self):
        """The wave system's sqrt-2 control maps satisfy both
        compatibility conditions; zeroing the flux-side map leaves
        defect sqrt 2 in the operator norm."""
        sys = wave_system()
        d0, d1 = check_compatibility(sys)
        J = sys.J.copy()
        J[sys.partition.sl_h1] = 0.0
        stripped = dataclasses.replace(sys, J=J)
        z0, z1 = check_compatibility(stripped)
        ok = (max(d0, d1) <= 1e-12 and z0 <= 1e-12
              and abs(z1 - RT2) <= 1e-12)
        assert report(11, ok,
                      f"compatibility defects ({d0:.1e}, {d1:.1e}), after "
                      f"zeroing B1 ({z0:.1e}, {z1:.6f} vs sqrt 2, tol 1e-12)")

    def test_12_boundary_energy_exchange_identity(self):
        """Stored wave energy drops by the integral of |y|^2/2 - |u|^2/2
        for random inputs over several intervals."""
        sys = wave_system()
        tg = TimeGrid(t_end=2.0, n_steps=400, nu=1.0)
        rng = np.random.default_rng(112)
        worst = 0.0
        for _ in range(3):
            traj = solve(sys, sys.x0, random_wave_input(rng), tg, "implicit_midpoint")
            us = traj.inputs
            samples = traj.x_theta(0, tg.n_steps)

            def stored(i):
                return 0.5 * np.vdot(traj.states[i], sys.M0 @ traj.states[i]).real

            for ia, ib in ((1, 400), (1, 200), (100, 300)):
                flux = 0.0
                for k in range(ia, ib):
                    y = samples[k][sys.fine_slice(3)]
                    flux += tg.tau * (0.5 * np.vdot(y, y).real
                                      - 0.5 * np.vdot(us[k], us[k]).real)
                worst = max(worst, abs(stored(ia) - stored(ib) - flux))
        assert report(12, worst <= 1e-9,
                      f"energy exchange defect {worst:.2e} over 3 inputs x 3 "
                      f"intervals (tol 1e-9)")

    def test_13_endpoint_coupling_recovery(self):
        """The observation recovered from its algebraic rows, which couple
        it to the endpoint values of the node field, matches the stored
        one at every step of both schemes."""
        sys = port_system()
        tg = TimeGrid(t_end=1.5, n_steps=300, nu=1.0)

        def u(t):
            return np.array([np.sin(2.0 * t), 0.4 * np.cos(3.0 * t)])

        worst = 0.0
        for scheme in ("implicit_midpoint", "backward_euler"):
            traj = solve(sys, sys.x0, u, tg, scheme)
            worst = max(worst, extract_io(sys, traj).max_deviation)
        assert report(13, worst <= 1e-9,
                      f"endpoint coupling deviation {worst:.2e} over all steps, "
                      f"both schemes (tol 1e-9)")

    def test_14_boundary_lift_equivalence(self):
        """Lifting the boundary data into the state agrees with keeping
        it in the divergence rows to roundoff, for zero, constant and
        varying data under both schemes."""
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, 32))
        rng = np.random.default_rng(114)
        x0 = (rng.standard_normal(pair.n_nodes), rng.standard_normal(pair.n_cells))

        def gap(n_steps, u_fun, scheme):
            tg = TimeGrid(t_end=1.0, n_steps=n_steps, nu=1.0)
            u = None if u_fun is None else np.stack([u_fun(t) for t in tg.times()])
            res = maxwell_lift_solve(pair, None, None, u, x0, tg, scheme)
            return np.abs(res.lifted.states - res.direct.states).max()

        data = {
            "zero": None,
            "constant": lambda t: np.array([0.7, -0.3]),
            "varying": lambda t: np.array([np.sin(3.0 * t), np.cos(2.0 * t)]),
        }
        gaps = {(name, scheme): gap(200, u_fun, scheme)
                for name, u_fun in data.items()
                for scheme in ("backward_euler", "implicit_midpoint")}
        worst = max(gaps, key=gaps.get)
        assert report(14, gaps[worst] <= 1e-12,
                      f"worst route gap {gaps[worst]:.2e} ({worst[0]} data, "
                      f"{worst[1]}) over zero, constant and varying data, "
                      f"both schemes (tol 1e-12)")

    def test_15_degenerate_partition_and_mixed_run(self):
        """An everywhere-hyperbolic region map reproduces the wave
        system verbatim, and the genuinely mixed split still passes the
        coercivity and ledger checks."""
        spec = WaveSpec(grid=Grid1D(0.0, 1.0, 16))
        wt = build_weiss_tucsnak_wave(spec)
        degenerate = build_mixed_type_wave(spec, all_hyperbolic_indicators(spec.grid))
        names = ("M0", "M1", "A", "B0", "B1", "B2", "Gmat", "Cmat", "Cdual")
        matrices_equal = all(
            np.array_equal(getattr(wt, name), getattr(degenerate, name))
            for name in names
        )

        mixed = build_mixed_type_wave(spec, three_region_indicators(spec.grid))
        rep = check_wellposed(mixed.M0, mixed.M1, nu_max=4.0)
        tg = TimeGrid(t_end=1.5, n_steps=300, nu=1.0)
        rng = np.random.default_rng(115)
        traj = solve(mixed, mixed.x0, random_wave_input(rng), tg, "implicit_midpoint")
        times = tg.times()
        worst = 0.0
        for k in range(traj.n_euler_init_steps, tg.n_steps):
            led = energy_ledger(sys=mixed, traj=traj, a=times[k], b=times[k + 1])
            worst = max(worst, abs(led.defect))
        ok = matrices_equal and rep.ok and worst <= 1e-9
        assert report(15, ok,
                      f"degenerate partition matrices identical: "
                      f"{matrices_equal}, mixed run coercive c = {rep.c:.3f}, "
                      f"ledger defect {worst:.2e} (tol 1e-9)")
