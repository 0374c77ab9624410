"""Tests for the command-line front end.

Commands are driven in-process through main(argv), which returns the
exit status: 0 when every defect threshold passes, 1 on a threshold or
hypothesis failure, 2 for configuration and precondition errors.  The
artifacts are plain CSV with '# key=value' comment headers, so the
tests parse them with a small reader and check the advertised
invariants: byte-identical reruns, zero runs produce zero files, the
wave preset's sweep matches c(nu) = min(nu, 1 - 1/sqrt(2)), boundary
space dimensions equal two, and the per-step ledger residual stays
within tolerance.
"""

import dataclasses
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evoctl
from evoctl import cli
from evoctl.cli import load_config, main, write_csv


def run(tmp_path, *args):
    """Invoke the CLI with outdir pointed at tmp_path."""
    return main([args[0], "--set", f"outdir={tmp_path}", *args[1:]])


def read_table(path, numeric=True):
    """Parse a CSV artifact into (comments, header, rows).

    Rows come back as a float array, or as lists of strings when the
    table has textual columns and numeric is False.
    """
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        elif line:
            cells = line.split(",")
            rows.append([float(v) for v in cells] if numeric else cells)
    return comments, header, np.asarray(rows) if numeric else rows


class TestConfig:
    def test_defaults(self):
        """An absent file plus no overrides yields the default run."""
        cfg = load_config(None, [], 1e-9)
        assert cfg.preset == "wave-wt"
        assert cfg.grid.n_cells == 16
        assert cfg.scheme == "implicit_midpoint"
        assert cfg.tolerance == 1e-9

    def test_set_overrides_parse_json_and_strings(self):
        """Dotted overrides coerce JSON values and fall back to strings."""
        cfg = load_config(None, ["time.n_steps=50", "preset=wave-mixed",
                                 "grid.a=-1.5"], 1e-9)
        assert cfg.time.n_steps == 50 and isinstance(cfg.time.n_steps, int)
        assert cfg.preset == "wave-mixed"
        assert cfg.grid.a == -1.5

    def test_config_file_merges_with_defaults(self, tmp_path):
        """A partial JSON file overrides only the keys it mentions."""
        path = tmp_path / "conf.json"
        path.write_text('{"time": {"n_steps": 7}, "scheme": "backward_euler"}',
                        encoding="utf-8")
        cfg = load_config(str(path), [], 1e-9)
        assert cfg.time.n_steps == 7
        assert cfg.scheme == "backward_euler"
        assert cfg.grid.n_cells == 16

    @pytest.mark.parametrize("override,match", [
        ("bogus.key=1", "unknown"),
        ("time.t_end=NaN", "finite"),
        ("time.n_steps=0", "at least 1"),
        ("preset=unknown-model", "preset"),
        ("scheme=forward_euler", "scheme"),
        ("tolerance=-1e-9", "tolerance"),
    ])
    def test_invalid_configuration_rejected(self, override, match):
        """Unknown keys, non-finite numbers and bad names all raise."""
        with pytest.raises(ValueError, match=match):
            load_config(None, [override], 1e-9)

    def test_command_without_default_tolerance(self):
        """wellposed has no default tolerance; a configured one is still
        validated."""
        assert load_config(None, [], None).tolerance is None
        assert load_config(None, ["tolerance=1e-3"], None).tolerance == 1e-3
        with pytest.raises(ValueError, match="tolerance"):
            load_config(None, ["tolerance=0"], None)

    def test_invalid_configuration_exits_2(self, tmp_path):
        """The entry point maps configuration errors to exit status 2."""
        assert run(tmp_path, "simulate", "--set", "preset=bogus") == 2
        assert run(tmp_path, "simulate", "--set", "time.n_steps=0") == 2

    @pytest.mark.parametrize("command,override", [
        ("wellposed", "time.t_end=0"),
        ("bdspace", "time.t_end=-1"),
        ("wellposed", "time.nu=0"),
    ])
    def test_time_grid_is_validated_for_every_command(self, tmp_path, capsys,
                                                      command, override):
        """Commands that integrate nothing still refuse a bad time grid."""
        assert run(tmp_path, command, "--set", override) == 2
        assert "must be positive" in capsys.readouterr().err


    @pytest.mark.parametrize("override", [
        "time.nu=null",
        "time.n_steps=true",
        "time.n_steps=3.9",
        "grid.n_cells=2.7",
    ])
    def test_malformed_number_exits_2(self, tmp_path, capsys, override):
        """Null, boolean and non-integral values are refused, not coerced."""
        assert run(tmp_path, "simulate", "--set", override) == 2
        assert override.split("=")[0] in capsys.readouterr().err

class TestWellposed:
    def test_wave_sweep_matches_min_formula(self, tmp_path):
        """The wave preset's constant is min(nu, 1 - 1/sqrt(2))."""
        assert run(tmp_path, "wellposed") == 0
        _, header, rows = read_table(tmp_path / "wellposed.csv")
        assert header == ["nu", "c_min"]
        assert rows.shape[0] == 16
        expected = np.minimum(rows[:, 0], 1.0 - 1.0 / np.sqrt(2.0))
        err = np.abs(rows[:, 1] - expected).max()
        assert err < 1e-8, f"sweep deviates from min(nu, 1 - 1/sqrt 2): {err:.2e}"

    def test_identity_mass_without_damping_gives_nu(self, tmp_path):
        """With M0 = 1 and M1 = 0 the constant equals nu itself."""
        assert run(tmp_path, "wellposed", "--set", "preset=maxwell-lift-1d") == 0
        _, _, rows = read_table(tmp_path / "wellposed.csv")
        err = np.abs(rows[:, 1] - rows[:, 0]).max()
        assert err < 1e-13, f"c(nu) = nu fails for the undamped preset: {err:.2e}"

    def test_certificate_is_reported_at_nu_max(self, tmp_path, capsys):
        """The default wave certifies 1 - 1/sqrt(2) at nu_max = 2 time.nu; the
        certificate asks c > 0, so a configured tolerance changes nothing."""
        for extra in ((), ("--set", "tolerance=1e-300")):
            assert run(tmp_path, "wellposed", *extra) == 0
            assert capsys.readouterr().out == \
                "well-posed with c = 2.928932e-01 at nu = 2.000000e+00\n"

    def test_zero_damping_fails_with_witness(self, tmp_path, capsys):
        """Removing the observation damping breaks positivity."""
        code = run(tmp_path, "wellposed", "--zero-damping")
        out = capsys.readouterr().out
        assert code == 1
        assert "witness" in out

    def test_zero_damping_witness_is_lowest_index_block(self, tmp_path, capsys):
        """c = 0 is attained at indices 34 and 35 of the dim-36 system; the
        witness is the lowest-index block's, e_34 with sign +1."""
        assert run(tmp_path, "wellposed", "--zero-damping") == 1
        witness = capsys.readouterr().out.splitlines()[-1]
        assert witness.startswith("witness direction: [")
        assert witness[len("witness direction: ["):-1].split(", ") == \
            ["0"] * 34 + ["1", "0"]

    def test_mixed_preset_is_well_posed(self, tmp_path):
        """The three-region wave still certifies a positive constant."""
        assert run(tmp_path, "wellposed", "--set", "preset=wave-mixed") == 0

    @pytest.mark.parametrize("command,preset", [
        ("wellposed", "wave-wt"),
        ("wellposed", "port-hamiltonian"),
        ("simulate", "wave-wt"),
        ("bdspace", "wave-wt"),
    ])
    def test_non_finite_system_exits_2(self, tmp_path, capsys, command, preset):
        """On [0, 1e200] the scaled operators overflow.  The wave's boundary
        space refuses its infinite graph norm, the same way in every
        command; the chain builds no boundary space, and the NaN in its A
        is refused instead of being certified.  numpy's floating-point
        warnings come first, one 'warning: <message>' line each, without
        source lines."""
        assert run(tmp_path, command, "--set", f"preset={preset}",
                   "--set", "grid.b=1e200") == 2
        message = ("error: A is not finite" if preset == "port-hamiltonian" else
                   "error: kernel basis collapsed or overflowed during "
                   "orthonormalization (graph norm inf)")
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == message
        assert lines[:-1] and all(line.startswith("warning: ") for line in lines[:-1])
        assert not any(".py:" in line for line in lines)


class TestSimulate:
    def test_zero_run_writes_zero_files(self, tmp_path):
        """Zero input and zero initial data produce all-zero columns."""
        assert run(tmp_path, "simulate", "--set", "time.n_steps=20") == 0
        for name in ("trajectory.csv", "io.csv"):
            _, _, rows = read_table(tmp_path / name)
            peak = np.abs(rows[:, 1:]).max()
            assert peak == 0.0, f"{name} is not identically zero: {peak:.2e}"

    def test_ledger_defect_within_tolerance(self, tmp_path):
        """A driven midpoint run balances its energy ledger per step."""
        code = run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.freq=3.0")
        assert code == 0
        _, header, rows = read_table(tmp_path / "ledger.csv")
        defect = np.abs(rows[:, header.index("defect")]).max()
        assert defect < 1e-9, f"ledger defect too large: {defect:.2e}"
        correction = rows[:, header.index("euler_correction")]
        assert correction[0] > 0.0
        assert np.abs(correction[1:]).max() == 0.0

    def test_overflowing_run_fails_and_names_the_step(self, tmp_path, capsys):
        """A ledger that overflows to NaN fails instead of passing."""
        code = run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e300")
        out = capsys.readouterr().out
        assert code == 1
        assert "ledger defect is not finite at step 0" in out

    def test_non_finite_step_right_side_exits_2(self, tmp_path, capsys):
        """States that overflow make the next step's right side non-finite;
        the step solve refuses it and the run is a configuration error."""
        code = run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e308")
        assert code == 2
        assert ("array must not contain infs or NaNs: the right side of step 18\n"
                in capsys.readouterr().err)

    def test_rerun_is_byte_identical(self, tmp_path):
        """The same configuration writes the same bytes twice."""
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run(d, "simulate", "--set", "input.kind=sinusoid",
                       "--set", "time.n_steps=40") == 0
        for name in ("trajectory.csv", "ledger.csv", "io.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_io_file_carries_input_and_output_columns(self, tmp_path):
        """The wave preset's io file holds t plus two inputs, two outputs."""
        assert run(tmp_path, "simulate", "--set", "time.n_steps=10") == 0
        _, header, rows = read_table(tmp_path / "io.csv")
        assert header == ["t", "u0", "u1", "y0", "y1"]
        assert rows.shape[0] == 10

    def test_sinusoid_drives_the_chosen_component(self, tmp_path):
        """Only the selected input column carries the sinusoid."""
        assert run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.component=1",
                   "--set", "time.n_steps=30") == 0
        _, header, rows = read_table(tmp_path / "io.csv")
        t = rows[:, 0]
        assert np.abs(rows[:, header.index("u0")]).max() == 0.0
        err = np.abs(rows[:, header.index("u1")] - np.sin(t)).max()
        assert err < 1e-12, f"sampled sinusoid deviates: {err:.2e}"

    def test_table_signal_is_interpolated(self, tmp_path):
        """A tabulated signal is read and linearly interpolated."""
        sig = tmp_path / "sig.csv"
        sig.write_text("t,u0,u1\n0,0,0\n0.5,1,0\n1,0,0\n", encoding="utf-8")
        code = run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}", "--set", "time.n_steps=20")
        assert code == 0
        _, header, rows = read_table(tmp_path / "io.csv")
        t = rows[:, 0]
        hat = np.interp(t, [0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        err = np.abs(rows[:, header.index("u0")] - hat).max()
        assert err < 1e-12, f"table interpolation deviates: {err:.2e}"

    def test_malformed_table_exits_2(self, tmp_path):
        """A table with the wrong column count is a configuration error."""
        sig = tmp_path / "sig.csv"
        sig.write_text("t,u0\n0,0\n1,1\n", encoding="utf-8")
        assert run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}") == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_table_exits_2(self, tmp_path, capsys, value):
        """A non-finite table entry is refused at load time, by line."""
        sig = tmp_path / "sig.csv"
        sig.write_text(f"t,u0,u1\n0,0,0\n0.5,{value},0\n1,0,0\n", encoding="utf-8")
        assert run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}") == 2
        assert "line 3" in capsys.readouterr().err

    def test_non_increasing_table_time_exits_2(self, tmp_path, capsys):
        """np.interp would misread a time column that does not increase."""
        sig = tmp_path / "sig.csv"
        sig.write_text("t,u0,u1\n0,0,0\n1,1,0\n0.5,0,0\n", encoding="utf-8")
        assert run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}") == 2
        assert "line 4" in capsys.readouterr().err

    def test_port_hamiltonian_preset_balances(self, tmp_path):
        """The closed chain preset runs and balances its ledger."""
        assert run(tmp_path, "simulate", "--set", "preset=port-hamiltonian",
                   "--set", "initial.kind=sine",
                   "--set", "time.n_steps=50") == 0

    def test_maxwell_midpoint_routes_agree(self, tmp_path):
        """Under the midpoint rule the lifted and direct routes coincide."""
        code = run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d",
                   "--set", "input.kind=sinusoid", "--set", "input.component=1",
                   "--set", "time.n_steps=50")
        assert code == 0
        _, header, rows = read_table(tmp_path / "ledger.csv")
        gap = rows[:, header.index("defect")].max()
        assert gap < 1e-9, f"route gap under the midpoint rule: {gap:.2e}"

    def test_maxwell_euler_routes_agree(self, tmp_path):
        """Under backward Euler the lifted and direct routes coincide too."""
        code = run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d",
                   "--set", "scheme=backward_euler",
                   "--set", "input.kind=sinusoid", "--set", "input.component=1",
                   "--set", "time.n_steps=50")
        assert code == 0
        _, header, rows = read_table(tmp_path / "ledger.csv")
        gap = rows[:, header.index("defect")].max()
        assert gap <= 1e-12, f"route gap under backward Euler: {gap:.2e}"

    def test_maxwell_run_builds_its_boundary_space_and_certificate_once(self, tmp_path,
                                                                          calls_to):
        """The command line and both routes share one cell-side boundary space
        and one certificate."""
        from evoctl import cli, evolution, models
        spaces = [calls_to(module, "compute_bd_space") for module in (cli, models)]
        certs = [calls_to(module, "check_wellposed") for module in (cli, evolution)]
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d") == 0
        assert sum(map(len, spaces)) == 1 and sum(map(len, certs)) == 1

    def test_out_of_memory_is_a_configuration_error(self, tmp_path, monkeypatch, capsys):
        """A run too large to allocate exits 2 with a message, not a traceback."""
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        monkeypatch.setattr("evoctl.cli.drive", allocate)
        assert run(tmp_path, "simulate", "--set", "time.n_steps=1e9") == 2
        assert "error: Unable to allocate" in capsys.readouterr().err


class TestBdspace:
    def test_dimensions_and_defects(self, tmp_path):
        """Both boundary spaces have dimension two and tiny defects."""
        assert run(tmp_path, "bdspace") == 0
        _, header, rows = read_table(tmp_path / "bd_defects.csv", numeric=False)
        assert header == ["check", "dimension", "defect"]
        assert all(int(row[1]) == 2 for row in rows)
        worst = max(float(row[2]) for row in rows)
        assert worst < 1e-10, f"boundary space defect too large: {worst:.2e}"

    def test_basis_file_covers_both_sides(self, tmp_path):
        """The basis table lists node-side and cell-side columns."""
        assert run(tmp_path, "bdspace") == 0
        text = (tmp_path / "bd_basis.csv").read_text(encoding="utf-8")
        sides = {line.split(",")[0] for line in text.splitlines()
                 if line and not line.startswith(("#", "side"))}
        assert sides == {"G", "D"}

    def test_single_cell_grid_exits_2(self, tmp_path):
        """A one-cell grid cannot carry the scheme and is rejected."""
        assert run(tmp_path, "bdspace", "--set", "grid.n_cells=1") == 2

    def test_seed_comment_follows_environment(self, tmp_path, monkeypatch):
        """The sampling seed is recorded and driven by EVOCTL_SEED."""
        monkeypatch.setenv("EVOCTL_SEED", "777")
        assert run(tmp_path, "bdspace") == 0
        comments, _, _ = read_table(tmp_path / "bd_defects.csv", numeric=False)
        assert "seed=777" in comments


class TestEnergy:
    def test_replay_reproduces_the_simulated_ledger(self, tmp_path):
        """Recomputing from the stored trajectory gives the same rows."""
        sim = tmp_path / "sim"
        args = ("--set", "input.kind=sinusoid", "--set", "time.n_steps=60")
        assert run(sim, "simulate", *args) == 0
        stored = read_table(sim / "ledger.csv")[2]

        replay = tmp_path / "replay"
        code = run(replay, "energy", *args,
                   "--trajectory", str(sim / "trajectory.csv"))
        assert code == 0
        rebuilt = read_table(replay / "ledger.csv")[2]
        err = np.abs(stored - rebuilt).max()
        assert err == 0.0, f"replayed ledger deviates: {err:.2e}"

    def test_maxwell_replay_is_rejected(self, tmp_path):
        """The route-gap preset has no control ledger to replay."""
        assert run(tmp_path, "energy", "--set", "preset=maxwell-lift-1d") == 2

    def test_trajectory_from_another_grid_is_rejected(self, tmp_path, capsys):
        """A same-shape trajectory written on [0, 2] cannot replay on [0, 1]."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "grid.b=2",
                   "--set", "time.n_steps=20") == 0
        code = run(tmp_path, "energy", "--set", "time.n_steps=20",
                   "--trajectory", str(sim / "trajectory.csv"))
        assert code == 2
        assert "grid a=0 b=1 n_cells=16" in capsys.readouterr().err

    def test_trajectory_of_another_preset_is_rejected(self, tmp_path, capsys):
        """wave-wt and wave-mixed states have the same shape; only the
        stored preset line tells them apart."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "time.n_steps=20") == 0
        code = run(tmp_path, "energy", "--set", "time.n_steps=20",
                   "--set", "preset=wave-mixed",
                   "--trajectory", str(sim / "trajectory.csv"))
        assert code == 2
        assert "lacks '# preset=wave-mixed'" in capsys.readouterr().err

    def test_mismatched_shape_is_rejected(self, tmp_path):
        """A stored trajectory must match the configured run size."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "time.n_steps=20") == 0
        code = run(tmp_path, "energy", "--set", "time.n_steps=30",
                   "--trajectory", str(sim / "trajectory.csv"))
        assert code == 2

    def simulated_trajectory(self, tmp_path):
        """Lines of a stored 20-step midpoint wave-wt trajectory."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "time.n_steps=20") == 0
        return (sim / "trajectory.csv").read_text(encoding="utf-8").splitlines(True)

    def replay(self, tmp_path, lines):
        path = tmp_path / "edited.csv"
        path.write_text("".join(lines), encoding="utf-8")
        return run(tmp_path / "replay", "energy", "--set", "time.n_steps=20",
                   "--trajectory", str(path))

    def test_ragged_row_exits_2(self, tmp_path, capsys):
        """A row with a missing field is refused, not replayed."""
        lines = self.simulated_trajectory(tmp_path)
        lines[-3] = lines[-3].rsplit(",", 1)[0] + "\n"
        assert self.replay(tmp_path, lines) == 2
        assert "number of columns changed" in capsys.readouterr().err

    def test_nan_time_cell_exits_2(self, tmp_path, capsys):
        """A NaN in the stored time column does not match the grid."""
        lines = self.simulated_trajectory(tmp_path)
        first = next(i for i, line in enumerate(lines)
                     if not line.startswith("# ")) + 1
        lines[first + 5] = "nan," + lines[first + 5].split(",", 1)[1]
        assert self.replay(tmp_path, lines) == 2
        assert "stored time column does not match" in capsys.readouterr().err

    def test_header_only_file_exits_2(self, tmp_path, capsys):
        """Comments and a column header without samples are refused."""
        lines = self.simulated_trajectory(tmp_path)
        header = [line for line in lines if line.startswith("# ")] + \
            [next(line for line in lines if not line.startswith("# "))]
        assert self.replay(tmp_path, header) == 2
        assert "holds no samples" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_theta_schedule_header_is_checked(self, tmp_path, capsys, value):
        """The midpoint wave on singular M0 starts with one theta = 1 step;
        a stored header that says otherwise is refused, not replayed."""
        lines = self.simulated_trajectory(tmp_path)
        assert "# n_euler_init_steps=1\n" in lines
        lines = [f"# n_euler_init_steps={value}\n"
                 if line == "# n_euler_init_steps=1\n" else line for line in lines]
        assert self.replay(tmp_path, lines) == 2
        assert "n_euler_init_steps=1" in capsys.readouterr().err

    def test_replay_header_names_the_stored_scheme(self, tmp_path):
        """A backward Euler trajectory replayed under the default
        (midpoint) configuration is labelled with the scheme it replayed."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "scheme=backward_euler",
                   "--set", "time.n_steps=20") == 0
        replay = tmp_path / "replay"
        assert run(replay, "energy", "--set", "time.n_steps=20",
                   "--trajectory", str(sim / "trajectory.csv")) == 0
        comments = read_table(replay / "ledger.csv")[0]
        assert "scheme=backward_euler" in comments
        assert "scheme=implicit_midpoint" not in comments
        assert "n_euler_init_steps=0" in comments


class TestVerdict:
    """The words and exit status of each tolerance verdict.  Only exact
    values are pinned to the digit: the roundoff digits of a defect move
    with the number of BLAS threads."""

    DRIVE = ("--set", "input.kind=sinusoid", "--set", "input.freq=3",
             "--set", "initial.kind=sine", "--set", "grid.n_cells=24")
    MAX_LINE = r"max = \d\.\d{6}e[-+]\d\d \(tolerance 1e-30\)"

    def test_simulate_over_tolerance(self, tmp_path, capsys):
        """A ledger defect above the tolerance fails with its max line alone."""
        assert run(tmp_path, "simulate", *self.DRIVE, "--set", "tolerance=1e-30") == 1
        assert re.fullmatch(f"ledger defect {self.MAX_LINE}\n", capsys.readouterr().out)

    def test_energy_over_tolerance(self, tmp_path, capsys):
        """The replay of a passing run fails under a tighter tolerance."""
        assert run(tmp_path, "simulate", *self.DRIVE) == 0
        capsys.readouterr()
        assert run(tmp_path, "energy", *self.DRIVE, "--set", "tolerance=1e-30") == 1
        totals, verdict = capsys.readouterr().out.splitlines()
        assert totals.startswith("stored drop ")
        assert re.fullmatch(f"ledger defect {self.MAX_LINE}", verdict)

    def test_maxwell_route_gap_over_tolerance(self, tmp_path, capsys):
        """The Maxwell route gap is judged by the same rule."""
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d", *self.DRIVE,
                   "--set", "tolerance=1e-30") == 1
        assert re.fullmatch(f"route gap {self.MAX_LINE}\n", capsys.readouterr().out)

    def test_bdspace_over_tolerance(self, tmp_path, capsys):
        """On [0, 0.01] with 64 cells the unitarity defect exceeds 1e-10."""
        assert run(tmp_path, "bdspace", "--set", "grid.b=0.01",
                   "--set", "grid.n_cells=64") == 1
        assert re.fullmatch(r"boundary space dimensions: G = 2, D = 2; worst defect = "
                            r"\d\.\d{6}e-\d\d \(tolerance 1e-10\)\n",
                            capsys.readouterr().out)

    def test_bdspace_non_finite_defect_is_named(self, tmp_path, capsys, monkeypatch):
        """A NaN defect row fails and is named by its row."""
        monkeypatch.setattr(cli, "ibp_defect", lambda *args: np.nan)
        assert run(tmp_path, "bdspace") == 1
        assert capsys.readouterr().out == (
            "boundary space dimensions: G = 2, D = 2; worst defect = nan (tolerance 1e-10)\n"
            "green_identity defect is not finite\n")

    def test_bdspace_dimension_mismatch(self, tmp_path, capsys, monkeypatch):
        """Boundary spaces of different dimensions fail, whatever the defects."""
        build = cli.compute_bd_space

        def widened(pair, side):
            space = build(pair, side)
            if side == "G":
                return space
            return dataclasses.replace(space, basis=np.hstack([space.basis, space.basis[:, :1]]),
                                       projector=np.vstack([space.projector,
                                                            space.projector[:1]]))

        monkeypatch.setattr(cli, "compute_bd_space", widened)
        assert run(tmp_path, "bdspace") == 1
        summary, mismatch = capsys.readouterr().out.splitlines()
        assert summary.startswith("boundary space dimensions: G = 2, D = 3; worst defect = ")
        assert mismatch == "dimension mismatch between the node and cell sides"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme,step", [("implicit_midpoint", 15),
                                             ("backward_euler", 16)])
    def test_overflowing_maxwell_run_is_refused_without_warnings(self, tmp_path, capsys,
                                                                scheme, step):
        """The Maxwell sources overflow silently; the step refusal alone speaks."""
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d",
                   "--set", "grid.n_cells=16", "--set", f"scheme={scheme}",
                   "--set", "input.kind=sinusoid", "--set", "input.amplitude=1e308") == 2
        assert capsys.readouterr().err == ("error: array must not contain infs or NaNs: "
                                           f"the right side of step {step}\n")


class TestWriteCsv:
    """write_csv writes every value of its columns and 2-D blocks as '%.17g'
    writes it and every str value as it is, one row per entry."""

    SPECIAL = [0, 0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               np.float64(-0.0), np.float64(np.nan), np.float64(-np.inf), np.int64(-7),
               2 ** 60 + 1, True]

    @staticmethod
    def expected(comments, columns, data):
        rows = zip(*[[list(row) for row in item] if np.ndim(item) == 2 else [[v] for v in item]
                     for item in data])
        lines = [f"# {line}" for line in comments] + [",".join(columns)]
        lines += [",".join(v if isinstance(v, str) else "%.17g" % v
                           for field in row for v in field) for row in rows]
        return "".join(line + "\n" for line in lines)

    def check(self, tmp_path, columns, data):
        path = tmp_path / "out.csv"
        write_csv(path, ["seed=1"], columns, data)
        assert path.read_bytes() == self.expected(["seed=1"], columns, data).encode()

    def test_special_values_and_types(self, tmp_path):
        rng = np.random.default_rng(5)
        mags = np.sign(rng.standard_normal(40)) * 10.0 ** rng.uniform(-20, 4, 40)
        col = [*self.SPECIAL, *mags, *mags.tolist(), *mags.astype(np.float32),
               *np.arange(-3, 4), *range(-3, 4)]
        tiled = np.tile(mags, 4)[:len(col)]
        data = [col, col[::-1], [float(v) for v in col], tiled, tiled.astype(np.float32),
                np.arange(len(col)) - 70, np.arange(len(col)) % 3 == 0,
                np.column_stack([tiled, -tiled])]
        self.check(tmp_path, [f"c{i}" for i in range(9)], data)

    def test_leading_string_column(self, tmp_path):
        rows = [(side, 2, j, i, v) for side in ("G", "D") for j in range(2)
                for i, v in enumerate([0.5, -0.0, 1e-20, np.float64(3.25)])]
        columns = ["side", "dimension", "basis_index", "point_index", "value", "x0", "x1"]
        block = np.arange(2 * len(rows)).reshape(-1, 2) * 0.1
        self.check(tmp_path, columns, [*map(list, zip(*rows)), block])

    def test_str_columns_of_any_width_between_numbers(self, tmp_path):
        names = ["unitarity_node_to_cell", "", "g", "decomposition_grad" * 3]
        data = [[1.5, -2.0, 3e-300, np.nan], names, ["ν", "x", "", "ü"],
                [np.inf, 0.0, 1e22, -1e-5]]
        self.check(tmp_path, ["a", "check", "name", "b"], data)
        # a trailing str column whose entries differ in length
        self.check(tmp_path, ["a", "name"], [[1.0, 2.0], ["ab", "a"]])

    def test_zero_rows_write_the_header_only(self, tmp_path):
        self.check(tmp_path, ["t", "x0", "x1"], [np.zeros(0), np.zeros((0, 2))])
        assert (tmp_path / "out.csv").read_text() == "# seed=1\nt,x0,x1\n"

    def test_rows_span_several_blocks(self, tmp_path, monkeypatch):
        """The same bytes at every block size, one row or less per block
        included, with a str field between two runs of numeric fields."""
        rng = np.random.default_rng(7)
        names = np.array(["", "a", "bc", "ν"])[np.arange(23) % 4]
        data = [np.arange(23) * 0.1, np.zeros((23, 0)), rng.standard_normal((23, 3)), names,
                np.arange(23) % 3 == 0, -rng.standard_normal((23, 2))]
        for cells in (1, 5, cli._CELLS):
            monkeypatch.setattr(cli, "_CELLS", cells)
            self.check(tmp_path, ["t", "x0", "x1", "x2", "name", "flag", "y0", "y1"], data)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.floats() | st.integers(-2 ** 70, 2 ** 70),
                             min_size=3, max_size=3), max_size=5))
    def test_random_rows(self, tmp_path_factory, rows):
        columns = [[row[i] for row in rows] for i in range(3)]
        self.check(tmp_path_factory.mktemp("csv"), ["a", "b", "c"], columns)


class TestFormat17:
    """The block kernel behind write_csv writes the bytes of '%.17g' % v for
    every float64 v, whether it takes the scaled-integer lane or falls back
    to '%.17g' itself."""

    @staticmethod
    def check(tmp_path, values):
        values = np.asarray(values, dtype=np.float64)
        path = tmp_path / "v.csv"
        write_csv(path, [], ["v"], [values])
        expected = "v\n" + "".join("%.17g\n" % v for v in values.tolist())
        assert path.read_bytes() == expected.encode()

    @staticmethod
    def bit_patterns(n, seed=2024):
        """n float64 values of uniformly random bits: every exponent, NaN
        payloads, infinities and subnormals."""
        bits = np.random.default_rng(seed).integers(0, 2 ** 64, n, dtype=np.uint64)
        return np.concatenate([bits.view(np.float64), [np.nan, -np.nan, np.inf, -np.inf]])

    @staticmethod
    def edges():
        """Subnormals and zeros, every power of two, the powers of ten and
        their neighbours, and the %g switch points with theirs."""
        tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         np.nextafter(2.2250738585072014e-308, 0)])
        subnormals = np.ldexp(np.arange(1, 2 ** 12, 7.0), -1074)
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([f"1e{m}" for m in range(-323, 309)], dtype=np.float64)
        switch = np.array([1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-5, 99999999999999999.0])
        out = [tiny, subnormals, twos, tens, switch]
        for around in (tens, switch):
            up = down = around
            for _ in range(3):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, 0)
                out += [up, down]
        out = np.concatenate(out)
        return np.concatenate([out, -out])

    def test_random_bit_patterns(self, tmp_path):
        self.check(tmp_path, self.bit_patterns(10 ** 6))

    def test_edges(self, tmp_path):
        self.check(tmp_path, self.edges())

    def test_exact_tie_rounds_half_to_even(self, tmp_path):
        """2^-25 = 2.98023223876953125e-08 has 18 digits, the last a 5."""
        write_csv(tmp_path / "v.csv", [], ["v"], [[2.0 ** -25, -(2.0 ** -25)]])
        assert (tmp_path / "v.csv").read_text() == \
            "v\n2.9802322387695312e-08\n-2.9802322387695312e-08\n"

    def test_special_values_of_every_type(self, tmp_path):
        values = TestWriteCsv.SPECIAL + [np.float32(0.1), np.float32(-3.4e38), False,
                                         np.int64(2 ** 62 + 1), np.uint8(255)]
        write_csv(tmp_path / "v.csv", [], ["v"], [values])
        expected = "v\n" + "".join("%.17g\n" % v for v in values)
        assert (tmp_path / "v.csv").read_text() == expected

    def test_every_lane_falls_back_at_half_margin(self, tmp_path, monkeypatch):
        """A margin of 1/2, as where longdouble is float64, leaves no lane to
        the scaled integers: with their digit tables made garbage, the bytes
        still do not change."""
        values = np.concatenate([self.bit_patterns(20000, seed=3), self.edges()])
        self.check(tmp_path, values)
        pow10, *words = cli._tables()
        garbage = [np.full_like(w, int.from_bytes(b"?" * w.itemsize, "little")) for w in words]
        monkeypatch.setattr(cli, "_tables", lambda: (pow10, *garbage))
        if cli._MARGIN < 0.5:
            with pytest.raises(AssertionError):
                self.check(tmp_path, values)
        monkeypatch.setattr(cli, "_MARGIN", 0.5)
        self.check(tmp_path, values)

    def test_powers_of_ten_are_correctly_rounded(self):
        """The margin assumes each power of ten is within half an ulp."""
        pow10 = cli._tables()[0]
        for m, p in zip(range(-300, 351), pow10):
            if np.isfinite(p) and p > 0:  # where longdouble is float64, 1e309 is inf
                error = Fraction(*p.as_integer_ratio()) - Fraction(10) ** m
                assert abs(error) <= Fraction(*np.spacing(p).as_integer_ratio()) / 2, m


class TestScipyImport:
    """No command loads scipy, and none loads numpy.ma: numpy is the one
    runtime dependency, and numpy.ma costs an import and its memory."""

    @staticmethod
    def loaded(code):
        """Which of scipy and numpy.ma a fresh interpreter holds after code."""
        src = Path(evoctl.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        script = (f"import sys\n{code}\n"
                  "print(*(m for m in ('scipy', 'numpy.ma') if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.splitlines()[-1].split())

    def test_import_leaves_scipy_out(self):
        assert not self.loaded("import evoctl")

    @pytest.mark.parametrize("command", ["wellposed", "bdspace"])
    def test_command_leaves_scipy_out(self, tmp_path, command):
        argv = [command, "--set", f"outdir={tmp_path}"]
        assert not self.loaded(f"from evoctl.cli import main\nassert main({argv!r}) == 0")

    @pytest.mark.parametrize("preset", ["wave-wt", "maxwell-lift-1d"])
    def test_simulate_leaves_scipy_out(self, tmp_path, preset):
        """The step matrices are inverted with numpy alone, on the control
        path and on both Maxwell routes."""
        argv = ["simulate", "--set", f"preset={preset}", "--set", "scheme=implicit_midpoint",
                "--set", "time.n_steps=5", "--set", f"outdir={tmp_path}"]
        assert not self.loaded(f"from evoctl.cli import main\nassert main({argv!r}) == 0")

    def test_energy_replay_leaves_scipy_out(self, tmp_path):
        args = ["--set", "time.n_steps=20", "--set", "input.kind=sinusoid"]
        assert run(tmp_path / "sim", "simulate", *args) == 0
        argv = ["energy", *args, "--set", f"outdir={tmp_path / 'replay'}",
                "--trajectory", str(tmp_path / "sim" / "trajectory.csv")]
        assert not self.loaded(f"from evoctl.cli import main\nassert main({argv!r}) == 0")

    def test_probe_sees_an_import(self):
        """The probe reports each module once it is imported."""
        assert self.loaded("import numpy.ma") == {"numpy.ma"}
        assert "scipy" in self.loaded("import scipy.linalg")
