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

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evoctl
from evoctl import cli
from evoctl.cli import load_config, main, write_csv

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import parity  # noqa: E402


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
        ("scheme=forward_euler", r"^scheme must be one of \('backward_euler', "
                                 r"'implicit_midpoint'\), got 'forward_euler'$"),
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

    @pytest.mark.parametrize("args,message", [
        (("simulate", "--set", "grid=5"), "config.grid must be an object"),
        (("simulate", "--set", "preset=wave-wt", "--set", "preset.x=1"),
         "cannot override preset.x below the non-object key 'preset'"),
        (("simulate", "--set", "grid.a"), "--set expects key=value, got 'grid.a'"),
        (("simulate", "--set", "input.kind=table", "--set", "input.path=missing.csv"),
         'input.path must name a file, got "missing.csv"'),
        (("simulate", "--set", "initial.kind=sine", "--set", "initial.mode=1e308"),
         f"initial.mode must keep mode * pi finite, got {int(1e308)}"),
        (("simulate", "--set", "time.n_steps=1e308"),
         f"time.n_steps must be at least 1 and below 2**63 - 1, got {int(1e308)}"),
        (("wellposed", "--set", "grid.b=1e200"),
         "need a < b and a finite (b - a)**2, got [0.0, 1e+200]"),
        (("simulate", "--set", "initial.kind=cosine"),
         "unknown initial kind 'cosine'; use zero or sine"),
        (("simulate", "--set", "input.kind=sinusoid", "--set", "input.component=2"),
         "input.component must lie in [0, 1], got 2"),
        (("simulate", "--set", "input.kind=step"),
         "unknown input kind 'step'; use zero, sinusoid or table"),
        (("wellposed", "--zero-damping", "--set", "preset=maxwell-lift-1d"),
         "--zero-damping applies to presets with a Y block"),
    ])
    def test_refusal_words(self, tmp_path, capsys, args, message):
        """Each malformed configuration exits 2 with its own words."""
        assert run(tmp_path, *args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("override,message", [
        ("time.t_end=x", 'time.t_end must be a number, got "x"'),
        ("input.freq=abc", 'input.freq must be a number, got "abc"'),
        ("grid.n_cells=x", 'grid.n_cells must be a number, got "x"'),
        ("time.n_steps=", 'time.n_steps must be a number, got ""'),
    ], ids=["float", "float-input", "int", "int-empty"])
    def test_non_numeric_text_names_its_key(self, tmp_path, capsys, override, message):
        """float()'s own refusal ("could not convert string to float") named
        no key."""
        assert run(tmp_path, "simulate", "--set", "input.kind=sinusoid", "--set", override) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("value", ["null", "[1]", "{}", "0", "true"])
    def test_outdir_must_be_a_path_string(self, tmp_path, capsys, monkeypatch, value):
        """str() made null the directory None and [1] the directory [1],
        beside the working directory; the refusal writes nothing."""
        monkeypatch.chdir(tmp_path)
        assert main(["bdspace", "--set", f"outdir={value}"]) == 2
        shown = json.dumps(json.loads(value))
        assert capsys.readouterr().err == f"error: outdir must be a path string, got {shown}\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("outdir", ["x" * 300, "file/sub"], ids=["too-long", "file-in-the-way"])
    def test_outdir_that_cannot_be_created_is_named(self, tmp_path, capsys, monkeypatch,
                                                    outdir):
        """The file system's refusal (a name too long, a file in the way) was
        a bare "[Errno 36] File name too long" naming no key."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert main(["bdspace", "--set", f"outdir={outdir}"]) == 2
        assert re.fullmatch(rf"error: outdir cannot be created: \[Errno \d+\] [^\n]+: "
                            rf"'{outdir}'\n", capsys.readouterr().err)
        assert [path.name for path in tmp_path.iterdir()] == ["file"]

    def test_configuration_file_must_hold_an_object(self, tmp_path, capsys):
        path = tmp_path / "conf.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert run(tmp_path, "simulate", "--config", str(path)) == 2
        assert capsys.readouterr().err == \
            "error: the configuration file must hold a JSON object\n"

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

    def test_weight_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        """time.nu = 1e308 is finite, but the sweep's nu_max = 2 time.nu is not."""
        assert run(tmp_path, "wellposed", "--set", "time.nu=1e308") == 2
        assert capsys.readouterr().err == "error: nu_max must be finite, got inf\n"

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

    @pytest.mark.parametrize("command,status,out", [
        ("wellposed", 0, "well-posed with c = 2.928932e-01 at nu = 2.000000e+00\n"),
        ("simulate", 0, "ledger defect max = 0.000000e+00 (tolerance 1e-09)\n"),
        ("bdspace", 1, None),
    ], ids=["wellposed", "simulate", "bdspace"])
    def test_huge_cells_build(self, tmp_path, capsys, command, status, out):
        """On [0, 1e150] the graph form has entries near h = 6.25e148, and
        its square overflowed the Gram-Schmidt norm, so every command was
        refused with 'graph norm inf'.  The boundary basis now comes from a
        Householder QR of the graph-weighted kernel, which squares no norm,
        so the wave builds as on [0, 1e100]: wellposed and simulate pass, and
        bdspace finds a unitary transport, but its Green identity rows are
        roundoff on entries of this size, far above the 1e-10 tolerance."""
        assert run(tmp_path, command, "--set", "preset=wave-wt", "--set", "grid.b=1e150") \
            == status
        captured = capsys.readouterr()
        assert captured.err == ""
        if out is not None:
            assert captured.out == out
            return
        worst = re.fullmatch(r"boundary space dimensions: G = 2, D = 2; worst defect = (\S+) "
                             r"\(tolerance 1e-10\)\n", captured.out)
        assert 1e-10 < float(worst[1]) < np.inf
        _, _, rows = read_table(tmp_path / "bd_defects.csv", numeric=False)
        assert [row[:3] for row in rows[:2]] == [["unitarity_node_to_cell", "2", "0"],
                                                  ["unitarity_cell_to_node", "2", "0"]]

    @pytest.mark.parametrize("command,status", [("wellposed", 2), ("bdspace", 1)],
                             ids=["wellposed", "bdspace"])
    def test_collapsed_boundary_basis_names_the_grid(self, tmp_path, capsys, command, status):
        """On 4 cells of width 1e-146 the Gram-Schmidt norm of the kernel
        basis fell to 1e-73, and both commands were refused with 'graph norm
        1.000e-73'.  The Householder QR keeps a finite basis, whose transport
        misses unitarity by far more than 1e-8: the wave builder refuses
        the grid, naming the cell width, and bdspace reports the miss and
        exits 1, each without a warning.  The miss is roundoff, so only its
        size is pinned."""
        assert run(tmp_path, command, "--set", "grid.n_cells=4", "--set", "grid.b=4e-146") \
            == status
        captured = capsys.readouterr()
        if command == "wellposed":
            assert captured.out == ""
            miss = re.fullmatch(
                r"error: the boundary data transport is not unitary: its round trips miss the "
                r"identity by (\S+) \(bound 1e-08\) on a cell width h = \(b - a\)/n_cells = "
                r"1\.000e-146 on \[0\.0, 4e-146\] with 4 cells\n", captured.err)
        else:
            assert captured.err == ""
            miss = re.fullmatch(r"boundary space dimensions: G = 2, D = 2; worst defect = (\S+) "
                                r"\(tolerance 1e-10\)\n", captured.out)
        assert 1e-8 < float(miss[1]) < np.inf

    @pytest.mark.parametrize("command", ["wellposed", "simulate", "bdspace"])
    @pytest.mark.parametrize("preset,b", [("wave-wt", 1e-160), ("maxwell-lift-1d", 1e-160),
                                          ("port-hamiltonian", 1e-300)])
    def test_cell_width_whose_arithmetic_overflows_exits_2(self, tmp_path, capsys, command,
                                                           preset, b):
        """The wave's dense SVD met 'overflow encountered in matmul', then did
        not converge, and the chain's A overflowed to NaN, each after numpy
        warnings; Grid1D now refuses the cell width first, naming b."""
        assert run(tmp_path, command, "--set", f"preset={preset}", "--set", f"grid.b={b}") == 2
        assert capsys.readouterr().err == (
            "error: need a cell width h = (b - a)/n_cells >= 2/sqrt(max float) = 1.5e-154, "
            f"so that 4/h**2 is finite, got h = {b / 16:.3e} on [0.0, {b}] with 16 cells\n")

    def test_tiny_cells_certify_the_chain_and_refuse_its_step_naming_its_keys(self, tmp_path,
                                                                             capsys):
        """On [0, 1e-140] the chain is certified, and simulate refuses its
        step matrix as numerically singular, naming the keys that set tau
        and h, with no warning."""
        assert run(tmp_path, "wellposed", "--set", "preset=port-hamiltonian",
                   "--set", "grid.b=1e-140") == 0
        assert capsys.readouterr().err == ""
        assert run(tmp_path, "simulate", "--set", "preset=port-hamiltonian",
                   "--set", "grid.b=1e-140") == 2
        assert capsys.readouterr().err == (
            "error: step matrix numerically singular (cond ~ 5.463e+141) at tau = 0.005; the "
            "time step and the cell width (time.t_end, time.n_steps, grid.a, grid.b, "
            "grid.n_cells) set the step matrix\n")

    @pytest.mark.parametrize("command", ["wellposed", "simulate"])
    @pytest.mark.parametrize("preset", ["wave-wt", "wave-mixed"])
    def test_wave_whose_transport_is_not_unitary_exits_2(self, tmp_path, capsys, command,
                                                         preset):
        """On [0, 1e-140] the boundary spaces' transport is far from unitary,
        so the wave is refused naming the cell width, without a warning."""
        assert run(tmp_path, command, "--set", f"preset={preset}", "--set", "grid.b=1e-140") == 2
        assert re.fullmatch(
            r"error: the boundary data transport is not unitary: its round trips miss the "
            r"identity by \S+ \(bound 1e-08\) on a cell width h = \(b - a\)/n_cells = "
            r"6\.250e-142 on \[0\.0, 1e-140\] with 16 cells\n", capsys.readouterr().err)

    @pytest.mark.parametrize("setting,status,error", [
        ("grid.b=1.0", 0, ""),
        ("time.nu=1e308", 2, "error: nu_max must be finite, got inf\n"),
    ], ids=["certified", "refused"])
    def test_warning_prints_one_line_without_its_source(self, tmp_path, capsys, monkeypatch,
                                                        setting, status, error):
        """Each warning raised during a command prints as one 'warning:
        <message>' line on stderr, with no source line, ahead of the error
        that ends the command, if any."""
        build = cli._build_preset

        def warn_then_build(cfg):
            warnings.warn("first", RuntimeWarning)
            warnings.warn("second", UserWarning)
            return build(cfg)

        monkeypatch.setattr(cli, "_build_preset", warn_then_build)
        assert run(tmp_path, "wellposed", "--set", setting) == status
        assert capsys.readouterr().err == "warning: first\nwarning: second\n" + error


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

    def test_traced_peak_stays_below_nine_step_matrices(self, tmp_path):
        """A wave-wt simulate peaks at about 8.1 dim x dim float64 matrices
        of traced memory; a wave system that kept the grad/div pair, its
        boundary space and the node basis peaked at 9.1.  The first run of a
        process imports modules whose memory is traced, so a small run goes
        before the measured one."""
        assert run(tmp_path / "warm", "simulate", "--set", "time.n_steps=2") == 0
        n_cells = 96
        dim = 2 * n_cells + 4
        tracemalloc.start()
        try:
            code = run(tmp_path, "simulate", "--set", f"grid.n_cells={n_cells}",
                       "--set", "time.n_steps=20", "--set", "input.kind=sinusoid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        matrices = peak / (8 * dim * dim)
        assert matrices <= 8.6, (f"traced peak {peak} B is {matrices:.3f} float64 "
                                 f"matrices of dim x dim = {dim} x {dim} (bound 8.6)")

    def test_overflowing_run_fails_and_names_the_step(self, tmp_path, capsys):
        """A ledger that overflows to NaN fails instead of passing."""
        code = run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e300")
        out = capsys.readouterr().out
        assert code == 1
        assert "ledger defect is not finite at step 0" in out

    def test_overflowing_ledger_prints_no_numpy_warning(self, tmp_path, capsys):
        """The chain's ledger under an input of amplitude 1e300 leaves
        float64; four numpy warnings preceded the step's name, which now
        stands alone."""
        assert run(tmp_path, "simulate", "--set", "preset=port-hamiltonian",
                   "--set", "grid.n_cells=16", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e300") == 1
        assert capsys.readouterr() == ("ledger defect max = nan (tolerance 1e-09)\n"
                                       "ledger defect is not finite at step 0\n", "")

    def test_overflowing_maxwell_energies_print_no_numpy_warning(self, tmp_path, capsys):
        """The Maxwell run's energies under an input of amplitude 1e300 leave
        float64 and are written as they are; three numpy warnings preceded
        the route gap, which now stands alone and decides the exit status."""
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d",
                   "--set", "grid.n_cells=16", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e300") == 1
        out, err = capsys.readouterr()
        assert re.fullmatch(r"route gap max = \d\.\d{6}e\+285 \(tolerance 1e-09\)\n", out)
        assert err == ""

    def test_non_finite_step_right_side_exits_2(self, tmp_path, capsys):
        """States that overflow make the next step's right side non-finite;
        the step solve refuses it and the run is a configuration error."""
        code = run(tmp_path, "simulate", "--set", "input.kind=sinusoid",
                   "--set", "input.amplitude=1e308")
        assert code == 2
        assert capsys.readouterr().err == (
            "error: array must not contain infs or NaNs: the right side of step 18; the input "
            "or the initial state (input.amplitude, input.path, initial.amplitude) leaves "
            "float64\n")

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

    def test_table_input_needs_a_path(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--set", "input.kind=table") == 2
        assert capsys.readouterr().err == "error: input.kind=table needs input.path\n"

    @pytest.mark.parametrize("value", ["1", "true", "2", "3.5", "[1]"])
    def test_table_path_must_be_a_string(self, tmp_path, value):
        """A table path that is not a string exits 2 naming input.path.  The
        run gets its own process: open() takes an int as a file descriptor,
        and reading 1 or 2 would close a stream of the test process."""
        env = dict(os.environ, PYTHONPATH=str(Path(evoctl.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "evoctl.cli", "simulate",
                               "--set", "input.kind=table", "--set", f"input.path={value}",
                               "--set", f"outdir={tmp_path}"],
                              env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (
            2, f"error: input.path must be a path string, got {value}\n")

    def test_malformed_table_exits_2(self, tmp_path):
        """A table with the wrong column count is a configuration error."""
        sig = tmp_path / "sig.csv"
        sig.write_text("t,u0\n0,0\n1,1\n", encoding="utf-8")
        assert run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}") == 2

    @pytest.mark.parametrize("text,words", [
        ("t,u0,u1\n0,0,0\n0.5,1\n1,0,0\n",
         ": the number of columns changed from 3 to 2 at line 3;"),
        ("t,u0,u1\n0,0,0\n1_000,1,0\n",
         ": could not convert string '1_000' to float64 at line 3, column 1."),
        ("# no rows\nt,u0,u1\n\n", " holds no samples\n"),
        ("", " holds no samples\n"),
    ])
    def test_unreadable_table_is_named(self, tmp_path, capsys, text, words):
        """A ragged, non-numeric or empty table is refused naming its file."""
        sig = tmp_path / "sig.csv"
        sig.write_text(text, encoding="utf-8")
        assert run(tmp_path, "simulate", "--set", "input.kind=table",
                   "--set", f"input.path={sig}") == 2
        assert capsys.readouterr().err.startswith(f"error: signal table {sig}{words}")

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
        """A run too large to allocate exits 2 with a message that names the
        keys that size its arrays, not a traceback."""
        def allocate(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 TiB for an array")

        monkeypatch.setattr("evoctl.cli.solve", allocate)
        assert run(tmp_path, "simulate", "--set", "time.n_steps=1e9") == 2
        assert capsys.readouterr().err == ("error: the arrays that time.n_steps and grid.n_cells "
                                           "size cannot be allocated (Unable to allocate 7.45 TiB "
                                           "for an array)\n")

    @pytest.mark.parametrize("preset", ["wave-wt", "maxwell-lift-1d"])
    @pytest.mark.parametrize("n_steps", [2 ** 62, 2 ** 60 - 1, 2 ** 60, 10 ** 14])
    def test_step_count_that_no_memory_holds_names_its_key(self, tmp_path, capsys, preset,
                                                            n_steps):
        """numpy refused these counts in its own words, naming no key: "array
        is too big" (a byte count beyond the address space) or "Unable to
        allocate 728. TiB"."""
        assert run(tmp_path, "simulate", "--set", f"preset={preset}",
                   "--set", f"time.n_steps={n_steps}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the arrays that time.n_steps and grid.n_cells size "
                              "cannot be allocated (") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["wellposed", "bdspace"])
    @pytest.mark.parametrize("n_cells", [2 ** 62, 10 ** 14])
    def test_cell_count_that_no_memory_holds_names_its_key(self, tmp_path, capsys, command,
                                                           n_cells):
        assert run(tmp_path, command, "--set", f"grid.n_cells={n_cells}") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the arrays that grid.n_cells size cannot be allocated (") \
            and err.count("\n") == 1


class TestBdspace:
    def test_dimensions_and_defects(self, tmp_path):
        """Both boundary spaces have dimension two and tiny defects, one row
        per check, the Green identity of the boundary triple last."""
        assert run(tmp_path, "bdspace") == 0
        _, header, rows = read_table(tmp_path / "bd_defects.csv", numeric=False)
        assert header == ["check", "dimension", "defect"]
        assert [row[0] for row in rows] == [
            "unitarity_node_to_cell", "unitarity_cell_to_node", "decomposition_div",
            "decomposition_grad", "green_identity", "boundary_triple"]
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

    @settings(max_examples=40, deadline=None)
    @given(length=st.floats(1e-2, 100.0), n_cells=st.integers(2, 128))
    def test_boundary_triple_decides_no_exit_status_alone(self, tmp_path_factory, length,
                                                         n_cells):
        """Wherever the five other rows pass 1e-10, the boundary triple's
        Green identity passes too, so it fails no grid they pass."""
        out = tmp_path_factory.mktemp("bdspace")
        with contextlib.redirect_stdout(io.StringIO()):
            status = run(out, "bdspace", "--set", f"grid.b={length!r}",
                         "--set", f"grid.n_cells={n_cells}")
        _, _, rows = read_table(out / "bd_defects.csv", numeric=False)
        *others, triple = (float(row[2]) for row in rows)
        if max(others) <= 1e-10:
            assert status == 0 and triple <= 1e-10, f"boundary_triple {triple:.2e}"


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

    def test_mismatched_shape_is_rejected(self, tmp_path, capsys):
        """A stored trajectory must match the configured run size, and the
        refusal names the keys that set it."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "time.n_steps=20") == 0
        code = run(tmp_path, "energy", "--set", "time.n_steps=30",
                   "--trajectory", str(sim / "trajectory.csv"))
        assert code == 2
        # 36 states: 16 deflated velocities, 16 fluxes, and w and y with 2 each
        assert capsys.readouterr().err == (
            "error: stored trajectory has shape (21, 36), the configured run "
            "needs (31, 36) from time.n_steps, preset and grid.n_cells\n")

    def test_trajectory_of_another_length_is_rejected(self, tmp_path, capsys):
        """A same-shape trajectory over [0, 2] cannot replay over [0, 1]."""
        sim = tmp_path / "sim"
        assert run(sim, "simulate", "--set", "time.t_end=2") == 0
        code = run(tmp_path, "energy", "--trajectory", str(sim / "trajectory.csv"))
        assert code == 2
        assert capsys.readouterr().err == \
            "error: stored time column does not match the configured time.t_end\n"

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

    def test_unknown_stored_scheme_exits_2(self, tmp_path, capsys):
        lines = self.simulated_trajectory(tmp_path)
        lines[lines.index("# scheme=implicit_midpoint\n")] = "# scheme=crank_nicolson\n"
        assert self.replay(tmp_path, lines) == 2
        assert capsys.readouterr().err == (
            f"error: the scheme stored in {tmp_path / 'edited.csv'} must be one of "
            "('backward_euler', 'implicit_midpoint'), got 'crank_nicolson'\n")

    @pytest.mark.parametrize("edit", ["energy-hash-comment", "energy-sidecar-corrupt"])
    def test_refused_sidecar_replays_the_same_ledger(self, tmp_path, monkeypatch, edit):
        """The parity cases energy-hash-comment (the wave-wt midpoint run's
        trajectory with '#note' before its column header, beside the run's
        trajectory.npy) and energy-sidecar-corrupt (the trajectory beside its
        trajectory.npy with a table byte flipped) replay from the file's text
        to the plain replay's ledger.csv, byte for byte."""
        cases = {case.name: (case, args, prepare)
                 for case, args, _, prepare in parity.matrix(tmp_path)}
        for name in ("simulate-wave-wt-implicit_midpoint", "energy-wave-wt-implicit_midpoint"):
            case, args, _ = cases[name]
            assert main(args) == 0, name
        case, args, prepare = cases[edit]
        case.mkdir()
        prepare()
        assert (case / "trajectory.npy").is_file()
        if edit == "energy-hash-comment":
            assert "# max_imag=0\n#note\nt,x0," in (case / "trajectory.csv").read_text("utf-8")
        read_csv = cli._read_csv
        parsed = []
        monkeypatch.setattr(cli, "_read_csv", lambda *a: parsed.append(a[0]) or read_csv(*a))
        assert main(args) == 0
        assert parsed == [case / "trajectory.csv"]
        assert (case / "ledger.csv").read_bytes() == \
            (tmp_path / "energy-wave-wt-implicit_midpoint" / "ledger.csv").read_bytes()

    def test_overflowing_replay_prints_no_numpy_warning(self, tmp_path, capsys):
        """A stored chain state of 1e300 at t = 0.5 overflows the replayed
        ledger; two numpy warnings preceded the step's name, which now
        stands alone."""
        args = ("--set", "preset=port-hamiltonian", "--set", "grid.n_cells=4",
                "--set", "time.n_steps=4", "--set", "input.kind=sinusoid")
        assert run(tmp_path / "sim", "simulate", *args) == 0
        lines = (tmp_path / "sim" / "trajectory.csv").read_text(encoding="utf-8").splitlines(True)
        row = next(i for i, line in enumerate(lines) if line.startswith("0.5,"))
        lines[row] = "0.5,1e300," + lines[row].split(",", 2)[2]
        path = tmp_path / "edited.csv"
        path.write_text("".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run(tmp_path / "replay", "energy", *args, "--trajectory", str(path)) == 1
        assert capsys.readouterr() == (
            "stored drop -1.323359e-01, dissipation 1.340685e-01, supply 2.664044e-01 over "
            "(0.25, 1.0)\nledger defect max = nan (tolerance 1e-09)\n"
            "ledger defect is not finite at step 1\n", "")

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


@st.composite
def mutated(draw, text):
    """The bytes of a file in write_csv's layout under one to three
    mutations: a dropped or duplicated comment line, a '#note' line anywhere,
    a row that loses or gains a field, two columns swapped, two time cells
    swapped or one made NaN, a byte that is not UTF-8, or the file cut at a
    byte or emptied."""
    lines = text.splitlines(True)
    for _ in range(draw(st.integers(1, 3))):
        comments = [i for i, line in enumerate(lines) if line.startswith(b"#")]
        body = [i for i, line in enumerate(lines) if line.strip() and i not in comments]
        rows = body[1:]
        kind = draw(st.sampled_from(["drop comment", "duplicate comment", "note", "ragged",
                                     "swap columns", "swap times", "nan time", "not utf-8",
                                     "cut", "empty"]))
        if kind == "drop comment" and comments:
            del lines[draw(st.sampled_from(comments))]
        elif kind == "duplicate comment" and comments:
            i = draw(st.sampled_from(comments))
            lines.insert(i, lines[i])
        elif kind == "note":
            lines.insert(draw(st.integers(0, len(lines))), b"#note\n")
        elif kind == "ragged" and rows:
            i = draw(st.sampled_from(rows))
            row = lines[i].rstrip(b"\n")
            lines[i] = (row.rpartition(b",")[0] if draw(st.booleans()) else row + b",0") + b"\n"
        elif kind == "swap columns" and body:
            fields = [lines[i].rstrip(b"\n").split(b",") for i in body]
            a, b = draw(st.lists(st.integers(0, min(map(len, fields)) - 1), min_size=2,
                                 max_size=2))
            for i, row in zip(body, fields):
                row[a], row[b] = row[b], row[a]
                lines[i] = b",".join(row) + b"\n"
        elif kind == "swap times" and len(rows) > 1:
            i, j = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True))
            (ti, _, ri), (tj, _, rj) = lines[i].partition(b","), lines[j].partition(b",")
            lines[i], lines[j] = tj + b"," + ri, ti + b"," + rj
        elif kind == "nan time" and rows:
            i = draw(st.sampled_from(rows))
            lines[i] = b"nan," + lines[i].partition(b",")[2]
        elif kind == "not utf-8" and lines:
            i = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
        elif kind == "cut":
            whole = b"".join(lines)
            lines = whole[:draw(st.integers(0, len(whole)))].splitlines(True)
        elif kind == "empty":
            lines = []
    return b"".join(lines)


@st.composite
def mutated_sidecar(draw, blob):
    """The bytes of a trajectory.npy under one mutation: cut at a byte, bytes
    appended, one byte flipped in the .npy header, the table or the check
    record (its last 24 bytes), a header naming 10**12 rows, or an object
    array, which only pickle reads, in its place."""
    start = 10 + int.from_bytes(blob[8:10], "little")  # the table follows the header
    kind = draw(st.sampled_from(["cut", "append", "flip header", "flip table", "flip record",
                                 "huge", "object"]))
    if kind == "cut":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=8))
    if kind.startswith("flip"):
        lo, hi = {"flip header": (0, start), "flip table": (start, len(blob) - 24),
                  "flip record": (len(blob) - 24, len(blob))}[kind]
        i = draw(st.integers(lo, hi - 1))
        return blob[:i] + bytes([blob[i] ^ draw(st.integers(1, 255))]) + blob[i + 1:]
    out = io.BytesIO()
    if kind == "huge":
        width = np.load(io.BytesIO(blob)).shape[1]
        np.lib.format.write_array_header_1_0(out, {"descr": "<f8", "fortran_order": False,
                                                   "shape": (10 ** 12, width)})
        out.write(blob[start:])
    else:
        np.save(out, np.array([None, {"x": 1}], dtype=object), allow_pickle=True)
    return out.getvalue()


def comments_added(text, edited):
    """Whether edited is UTF-8 and holds the lines of text with comment
    lines added, so that a reader must take the same rows from both."""
    try:
        lines = edited.decode("utf-8").splitlines(True)
    except UnicodeDecodeError:
        return False
    base = text.decode("utf-8").splitlines(True)
    rest = [line for line in lines if not line.startswith("#")]
    return rest == [line for line in base if not line.startswith("#")] and set(base) <= set(lines)


class TestReaderFuzz:
    """Mutated copies of a stored trajectory, replayed by energy, and of a
    signal table, read by simulate, end with a documented status: 0, 1 or 2,
    no exception out of main and no traceback or source line on stderr, and
    0 only with finite artifacts.  A copy that only gains comment lines
    gives the unmutated file's artifacts and output, byte for byte.  The
    run's trajectory.npy beside a mutated trajectory changes nothing, and a
    mutated trajectory.npy beside the unmutated file is refused in silence:
    the replay is the plain text replay."""

    RUN = ("--set", "grid.n_cells=4", "--set", "time.n_steps=8",
           "--set", "input.kind=sinusoid", "--set", "initial.kind=sine")
    TABLE = parity.SIGNAL_TABLE.encode()

    @staticmethod
    def checked_run(outdir, args, names):
        """The exit status of one checked run and, when it is 0, the bytes of
        its named artifacts, each of them finite, and its stdout and stderr."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = run(outdir, *args)
        assert status in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue() and ".py:" not in stderr.getvalue()
        if status:
            return status, None
        for name in names:
            assert np.isfinite(read_table(outdir / name)[2]).all(), name
        return status, {"<stdout>": stdout.getvalue(), "<stderr>": stderr.getvalue(),
                        **{name: (outdir / name).read_bytes() for name in names}}

    def replay(self, outdir, text, sidecar=None):
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "trajectory.csv").write_bytes(text)
        if sidecar is not None:
            (outdir / "trajectory.npy").write_bytes(sidecar)
        return self.checked_run(outdir, ("energy", *self.RUN, "--trajectory",
                                         str(outdir / "trajectory.csv")), ["ledger.csv"])

    def simulate(self, outdir, text):
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "signal.csv").write_bytes(text)
        return self.checked_run(outdir, ("simulate", *self.RUN, "--set", "input.kind=table",
                                         "--set", f"input.path={outdir / 'signal.csv'}"),
                                ["ledger.csv", "io.csv"])

    @pytest.fixture(scope="class")
    def stored(self, tmp_path_factory):
        """A stored trajectory, its sidecar and the artifacts of its plain
        replay, which the replay beside the sidecar gives byte for byte."""
        out = tmp_path_factory.mktemp("stored")
        assert run(out, "simulate", *self.RUN) == 0
        text, sidecar = (out / "trajectory.csv").read_bytes(), (out / "trajectory.npy").read_bytes()
        status, artifacts = self.replay(out / "replay", text)
        assert status == 0
        assert self.replay(out / "sidecar", text, sidecar) == (0, artifacts)
        return text, sidecar, artifacts

    @pytest.fixture(scope="class")
    def driven(self, tmp_path_factory):
        """The artifacts of the run driven by the unmutated table."""
        status, artifacts = self.simulate(tmp_path_factory.mktemp("table"), self.TABLE)
        assert status == 0
        return artifacts

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_trajectory(self, tmp_path_factory, stored, data):
        text, sidecar, plain = stored
        edited = data.draw(mutated(text))
        result = self.replay(tmp_path_factory.mktemp("replay"), edited)
        assert self.replay(tmp_path_factory.mktemp("beside"), edited, sidecar) == result
        if comments_added(text, edited):
            assert result == (0, plain)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_sidecar(self, tmp_path_factory, stored, data):
        text, sidecar, plain = stored
        edited = data.draw(mutated_sidecar(sidecar))
        assert self.replay(tmp_path_factory.mktemp("sidecar"), text, edited) == (0, plain)

    @settings(max_examples=100, deadline=None)
    @given(edited=mutated(TABLE))
    def test_mutated_signal_table(self, tmp_path_factory, driven, edited):
        result = self.simulate(tmp_path_factory.mktemp("table"), edited)
        if comments_added(self.TABLE, edited):
            assert result == (0, driven)


def config_keys(node, prefix=""):
    """Every dotted key of a configuration object, objects included."""
    for key, value in node.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from config_keys(value, f"{prefix}{key}.")


class TestConfigFuzz:
    """One hostile value for one configuration key, known or unknown, on 4
    cells and 4 steps, under the preset and the input and initial kinds that
    make the key read: every command ends with status 0, 1 or 2, with no
    exception out of main, no traceback or source line on stderr, the
    standard streams still open, and 0 only with finite artifacts.  The run
    writes nothing outside its outdir, and a refusal (2) that the context
    alone does not give names the key."""

    KEYS = (*config_keys(cli.DEFAULT_CONFIG), "bogus", "grid.bogus", "input.kind.deep",
            "time.n_steps.deep")
    # the text after 'key=', parsed as JSON where it is JSON
    HOSTILE = ("nan", "NaN", "Infinity", "-Infinity", "1e308", "-1e308", "1e400", "0", "-1",
               "2", "3.5", str(2 ** 63), "1" + "0" * 400, "true", "false", "null", "[]",
               "[1]", "[[0.5, 1]]", "{}", '{"a": 1}', '"x"', "x", "")
    READ_BY = {"input.freq": ("input.kind", "sinusoid"),
               "input.amplitude": ("input.kind", "sinusoid"),
               "input.component": ("input.kind", "sinusoid"),
               "input.path": ("input.kind", "table"),
               "initial.amplitude": ("initial.kind", "sine"),
               "initial.mode": ("initial.kind", "sine")}
    CONTEXT = st.fixed_dictionaries({"preset": st.sampled_from(cli.PRESETS),
                                     "input.kind": st.sampled_from(["zero", "sinusoid", "table"]),
                                     "initial.kind": st.sampled_from(["zero", "sine"])})
    PLAIN = {"preset": "wave-wt", "input.kind": "zero", "initial.kind": "zero"}

    @staticmethod
    def finite_artifacts(root):
        """Whether every number in the CSV files below root is finite; the
        text columns (bdspace's side and check) are skipped."""
        for path in root.rglob("*.csv"):
            for row in read_table(path, numeric=False)[2]:
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    if not np.isfinite(value):
                        return False
        return True

    @staticmethod
    def parsed(value):
        """The value as --set reads it: JSON where it is JSON, else the text."""
        try:
            return json.loads(value)
        except json.JSONDecodeError:
            return value

    @classmethod
    def names(cls, message, key, value):
        """Whether a refusal names key: by its dotted path, or by its last
        part as a word or before '_' (Grid1D, TimeGrid and the run headers
        name the grid and time fields bare, and wellposed names time.nu in
        nu_max = 2 time.nu).  An object value also counts as named by one of
        its own keys, which it sets."""
        parsed = cls.parsed(value)
        keys = [key, *(f"{key}.{sub}" for sub in parsed)] if isinstance(parsed, dict) else [key]
        return any(name in message or re.search(rf"\b{re.escape(name.rpartition('.')[2])}(\b|_)",
                                                message) for name in keys)

    @staticmethod
    def main_captured(cwd, argv):
        """The exit status and stderr of main(argv) run from cwd."""
        here = os.getcwd()
        stderr = io.StringIO()
        os.chdir(cwd)  # a relative outdir, hostile or not, lands in cwd
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                return main(argv), stderr.getvalue()
        finally:
            os.chdir(here)

    @pytest.mark.parametrize("command", ["wellposed", "simulate", "bdspace", "energy"])
    @settings(max_examples=100, deadline=None)
    @given(key=st.sampled_from(KEYS), value=st.sampled_from(HOSTILE), context=CONTEXT)
    # the counterexamples this test has found, each fixed
    @example(key="input.path", value="1", context=PLAIN)
    @example(key="grid.n_cells", value="1e308", context=PLAIN)
    @example(key="grid.a", value="1" + "0" * 400, context=PLAIN)
    @example(key="time.nu", value="1e308", context=PLAIN)
    @example(key="outdir", value="null", context=PLAIN)
    @example(key="outdir", value="[1]", context=PLAIN)
    @example(key="time.t_end", value="x", context=PLAIN)
    @example(key="grid.n_cells", value="x", context=PLAIN)
    @example(key="grid.b", value="1e308", context=PLAIN)
    @example(key="input.kind.deep", value="1", context=PLAIN)
    @example(key="input.path", value="x", context=PLAIN)
    @example(key="time.n_steps", value="1e308", context=PLAIN)
    @example(key="initial.mode", value="1e308", context=PLAIN)
    @example(key="time.n_steps", value="2", context=PLAIN)
    @example(key="time.t_end", value="2", context=PLAIN)
    @example(key="grid", value='{"a": 1}', context=PLAIN)
    @example(key="time.n_steps", value=str(2 ** 62), context=PLAIN)
    @example(key="input.amplitude", value="1e308", context={**PLAIN, "preset": "port-hamiltonian"})
    def test_hostile_value(self, command, key, value, context):
        context = {**context, "grid.n_cells": 4, "time.n_steps": 4}
        if key in self.READ_BY:
            context.update([self.READ_BY[key]])
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "signal.csv").write_text(parity.SIGNAL_TABLE, encoding="utf-8")
            context.update({"input.path": root / "signal.csv", "outdir": root / "run"})
            args = [arg for item in context.items() for arg in ("--set", "%s=%s" % item)]
            extra = []
            if command == "energy":
                # the replayed trajectory is the run of the context alone
                assert main(["simulate", *args, "--set", f"outdir={root / 'stored'}"]) in (0, 2)
                extra = ["--trajectory", str(root / "stored" / "trajectory.csv")]
            before = set(root.rglob("*"))
            status, stderr = self.main_captured(root, [command, *args, "--set", f"{key}={value}",
                                                       *extra])
            for fd in (1, 2):
                os.fstat(fd)  # an OSError when the run closed a standard stream
            assert status in (0, 1, 2)
            assert "Traceback" not in stderr and ".py:" not in stderr
            assert status or self.finite_artifacts(root)
            # a hostile outdir that is a path string is the run's outdir, relative to root
            outdir = root / "run"
            if key == "outdir":
                hostile = self.parsed(value)
                outdir = root / hostile if isinstance(hostile, str) else None
            outside = [path for path in set(root.rglob("*")) - before
                       if outdir is None or not path.is_relative_to(outdir)]
            assert not outside, f"written outside the outdir {outdir}: {sorted(outside)}"
            if status == 2:
                alone = self.main_captured(root, [command, *args, *extra])
                assert alone == (2, stderr) or self.names(stderr, key, value), stderr


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

    def test_bdspace_non_finite_boundary_triple_is_named(self, tmp_path, capsys, monkeypatch):
        """A NaN from the boundary triple's Green identity fails its row."""
        monkeypatch.setattr(cli, "boundary_triple_defect", lambda *args: np.nan)
        assert run(tmp_path, "bdspace") == 1
        assert capsys.readouterr().out == (
            "boundary space dimensions: G = 2, D = 2; worst defect = nan (tolerance 1e-10)\n"
            "boundary_triple defect is not finite\n")

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

    @pytest.mark.parametrize("n_cells,tail", [
        (4, ""),
        (2, "dimension mismatch between the node and cell sides\n"),
    ], ids=["4-cells", "2-cells"])
    def test_bdspace_at_the_grid_bound_prints_no_warning(self, tmp_path, capsys, n_cells, tail):
        """On cells of width 1.6e-154, the Grid1D bound, the transport misses
        unitarity by far more than the tolerance, and on 2 cells the cell
        side loses a dimension.  The Householder QR squares no norm, so the
        rows stay finite (the Gram-Schmidt basis left float64 here and
        printed nan and inf), with no numpy warning."""
        assert run(tmp_path, "bdspace", "--set", f"grid.n_cells={n_cells}",
                   "--set", f"grid.b={n_cells * 1.6e-154}") == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        worst = re.fullmatch(
            rf"boundary space dimensions: G = 2, D = {n_cells // 2}; worst defect = (\S+) "
            rf"\(tolerance 1e-10\)\n{tail}", captured.out)
        assert 1e-10 < float(worst[1]) < np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scheme,step", [("implicit_midpoint", 15),
                                             ("backward_euler", 16)])
    def test_overflowing_maxwell_run_is_refused_without_warnings(self, tmp_path, capsys,
                                                                scheme, step):
        """The Maxwell sources overflow silently; the step refusal alone speaks."""
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d",
                   "--set", "grid.n_cells=16", "--set", f"scheme={scheme}",
                   "--set", "input.kind=sinusoid", "--set", "input.amplitude=1e308") == 2
        assert capsys.readouterr().err == (
            f"error: array must not contain infs or NaNs: the right side of step {step}; the "
            "input or the initial state (input.amplitude, input.path, initial.amplitude) "
            "leaves float64\n")


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
        """The file's bytes, and the byte length and CRC-32 that write_csv returns."""
        path = tmp_path / "out.csv"
        check = write_csv(path, ["seed=1"], columns, data)
        assert path.read_bytes() == self.expected(["seed=1"], columns, data).encode()
        assert check == (path.stat().st_size, zlib.crc32(path.read_bytes()))

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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.floats() | st.integers(-2 ** 70, 2 ** 70),
                             min_size=3, max_size=3), max_size=5))
    def test_random_rows(self, tmp_path_factory, rows):
        columns = [[row[i] for row in rows] for i in range(3)]
        self.check(tmp_path_factory.mktemp("csv"), ["a", "b", "c"], columns)


class TestSidecar:
    """simulate writes trajectory.npy beside trajectory.csv for the presets
    that energy replays: the table that _read_csv parses from the file, bit
    for bit, then its check record, and a replay of the unedited file takes
    the table from it."""

    DRIVE = ("--set", "grid.n_cells=8", "--set", "time.n_steps=40", "--set", "input.kind=sinusoid",
             "--set", "input.freq=3", "--set", "initial.kind=sine")

    @pytest.mark.parametrize("margin", [cli._MARGIN, 0.5], ids=["platform", "fallback"])
    @pytest.mark.parametrize("scheme", ["backward_euler", "implicit_midpoint"])
    @pytest.mark.parametrize("preset", parity.CONTROL_PRESETS)
    def test_sidecar_round_trip(self, tmp_path, monkeypatch, preset, scheme, margin):
        """np.load and the replay's reader take from trajectory.npy what
        _read_csv parses from trajectory.csv: the same comments and the
        same float64 table, bit for bit, whether the writer takes this
        platform's lanes or, at a margin of 1/2, '%.17g' for every value."""
        monkeypatch.setattr(cli, "_MARGIN", margin)
        assert run(tmp_path, "simulate", "--set", f"preset={preset}", "--set", f"scheme={scheme}",
                   *self.DRIVE) == 0
        path = tmp_path / "trajectory.csv"
        comments, table, _ = cli._read_csv(path, "trajectory file")
        loaded = np.load(tmp_path / "trajectory.npy")  # the check record follows the table
        assert loaded.dtype == np.dtype("<f8") and loaded.tobytes() == table.tobytes()
        stored_comments, stored = cli._read_sidecar(path, table.shape)
        assert stored_comments == comments and stored.tobytes() == table.tobytes()

    def test_replay_takes_the_table_from_the_sidecar(self, tmp_path, monkeypatch):
        """The replay of the unedited file parses none of its text, and
        writes the ledger of the replay of a copy without the sidecar."""
        assert run(tmp_path / "sim", "simulate", *self.DRIVE) == 0
        copy = tmp_path / "text" / "trajectory.csv"
        copy.parent.mkdir()
        copy.write_bytes((tmp_path / "sim" / "trajectory.csv").read_bytes())
        assert run(tmp_path / "text", "energy", *self.DRIVE, "--trajectory", str(copy)) == 0
        monkeypatch.setattr(cli, "_read_csv", None)
        assert run(tmp_path / "sidecar", "energy", *self.DRIVE,
                   "--trajectory", str(tmp_path / "sim" / "trajectory.csv")) == 0
        assert (tmp_path / "sidecar" / "ledger.csv").read_bytes() == \
            (tmp_path / "text" / "ledger.csv").read_bytes()

    def test_maxwell_run_writes_no_sidecar(self, tmp_path):
        """energy refuses the Maxwell preset, so its run writes no table."""
        assert run(tmp_path, "simulate", "--set", "preset=maxwell-lift-1d", *self.DRIVE) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["io.csv", "ledger.csv",
                                                              "trajectory.csv"]


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
