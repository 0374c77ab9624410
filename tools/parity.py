"""Parity matrix of the evoctl command line: run a fixed set of CLI
invocations and keep everything they produce, so that two checkouts can
be compared byte for byte.

    python tools/parity.py OUTDIR

Each case runs `python -m evoctl.cli` in a fresh process against the
src/ of the checkout that holds this file, with one BLAS thread and the
default sampling seed, and writes its artifacts to its own directory
under OUTDIR beside stdout.txt, stderr.txt and exit_code.txt.  In the
captured streams the paths of OUTDIR and of the checkout read <outdir>
and <checkout>.  Two checkouts agree when `diff -r` of their output
directories is empty.  The tool exits 1, naming each case, when a case
ends with another status than the one the command line documents for
it, and 0 otherwise.

The matrix: every preset under both schemes with a sinusoid input at
frequency 3 and a sine initial profile (n_cells 24, 16 for the
port-Hamiltonian chain), an energy replay of each control preset's run,
a replay of the backward-Euler chain run under the default (midpoint)
scheme, energy-hash-comment (the replay of the wave-wt midpoint run with
a '#note' line inserted before the column header of its trajectory and
the run's trajectory.npy beside it, which no longer matches the file and
is refused) and energy-sidecar-corrupt (the same run's trajectory.csv
beside its trajectory.npy with one table byte flipped, which is refused),
each of whose ledger.csv is the plain replay's byte for byte, a wave-wt run
driven by the signal table SIGNAL_TABLE (written into its case
directory), wellposed for each preset, bdspace on the grids of
BDSPACE_GRIDS (each bd_defects.csv holds six rows, the boundary triple's
Green identity last), wellposed for the chain on [0, 1e-140]
(wellposed-port-hamiltonian-b1e-140), and the benchmark's cubic-wave and
long-horizon configurations (perfbench/workloads.py) at input frequency 3 and initial
mode 2.  All of these exit 0.  Failing verdicts follow, each exiting 1:
the driven wave-wt run, its energy replay and the driven Maxwell run
under tolerance 1e-30 (each printing its max line), bdspace on [0, 0.01]
with 64 cells, whose unitarity defect exceeds 1e-10, and a
port-Hamiltonian run whose sinusoid input of amplitude 1e300 overflows
the ledger, naming its first non-finite step without a numpy warning,
and fail-simulate-maxwell-overflow, the Maxwell run on 16 cells under
the same input, whose energies leave float64 and are written as they
are, without a numpy warning, and whose route gap exceeds 1e-9,
fail-simulate-overflow, the port-Hamiltonian run under amplitude 1e308,
whose states leave float64 and go on as inf and NaN, so that its ledger
names its first non-finite step without a numpy warning, bdspace on 4
cells at the Grid1D bound of the cell width
(fail-bdspace-at-the-grid-bound), and bdspace on 4 cells of width 1e-146
(fail-bdspace-b4e-146-4), whose transports miss unitarity by far more
than 1e-10, which their finite rows report without a numpy warning.
Refusals close the matrix,
each with the status the command line documents for it: a certificate
that fails (1, printing its witness), and an invalid time grid, a table
input without a path, one whose path is the number 1 (which open() would
take as the file descriptor of stdout), refuse-simulate-table-ragged
(SIGNAL_TABLE with a field missing from one row), a wave-wt trajectory
replayed as wave-mixed, a wave-wt run whose sinusoid phase freq * t_end
= 1e308 * 10 is not finite, refused naming input.freq and time.t_end
before any step (refuse-simulate-freq-1e308), a grid
of 1e308 cells, a weight time.nu = 1e308, whose nu_max = 2 time.nu is
not finite, an outdir of null, which is no path string
(refuse-bdspace-outdir-null), a time.t_end of x, refused naming the key
(refuse-wellposed-t_end-string), a time.n_steps of 2**62, whose arrays
no address space holds (refuse-simulate-n_steps-2e62), an outdir of 300
x's, a name too long for the file system
(refuse-bdspace-outdir-too-long), each refused naming its key, the
default wave on [0, 1e-140], whose boundary data transport is far from
unitary, refused naming the cell width (refuse-wellposed-wave-wt-b1e-140),
and simulate of the chain there, whose step matrix is refused as
numerically singular naming the keys that set tau and h
(refuse-simulate-port-hamiltonian-b1e-140) (2 each).
Each case runs in its own directory, so a relative outdir would land there.
"""

import argparse
import functools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import invocations  # noqa: E402

PRESETS = {"wave-wt": 24, "wave-mixed": 24, "port-hamiltonian": 16, "maxwell-lift-1d": 24}
CONTROL_PRESETS = ("wave-wt", "wave-mixed", "port-hamiltonian")
SCHEMES = ("backward_euler", "implicit_midpoint")
WORKLOAD_PARAMS = {"freq": 3.0, "mode": 2}
# (case name, grid.a, grid.b, grid.n_cells): the default interval, two cells
# on a longer one, and an interval off the origin
BDSPACE_GRIDS = (("bdspace-24", 0, 1, 24), ("bdspace-2-b3", 0, 3, 2),
                 ("bdspace-24-m2-3", -2, 3, 24))

# time, u0, u1 for the two boundary inputs of wave-wt, one '#' line first
SIGNAL_TABLE = """# piecewise linear boundary signal
t,u0,u1
0,0,0
0.25,0.5,-0.25
0.5,1,0.5
0.75,0.25,-1
1,0,0
"""


def _sets(*pairs):
    return [arg for key, value in pairs for arg in ("--set", f"{key}={value}")]


def note_before_header(stored: Path, edited: Path):
    """Write stored to edited with a '#note' line before its column header,
    and copy the sidecar of stored beside edited."""
    lines = stored.read_text(encoding="utf-8").splitlines(True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    edited.write_text("".join(lines[:header] + ["#note\n"] + lines[header:]), encoding="utf-8")
    edited.with_suffix(".npy").write_bytes(stored.with_suffix(".npy").read_bytes())


def flip_table_byte(stored: Path, copy: Path):
    """Copy stored to copy, and its sidecar beside it with the first byte of
    the table's last value flipped."""
    copy.write_bytes(stored.read_bytes())
    sidecar = bytearray(stored.with_suffix(".npy").read_bytes())
    sidecar[-32] ^= 0xFF  # the check record takes the last 24 bytes
    copy.with_suffix(".npy").write_bytes(sidecar)


def matrix(out: Path) -> list:
    """(outdir, argv, expected exit status, prepare) of every case in run
    order; each argv sets its outdir and a replay follows the run it
    replays.  prepare is None or writes, just before its case runs, the
    input file that the case derives from an earlier case's output.  Writes
    the signal tables into the directories of the cases that read them."""
    cases = []
    drive = (("input.kind", "sinusoid"), ("input.freq", 3), ("initial.kind", "sine"))
    for preset, n_cells in PRESETS.items():
        grid = (("preset", preset), ("grid.n_cells", n_cells))
        case = out / f"wellposed-{preset}"
        cases.append((case, ["wellposed", *_sets(*grid, ("outdir", case))]))
        for scheme in SCHEMES:
            common = _sets(*grid, ("scheme", scheme), *drive)
            sim = out / f"simulate-{preset}-{scheme}"
            cases.append((sim, ["simulate", *common, *_sets(("outdir", sim))]))
            if preset in CONTROL_PRESETS:
                case = out / f"energy-{preset}-{scheme}"
                cases.append((case, ["energy", *common, *_sets(("outdir", case)),
                                     "--trajectory", str(sim / "trajectory.csv")]))
        if preset == "port-hamiltonian":
            case = out / "energy-port-hamiltonian-backward_euler-as-midpoint"
            stored = out / "simulate-port-hamiltonian-backward_euler" / "trajectory.csv"
            cases.append((case, ["energy", *_sets(*grid, *drive, ("outdir", case)),
                                 "--trajectory", str(stored)]))
    tables = {"simulate-wave-wt-table": SIGNAL_TABLE,
              "refuse-simulate-table-ragged": SIGNAL_TABLE.replace("0.5,1,0.5", "0.5,1")}
    for name, text in tables.items():
        (out / name).mkdir(parents=True)
        (out / name / "signal.csv").write_text(text, encoding="utf-8")
    table = (("preset", "wave-wt"), ("grid.n_cells", PRESETS["wave-wt"]), ("input.kind", "table"))
    case = out / "simulate-wave-wt-table"
    cases.append((case, ["simulate", *_sets(*table, ("input.path", case / "signal.csv"),
                                            ("initial.kind", "sine"), ("outdir", case))]))
    for name, a, b, n_cells in BDSPACE_GRIDS:
        case = out / name
        cases.append((case, ["bdspace", *_sets(("grid.a", a), ("grid.b", b),
                                               ("grid.n_cells", n_cells), ("outdir", case))]))
    # the chain on cells of width 6.25e-142, which it certifies
    case = out / "wellposed-port-hamiltonian-b1e-140"
    cases.append((case, ["wellposed", *_sets(("preset", "port-hamiltonian"), ("grid.b", 1e-140),
                                             ("outdir", case))]))
    for workload in ("cubic-wave", "long-horizon"):
        cases += [(inv.outdir, list(inv.argv))
                  for inv in invocations(workload, WORKLOAD_PARAMS, out / workload)]
    cases = [(case, args, 0, None) for case, args in cases]
    replayed = out / "simulate-wave-wt-implicit_midpoint" / "trajectory.csv"
    # the ledger names its source by file name, so the edited copy keeps it
    case = out / "energy-hash-comment"
    edited = case / "trajectory.csv"
    cases.append((case, ["energy", *_sets(("grid.n_cells", PRESETS["wave-wt"]),
                                          ("scheme", "implicit_midpoint"), *drive,
                                          ("outdir", case)), "--trajectory", str(edited)],
                  0, functools.partial(note_before_header, replayed, edited)))
    case = out / "energy-sidecar-corrupt"
    copy = case / "trajectory.csv"
    cases.append((case, ["energy", *_sets(("grid.n_cells", PRESETS["wave-wt"]),
                                          ("scheme", "implicit_midpoint"), *drive,
                                          ("outdir", case)), "--trajectory", str(copy)],
                  0, functools.partial(flip_table_byte, replayed, copy)))
    # the driven wave-wt and Maxwell runs (both on 24 cells) under a tolerance
    # that their roundoff exceeds
    tight = (("grid.n_cells", 24), *drive, ("tolerance", 1e-30))
    failed = out / "fail-simulate-wave-wt-tolerance" / "trajectory.csv"
    ragged = out / "refuse-simulate-table-ragged" / "signal.csv"
    for name, status, args in (
        ("fail-simulate-wave-wt-tolerance", 1, ["simulate", *_sets(*tight)]),
        ("fail-energy-wave-wt-tolerance", 1,
         ["energy", *_sets(*tight), "--trajectory", str(failed)]),
        ("fail-simulate-maxwell-lift-1d-tolerance", 1,
         ["simulate", *_sets(("preset", "maxwell-lift-1d"), *tight)]),
        ("fail-bdspace-b0.01-64", 1,
         ["bdspace", *_sets(("grid.b", 0.01), ("grid.n_cells", 64))]),
        ("fail-simulate-ledger-not-finite", 1, ["simulate", *_sets(
            ("preset", "port-hamiltonian"), ("grid.n_cells", PRESETS["port-hamiltonian"]),
            ("input.kind", "sinusoid"), ("input.amplitude", 1e300))]),
        ("fail-simulate-maxwell-overflow", 1, ["simulate", *_sets(
            ("preset", "maxwell-lift-1d"), ("grid.n_cells", 16),
            ("input.kind", "sinusoid"), ("input.amplitude", 1e300))]),
        ("fail-simulate-overflow", 1, ["simulate", *_sets(
            ("preset", "port-hamiltonian"), ("grid.n_cells", PRESETS["port-hamiltonian"]),
            ("input.kind", "sinusoid"), ("input.amplitude", 1e308))]),
        ("fail-bdspace-at-the-grid-bound", 1,
         ["bdspace", *_sets(("grid.n_cells", 4), ("grid.b", 6.4e-154))]),
        ("fail-bdspace-b4e-146-4", 1,
         ["bdspace", *_sets(("grid.n_cells", 4), ("grid.b", 4e-146))]),
        ("refuse-wellposed-zero-damping", 1, ["wellposed", "--zero-damping"]),
        ("refuse-wellposed-t_end-0", 2, ["wellposed", *_sets(("time.t_end", 0))]),
        ("refuse-simulate-table-without-path", 2,
         ["simulate", *_sets(("input.kind", "table"))]),
        ("refuse-simulate-table-path-number", 2,
         ["simulate", *_sets(("input.kind", "table"), ("input.path", 1))]),
        ("refuse-simulate-table-ragged", 2,
         ["simulate", *_sets(*table, ("input.path", ragged))]),
        ("refuse-energy-wave-wt-as-wave-mixed", 2, ["energy", *_sets(
            ("preset", "wave-mixed"), ("grid.n_cells", PRESETS["wave-wt"]),
            ("scheme", "implicit_midpoint"), *drive), "--trajectory", str(replayed)]),
        ("refuse-simulate-freq-1e308", 2, ["simulate", *_sets(
            ("input.kind", "sinusoid"), ("input.freq", 1e308), ("time.t_end", 10))]),
        ("refuse-wellposed-n_cells-1e308", 2, ["wellposed", *_sets(("grid.n_cells", 1e308))]),
        ("refuse-wellposed-nu-1e308", 2, ["wellposed", *_sets(("time.nu", 1e308))]),
        ("refuse-bdspace-outdir-null", 2, ["bdspace", *_sets(("outdir", "null"))]),
        ("refuse-wellposed-t_end-string", 2, ["wellposed", *_sets(("time.t_end", "x"))]),
        ("refuse-simulate-n_steps-2e62", 2, ["simulate", *_sets(("time.n_steps", 2 ** 62))]),
        ("refuse-bdspace-outdir-too-long", 2, ["bdspace", *_sets(("outdir", "x" * 300))]),
        ("refuse-wellposed-wave-wt-b1e-140", 2, ["wellposed", *_sets(("grid.b", 1e-140))]),
        ("refuse-simulate-port-hamiltonian-b1e-140", 2,
         ["simulate", *_sets(("preset", "port-hamiltonian"), ("grid.b", 1e-140))]),
    ):
        case = out / name
        # the case's outdir comes first, so that a case may set its own
        cases.append((case, [args[0], *_sets(("outdir", case)), *args[1:]], status, None))
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path, help="new or empty output directory")
    out = parser.parse_args(argv).outdir.resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty; stale artifacts would enter the comparison",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("EVOCTL_SEED", None)
    mismatched = []
    for case, args, expected, prepare in matrix(out):
        case.mkdir(parents=True, exist_ok=True)
        if prepare is not None:
            prepare()
        proc = subprocess.run([sys.executable, "-m", "evoctl.cli", *args], env=env, cwd=case,
                              capture_output=True, text=True)
        for name, text in (("stdout.txt", proc.stdout), ("stderr.txt", proc.stderr)):
            text = text.replace(str(out), "<outdir>").replace(str(ROOT), "<checkout>")
            (case / name).write_text(text, encoding="utf-8")
        (case / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")
        print(f"{case.relative_to(out)}: exit {proc.returncode}")
        if proc.returncode != expected:
            mismatched.append(f"{case.relative_to(out)}: exit {proc.returncode}, "
                              f"expected {expected}")
    for line in mismatched:
        print(f"unexpected exit status: {line}", file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
