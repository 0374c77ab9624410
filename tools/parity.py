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
scheme, a wave-wt run driven by the signal table SIGNAL_TABLE (written
into its case directory), wellposed for each preset, bdspace on the
grids of BDSPACE_GRIDS, and the benchmark's cubic-wave and long-horizon
configurations (perfbench/workloads.py) at input frequency 3 and initial
mode 2.  All of these exit 0.  Refusals follow, each with the status the
command line documents for it: a certificate that fails (1, printing its
witness), and an invalid time grid, a table input without a path and a
wave-wt trajectory replayed as wave-mixed (2 each).
"""

import argparse
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


def matrix(out: Path) -> list:
    """(outdir, argv, expected exit status) of every case in run order; each
    argv sets its outdir and a replay follows the run it replays.  Writes
    SIGNAL_TABLE into the directory of the case that reads it."""
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
    case = out / "simulate-wave-wt-table"
    case.mkdir(parents=True)
    (case / "signal.csv").write_text(SIGNAL_TABLE, encoding="utf-8")
    cases.append((case, ["simulate", *_sets(
        ("preset", "wave-wt"), ("grid.n_cells", PRESETS["wave-wt"]),
        ("input.kind", "table"), ("input.path", case / "signal.csv"),
        ("initial.kind", "sine"), ("outdir", case))]))
    for name, a, b, n_cells in BDSPACE_GRIDS:
        case = out / name
        cases.append((case, ["bdspace", *_sets(("grid.a", a), ("grid.b", b),
                                               ("grid.n_cells", n_cells), ("outdir", case))]))
    for workload in ("cubic-wave", "long-horizon"):
        cases += [(inv.outdir, list(inv.argv))
                  for inv in invocations(workload, WORKLOAD_PARAMS, out / workload)]
    cases = [(case, args, 0) for case, args in cases]
    replayed = out / "simulate-wave-wt-implicit_midpoint" / "trajectory.csv"
    for name, status, args in (
        ("refuse-wellposed-zero-damping", 1, ["wellposed", "--zero-damping"]),
        ("refuse-wellposed-t_end-0", 2, ["wellposed", *_sets(("time.t_end", 0))]),
        ("refuse-simulate-table-without-path", 2,
         ["simulate", *_sets(("input.kind", "table"))]),
        ("refuse-energy-wave-wt-as-wave-mixed", 2, ["energy", *_sets(
            ("preset", "wave-mixed"), ("grid.n_cells", PRESETS["wave-wt"]),
            ("scheme", "implicit_midpoint"), *drive), "--trajectory", str(replayed)]),
    ):
        case = out / name
        cases.append((case, [*args, *_sets(("outdir", case))], status))
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
    for case, args, expected in matrix(out):
        case.mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "evoctl.cli", *args], env=env,
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
