"""Peak resident memory of each command of a benchmark workload, read
without the benchmark runner's own high-water mark.

    python tools/peak.py WORKLOAD --seed 1 --repeat 5

Runs the invocations of one iteration of WORKLOAD (perfbench/workloads.py,
at the parameters its seed draws) REPEAT times, in order, each as
`python -m evoctl.cli` against the src/ of the checkout that holds this
file, with one BLAS thread, EVOCTL_SEED=SEED and outdirs in a temporary
directory.  Each invocation is started by its own `python -S` parent that
does nothing else, and that parent reports the child's ru_maxrss from
os.wait4.  At exec Linux carries the starting process's high-water mark
into the child's ru_maxrss, so a child started by perfbench/run.py reads
at least the runner's own peak; a bare `python -S` parent stays far below
any evoctl command.  Prints the min, median and max peak in MB of each
command, and exits 1 when an invocation exits with another status than 0.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, draw_params, invocations  # noqa: E402

# the parent of one invocation: start it with its stdout on /dev/null, wait,
# and print its exit status and ru_maxrss (KiB)
LAUNCH = """import os, sys
quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "evoctl.cli", *sys.argv[1:]],
                     os.environ, file_actions=quiet)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), EVOCTL_SEED=str(args.seed),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    peaks = {}
    with tempfile.TemporaryDirectory() as work:
        invs = invocations(args.workload, draw_params(args.workload, args.seed), Path(work))
        for _ in range(args.repeat):
            for inv in invs:
                inv.outdir.mkdir(parents=True, exist_ok=True)
                proc = subprocess.run([sys.executable, "-S", "-c", LAUNCH, *inv.argv], env=env,
                                      cwd=ROOT, capture_output=True, text=True, check=True)
                code, kib = map(int, proc.stdout.split())
                if code != 0:
                    print(f"error: {inv.command} exited {code}\n{proc.stderr}", file=sys.stderr)
                    return 1
                peaks.setdefault(inv.command, []).append(kib / 1024.0)
    for command, mb in peaks.items():
        print(f"{args.workload} {command}: peak RSS min {min(mb):.2f}, median "
              f"{statistics.median(mb):.2f}, max {max(mb):.2f} MB over {len(mb)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
