"""Alternating A/B runs of the benchmark: a base checkout against this one.

    python tools/ab.py BASE --pairs 10 --seed 501 --seconds 20

BASE is another checkout of the repository, for example a `git clone` of
the parent commit.  Pair i runs `perfbench/run.py --trace 0` of both
checkouts with seed SEED + i and the same --seconds, each side against its
own src/, once per workload; the base runs first in even pairs and the
change first in odd ones.  Only the last line of each run, the JSON
result, is read.  The workloads and the end-to-end metrics with the
direction in which each gets better come from this checkout's
BENCHMARK.json, and every workload is run.

For each workload and metric the summary gives each side's median and
quartiles over the pairs, the number of pairs the change won (ties count
for neither side), whether the medians differ by more than the distance
between the base's quartiles, whether every run of the change is better
than every run of the base, and whether the change's median is worse than
the base's by more than the metric's bound in BENCHMARK.json, a fraction
of the base median.  A run that fails or reports a failed operation stops
the tool with exit status 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of the last line of one untraced benchmark run."""
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed}: {result['failed']} of "
                           f"{result['attempted']} operations failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    """(q1, median, q3), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summary(workload, metrics, base, change) -> list:
    """Lines of the summary table of one workload; metrics maps each name to
    its BENCHMARK.json entry, which gives `better` and `bound`."""
    lines = [f"== {workload}, {len(base)} pair(s)",
             f"{'metric':14} {'base median [q1, q3]':>32} {'change median [q1, q3]':>32}"
             f" {'change/base':>11} {'won':>6}  beyond base IQR  all better  worse than bound"]
    for name, metric in metrics.items():
        # sign * value grows as the metric gets worse
        sign = 1 if metric["better"] == "lower" else -1
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        won = sum(sign * (y - x) < 0 for x, y in zip(b, c))
        (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(b), quartiles(c)
        flags = (abs(cmed - bmed) > bq3 - bq1,
                 max(sign * y for y in c) < min(sign * x for x in b),
                 sign * (cmed - bmed) > metric["bound"] * abs(bmed))
        beyond, all_better, worse = ("yes" if flag else "no" for flag in flags)
        lines.append(f"{name:14} {bmed:12.6g} [{bq1:8.4g}, {bq3:8.4g}] "
                     f"{cmed:12.6g} [{cq1:8.4g}, {cq3:8.4g}] {cmed / bmed:11.4f} "
                     f"{won:3d}/{len(b):<2d}  {beyond:15}  {all_better:10}  {worse}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare this one against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        print(f"error: no perfbench/run.py under {base}", file=sys.stderr)
        return 2
    if base == ROOT:
        print(f"error: {base} is this checkout", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    trees = {"base": base, "change": ROOT}
    runs = {(w, side): [] for w in workloads for side in trees}
    try:
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for workload in workloads:
                for side in order:
                    runs[workload, side].append(
                        run_once(trees[side], workload, args.seed + i, args.seconds))
                line = "  ".join(f"{name} {runs[workload, 'base'][-1][name]:.4g} -> "
                                 f"{runs[workload, 'change'][-1][name]:.4g}" for name in metrics)
                print(f"pair {i + 1} seed {args.seed + i} {workload}: {line}", flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload in workloads:
        print("\n".join(summary(workload, metrics, runs[workload, "base"],
                                runs[workload, "change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
