"""Closed-loop benchmark of the evoctl command line.

    python3 perfbench/run.py --workload cubic-wave --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

One client runs a workload's invocations one after another, each in a
fresh `python -m evoctl.cli` process started after the previous one has
ended, and repeats the sequence until the next repetition would end
after --seconds.  Each repetition first times set-up three times: a fresh
interpreter that imports evoctl and assembles the workload's systems.
Every invocation is judged from its artifacts (gate.py); a miss counts
as a failed operation.

--trace 0 reports the end-to-end metrics: medians with quartiles and
sample counts in a table, and the medians in the last line.  --trace 1
runs the same invocations in this process through evoctl.cli.main with
spans around each layer (tracing.py) and reports per-layer metrics; its
timings are not end-to-end numbers.  --workload all runs every workload
in turn.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

Runs against the evoctl sources in src/ next to this directory, with the
BLAS thread count pinned to 1 for this process and every child.
Artifacts and result records go to .perfbench_work/.
"""

import os
import sys

# One BLAS thread: on two cores the second OpenBLAS thread spins through the
# small per-step products and does not speed up the dim-388 factorizations.
BLAS_THREADS = 1
BLAS_ENV = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    # before numpy loads, so the in-process traced run is pinned as well
    os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, draw_params, invocations, reference_key  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
PROBES_PER_ITERATION = 3
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# name -> unit.  E2E_LAST_LINE is what the last line carries on every
# workload; the per-command timings exist only on the workloads that run
# the command and are reported in the table.
E2E_LAST_LINE = {"setup_s": "s", "wall_s": "s", "simulate_s": "s", "peak_rss_mb": "MB"}
E2E_TABLE = {**E2E_LAST_LINE, "wellposed_s": "s", "energy_s": "s", "bdspace_s": "s",
             "failed_frac": "ratio"}
PER_LAYER = {
    "operators.build_sbp_pair_1d_s": "s",
    "bdspace.compute_bd_space_s": "s",
    "bdspace.compute_bd_space_calls": "count",
    "bdspace.unitarity_defect": "1",
    "models.build_self_s": "s",
    "models.maxwell_lift_solve_self_s": "s",
    "evolution.check_wellposed_s": "s",
    "evolution.check_wellposed_calls": "count",
    "evolution.eigvalsh_calls": "count",
    "evolution.eigvalsh_per_certificate": "ratio",
    "evolution.lu_factor_s": "s",
    "evolution.cond_s": "s",
    "evolution.step_loop_s": "s",
    "evolution.steps": "count",
    "control.energy_ledger_s": "s",
    "control.energy_ledger_calls": "count",
    "control.compat_checks_per_system": "ratio",
    "control.extract_io_s": "s",
    "cli.write_csv_s": "s",
    "cli.csv_bytes_written": "B",
    "cli.cmd_wellposed_self_s": "s",
    "cli.cmd_simulate_self_s": "s",
    "cli.cmd_energy_self_s": "s",
    "cli.cmd_bdspace_self_s": "s",
    "setup.import_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
}
MODEL_BUILDERS = ("models.build_weiss_tucsnak_wave", "models.build_mixed_type_wave",
                  "models.build_port_hamiltonian")


def child_env(seed: int) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(BLAS_ENV, PYTHONPATH=str(SRC), EVOCTL_SEED=str(seed))
    return env


def quartiles(values):
    """(q1, median, q3) of the samples, as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def closed_loop(seconds: float, iterate) -> list:
    """Call iterate() until the next call would end after `seconds`,
    judging by the last call's duration; at least once."""
    start = time.perf_counter()
    results, last = [], 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(iterate())
        last = time.perf_counter() - began
    return results


def blas_threads():
    """Live thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    """Versions, core count, and the BLAS library numpy loaded with its
    live thread count.  This process runs with the same pinned BLAS
    variables as every child."""
    import evoctl
    import numpy as np
    import scipy

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "evoctl": evoctl.__version__,
            "blas": f"{info.get('name')} {info.get('version')}", "blas_threads": blas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "blas_threads_pinned": BLAS_THREADS}


def setup_probe(name, params, env, sizes):
    """Wall time of one fresh interpreter that imports evoctl and
    assembles the workload's systems, plus what it reports."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, json.dumps(params)]
    if sizes is not None:
        argv.append(json.dumps(sizes))
    start = time.perf_counter()
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         check=True)
    elapsed = time.perf_counter() - start
    return elapsed, json.loads(out.stdout.strip().splitlines()[-1])


def spawn(inv, env):
    """Run one invocation in a fresh process.  Returns (seconds, exit
    status, peak RSS in MB, captured output)."""
    log = inv.outdir / "stdout.txt"
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "evoctl.cli", *inv.argv],
                                cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, log.read_text()


def call_main(cli, argv):
    """Run evoctl.cli.main in this process.  Returns (exit status, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc(file=buf)
            code = 1
    return code, buf.getvalue()


def fresh_dirs(invs):
    for inv in invs:
        shutil.rmtree(inv.outdir, ignore_errors=True)
        inv.outdir.mkdir(parents=True)


def judge(invs, outcomes, reference):
    """Gate every invocation of an iteration.  Returns a list of
    (command, ok, reason)."""
    return [(inv.command, *gate.check(inv.command, inv.outdir, code, text,
                                      reference.get(inv.command)))
            for inv, (code, text) in zip(invs, outcomes)]


def untraced(invs, env, reference):
    def iterate():
        fresh_dirs(invs)
        times, rss, outcomes = {}, [], []
        start = time.perf_counter()
        for inv in invs:
            elapsed, code, peak, text = spawn(inv, env)
            times[f"{inv.command}_s"] = elapsed
            rss.append(peak)
            outcomes.append((code, text))
        times["wall_s"] = time.perf_counter() - start
        return times, max(rss), judge(invs, outcomes, reference)

    return iterate


def layer_metrics(tracer, wall, cost, invs):
    self_s, calls = tracer.self_times()

    def self_of(*names):
        return sum(self_s.get(name, 0.0) for name in names)

    certs = calls["evolution.check_wellposed"]
    systems = len(tracer.systems)
    unitarity = [gate.unitarity_defect(inv.outdir) for inv in invs if inv.command == "bdspace"]
    wrapped_calls = len(tracer.spans) + sum(tracer.counts.values())
    return {
        "operators.build_sbp_pair_1d_s": self_of("operators.build_sbp_pair_1d"),
        "bdspace.compute_bd_space_s": self_of("bdspace.compute_bd_space"),
        "bdspace.compute_bd_space_calls": calls["bdspace.compute_bd_space"],
        "bdspace.unitarity_defect": max(unitarity) if unitarity else 0.0,
        "models.build_self_s": self_of(*MODEL_BUILDERS),
        "models.maxwell_lift_solve_self_s": self_of("models.maxwell_lift_solve"),
        "evolution.check_wellposed_s": self_of("evolution.check_wellposed"),
        "evolution.check_wellposed_calls": certs,
        "evolution.eigvalsh_calls": tracer.count("evolution.eigvalsh"),
        "evolution.eigvalsh_per_certificate":
            tracer.count("evolution.eigvalsh", "evolution.check_wellposed") / certs
            if certs else 0.0,
        "evolution.lu_factor_s": self_of("evolution.lu_factor"),
        "evolution.cond_s": self_of("evolution.cond"),
        "evolution.step_loop_s": self_of("evolution.solve"),
        "evolution.steps": tracer.steps,
        "control.energy_ledger_s": self_of("control.energy_ledger"),
        "control.energy_ledger_calls": calls["control.energy_ledger"],
        "control.compat_checks_per_system":
            tracer.count("control.check_compatibility") / systems if systems else 0.0,
        "control.extract_io_s": self_of("control.extract_io"),
        "cli.write_csv_s": self_of("cli.write_csv"),
        "cli.csv_bytes_written": tracer.csv_bytes,
        "cli.cmd_wellposed_self_s": self_of("cli.cmd_wellposed"),
        "cli.cmd_simulate_self_s": self_of("cli.cmd_simulate"),
        "cli.cmd_energy_self_s": self_of("cli.cmd_energy"),
        "cli.cmd_bdspace_self_s": self_of("cli.cmd_bdspace"),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - tracer.top_level_time(),
        "trace.overhead_frac": wrapped_calls * cost / wall,
    }, self_s


def traced(invs, tracer, reference):
    import evoctl.cli as cli

    cost = tracing.per_call_cost()

    def iterate():
        fresh_dirs(invs)
        tracer.reset()
        outcomes = []
        start = time.perf_counter()
        for inv in invs:
            outcomes.append(call_main(cli, inv.argv))
        wall = time.perf_counter() - start
        verdicts = judge(invs, outcomes, reference)
        metrics, self_s = layer_metrics(tracer, wall, cost, invs)
        return metrics, self_s, verdicts

    return iterate


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, sizes=None, reference=None):
    """One benchmark run of one workload; returns its result record."""
    params = draw_params(name, seed)
    if reference is None:
        reference = load_reference()
    reference = reference.get(reference_key(name, params), {})
    workdir = WORK / name
    invs = invocations(name, params, workdir, sizes)
    env = child_env(seed)

    if trace:
        os.environ["EVOCTL_SEED"] = str(seed)
        scope = tracing.Tracer()
        body = traced(invs, scope, reference)
    else:
        scope = contextlib.nullcontext()
        body = untraced(invs, env, reference)

    def iterate():
        # set-up is probed inside the loop so its samples span the run
        return [setup_probe(name, params, env, sizes) for _ in range(PROBES_PER_ITERATION)], body()

    with scope:
        iterations = closed_loop(seconds, iterate)
    probes = [probe for probed, _ in iterations for probe in probed]
    results = [result for _, result in iterations]
    verdicts = [v for result in results for v in result[-1]]

    record = {"workload": name, "seed": seed, "trace": trace,
              "environment": {**environment(), "seed": seed, "params": params},
              "commands": [inv.command for inv in invs]}
    samples = {key: [result[0][key] for result in results] for key in results[0][0]}
    if trace:
        samples["setup.import_s"] = [p[1]["import_s"] for p in probes]
        spans = sorted({span for result in results for span in result[1]})
        record["span_self_s"] = {
            span: statistics.median(result[1].get(span, 0.0) for result in results)
            for span in spans}
        record["closure_residual_s"] = max(
            abs(sum(self_s.values()) + metrics["trace.unattributed_s"] - metrics["trace.wall_s"])
            for metrics, self_s, _ in results)
    else:
        samples["setup_s"] = [p[0] for p in probes]
        samples["peak_rss_mb"] = [max(result[1] for result in results)]
        samples["failed_frac"] = [sum(not v[1] for v in verdicts) / len(verdicts)]

    record["iterations"] = len(iterations)
    record["attempted"] = len(verdicts)
    record["failed"] = sum(not ok for _, ok, _ in verdicts)
    record["failures"] = sorted({f"{cmd}: {why}" for cmd, ok, why in verdicts if not ok})
    record["samples"] = samples
    record["stats"] = {key: dict(zip(("q1", "median", "q3"), quartiles(vals)), n=len(vals))
                       for key, vals in samples.items()}
    WORK.mkdir(exist_ok=True)
    with open(WORK / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record) -> str:
    """Human-readable block for one workload run."""
    units = PER_LAYER if record["trace"] else E2E_TABLE
    lines = [f"== {record['workload']}  seed {record['seed']}  "
             f"{'traced' if record['trace'] else 'untraced'}, "
             f"{record['iterations']} iteration(s) of {' + '.join(record['commands'])}",
             "environment " + json.dumps(record["environment"], sort_keys=True),
             f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit"]
    for key, unit in units.items():
        if key in record["stats"]:
            st = record["stats"][key]
            lines.append(f"{key:36} {st['median']:14.6g} {st['q1']:14.6g} "
                         f"{st['q3']:14.6g} {st['n']:4d}  {unit}")
    if record["trace"]:
        lines.append("self time per span (median, s):")
        lines += [f"  {span:34} {value:14.6g}" for span, value in
                  sorted(record["span_self_s"].items(), key=lambda kv: -kv[1])]
        lines.append(f"self times + unattributed - traced wall: "
                     f"{record['closure_residual_s']:.3g} s (worst iteration)")
    lines.append(f"ops attempted {record['attempted']}  failed {record['failed']}")
    lines += [f"  failed {why}" for why in record["failures"]]
    return "\n".join(lines)


def result_line(records) -> dict:
    """The last line of stdout.  Metrics are the medians; with more than
    one workload each name is prefixed with the workload."""
    units = PER_LAYER if records[0]["trace"] else E2E_LAST_LINE
    metrics = {}
    for record in records:
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for key, unit in units.items():
            metrics[prefix + key] = {"value": record["stats"][key]["median"], "unit": unit}
    return {"correct": all(r["failed"] == 0 for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "evoctl" / "__init__.py").is_file():
        print(f"error: no evoctl sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for record in records:
        print(report(record))
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
