"""Self-test of the benchmark at tiny sizes (under a minute).

    python3 -m pytest perfbench/selftest.py -q

Checks that every named metric is printed with its unit on every
workload, that the last line carries exactly the metrics BENCHMARK.json
declares, and that the correctness gate fails artifacts it must not
pass: a ledger with an injected NaN, a defect over tolerance behind a
zero exit status, and a changed trajectory.
"""

import json
import shutil

import gate
import pytest
import record_reference
import run
import tracing
from workloads import TINY_SIZES, WORKLOADS, draw_params, invocations, reference_key

SEED = 7
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def references():
    return {key: value for name in WORKLOADS
            for key, value in record_reference.record(name, TINY_SIZES).items()}


@pytest.fixture(scope="module")
def artifacts(references):
    """One gated tiny long-horizon iteration; returns its invocations."""
    params = draw_params("long-horizon", SEED)
    invs = invocations("long-horizon", params, run.WORK / "selftest" / "run", TINY_SIZES)
    run.fresh_dirs(invs)
    for inv in invs:
        assert run.spawn(inv, run.child_env(SEED))[1] == 0
    return invs, references


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_printed_with_unit(name, trace, references):
    record = run.run_workload(name, SEED, 0, trace, TINY_SIZES, references)
    assert record["failed"] == 0, record["failures"]
    text = run.report(record)
    expected = run.PER_LAYER if trace else {
        key: unit for key, unit in run.E2E_TABLE.items()
        if key.removesuffix("_s") not in ("wellposed", "energy", "bdspace")
        or key.removesuffix("_s") in record["commands"]}
    for key, unit in expected.items():
        line = next((ln for ln in text.splitlines() if ln.startswith(key + " ")), None)
        assert line is not None and line.endswith(" " + unit), key
        assert record["stats"][key]["n"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    last = run.result_line([record])
    assert {key: m["unit"] for key, m in last["metrics"].items()} == declared
    assert last["correct"] and last["attempted"] == record["attempted"] >= 2


def test_tracer_restores_every_name():
    import evoctl.cli as cli
    import evoctl.evolution as evolution

    before = (cli.check_wellposed, evolution.check_wellposed, evolution.np, cli.write_csv)
    with tracing.Tracer():
        assert cli.check_wellposed is evolution.check_wellposed
        assert cli.check_wellposed is not before[0]
    assert (cli.check_wellposed, evolution.check_wellposed, evolution.np,
            cli.write_csv) == before


def _copy(inv, name):
    target = run.WORK / "selftest" / name
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(inv.outdir, target)
    return target


def _rewrite(path, row, column, value):
    """Replace one field of a CSV data row (row 0 is the first data row)."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    data = [i for i, ln in enumerate(lines) if not ln.startswith("#")][1:]
    fields = lines[data[row]].rstrip("\n").split(",")
    fields[column] = value
    lines[data[row]] = ",".join(fields) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _reference(references, inv):
    return references[reference_key("long-horizon", draw_params("long-horizon", SEED))][
        inv.command]


def test_untouched_copy_passes(artifacts):
    invs, references = artifacts
    sim = invs[0]
    ok, why = gate.check("simulate", _copy(sim, "clean"), 0, "", _reference(references, sim))
    assert ok, why


def test_nan_in_ledger_fails(artifacts):
    invs, references = artifacts
    sim = invs[0]
    target = _copy(sim, "nan")
    _rewrite(target / "ledger.csv", 3, 6, "nan")
    ok, why = gate.check("simulate", target, 0, "", _reference(references, sim))
    assert not ok and "non-finite" in why


def test_defect_over_tolerance_fails_despite_exit_zero(artifacts):
    invs, references = artifacts
    replay = invs[1]
    target = _copy(replay, "defect")
    _rewrite(target / "ledger.csv", 0, 6, "2e-9")
    ok, why = gate.check("energy", target, 0, "", _reference(references, replay))
    assert not ok and "exceeds" in why


def test_changed_trajectory_misses_fingerprint(artifacts):
    invs, references = artifacts
    sim = invs[0]
    target = _copy(sim, "changed")
    _rewrite(target / "trajectory.csv", 5, 2, "0.5")
    ok, why = gate.check("simulate", target, 0, "", _reference(references, sim))
    assert not ok and "trajectory.csv" in why
