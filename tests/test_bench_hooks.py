"""The benchmark's tracer (perfbench/tracing.py) wraps evoctl functions by
name, so a refactor that renames or bypasses one empties a trace metric
without failing anything.  These tests run the traced cubic-wave and
long-horizon workloads at their tiny sizes, in-process, and check that
the hooks the trace metrics read still see the work."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from tracing import Tracer  # noqa: E402
from workloads import TINY_SIZES, invocations  # noqa: E402

from evoctl import cli  # noqa: E402

HOOKS = ("evolution.solve", "evolution.lu_factor", "evolution.check_wellposed",
         "cli.write_csv")


def ancestors(spans, index):
    """Names of the spans that enclose span index."""
    names = []
    while spans[index][3] >= 0:
        index = spans[index][3]
        names.append(spans[index][0])
    return names


@pytest.mark.parametrize("workload", ["cubic-wave", "long-horizon"])
def test_traced_workload_reaches_every_hook(workload, tmp_path):
    invs = invocations(workload, {"freq": 3.0, "mode": 2}, tmp_path, TINY_SIZES)
    with Tracer() as tracer:
        for inv in invs:
            assert cli.main(list(inv.argv)) == 0, inv.command
    _, calls = tracer.self_times()
    for hook in HOOKS:
        assert calls[hook] >= 1, f"{hook} opened no span"
    assert tracer.steps == TINY_SIZES[workload]["n_steps"]
    certificates = [ancestors(tracer.spans, i) for i, span in enumerate(tracer.spans)
                    if span[0] == "evolution.check_wellposed"]
    simulates = sum(span[0] == "cli.cmd_simulate" for span in tracer.spans)
    assert simulates == 1
    assert sum("cli.cmd_simulate" in names for names in certificates) == simulates
    written = sum(path.stat().st_size for path in tmp_path.rglob("*.csv"))
    assert written > 0
    assert tracer.csv_bytes == written, "a CSV was written outside the traced write_csv"
