"""Spans around evoctl's public functions, recorded from outside the package.

A Tracer replaces each traced function in every evoctl module namespace
that binds it (check_wellposed lives in both evolution and cli, for
example), so calls between modules are seen as well as calls from the
CLI.  Inside evolution it also wraps lu_factor, np.linalg.cond and
np.linalg.eigvalsh through a numpy view private to that module, which
leaves every other caller of numpy untouched.  No evoctl source changes.

Each span records its name, start, end and parent.  Spans stay in memory
until the caller reads them.  The self time of a span is its duration
minus the time its children cover.  Counters (eigvalsh, the control
compatibility check) count calls without opening spans, so their time
stays in the span that made them.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

MODULES = ("evoctl", "evoctl.operators", "evoctl.bdspace", "evoctl.models",
           "evoctl.evolution", "evoctl.control", "evoctl.cli")

SPANS = {
    "operators.build_sbp_pair_1d": ("evoctl.operators", "build_sbp_pair_1d"),
    "bdspace.compute_bd_space": ("evoctl.bdspace", "compute_bd_space"),
    "models.build_weiss_tucsnak_wave": ("evoctl.models", "build_weiss_tucsnak_wave"),
    "models.build_mixed_type_wave": ("evoctl.models", "build_mixed_type_wave"),
    "models.build_port_hamiltonian": ("evoctl.models", "build_port_hamiltonian"),
    "models.maxwell_lift_solve": ("evoctl.models", "maxwell_lift_solve"),
    "evolution.check_wellposed": ("evoctl.evolution", "check_wellposed"),
    "evolution.solve": ("evoctl.evolution", "solve"),
    "control.energy_ledger": ("evoctl.control", "energy_ledger"),
    "control.extract_io": ("evoctl.control", "extract_io"),
    "cli.write_csv": ("evoctl.cli", "write_csv"),
    "cli.cmd_wellposed": ("evoctl.cli", "cmd_wellposed"),
    "cli.cmd_simulate": ("evoctl.cli", "cmd_simulate"),
    "cli.cmd_bdspace": ("evoctl.cli", "cmd_bdspace"),
    "cli.cmd_energy": ("evoctl.cli", "cmd_energy"),
}


class _View:
    """Attribute view of a module with some names replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counts = Counter()    # (counter name, enclosing span name) -> calls
        self.steps = 0
        self.csv_bytes = 0
        self.systems = []          # distinct systems checked for compatibility
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.systems.clear()
        self.steps = self.csv_bytes = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs)
                return result
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def _counter(self, name, fn, after=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def counted(*args, **kwargs):
            counts[(name, spans[stack[-1]][0] if stack else None)] += 1
            if after is not None:
                after(args, kwargs)
            return fn(*args, **kwargs)

        return counted

    def _count_steps(self, args, kwargs):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        self.steps += grid.n_steps

    def _count_bytes(self, args, kwargs):
        self.csv_bytes += os.path.getsize(args[0] if args else kwargs["path"])

    def _note_system(self, args, kwargs):
        system = args[0] if args else kwargs["sys"]
        if not any(system is seen for seen in self.systems):
            self.systems.append(system)

    # -- installation -----------------------------------------------------

    def _replace(self, original, wrapper):
        for module_name in MODULES:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def __enter__(self):
        import numpy as np
        evolution = importlib.import_module("evoctl.evolution")
        after = {"evolution.solve": self._count_steps, "cli.write_csv": self._count_bytes}
        for name, (module_name, attr) in SPANS.items():
            original = getattr(importlib.import_module(module_name), attr)
            self._replace(original, self._span(name, original, after.get(name)))
        compat = importlib.import_module("evoctl.control").check_compatibility
        self._replace(compat, self._counter("control.check_compatibility", compat,
                                            self._note_system))
        self._patches.append((evolution, "lu_factor", evolution.lu_factor))
        evolution.lu_factor = self._span("evolution.lu_factor", evolution.lu_factor)
        self._patches.append((evolution, "np", evolution.np))
        evolution.np = _View(np, linalg=_View(
            np.linalg,
            cond=self._span("evolution.cond", np.linalg.cond),
            eigvalsh=self._counter("evolution.eigvalsh", np.linalg.eigvalsh),
        ))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time and call count per span name."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
            calls[name] += 1
        return dict(totals), calls

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def count(self, name, within=None) -> int:
        return sum(n for (counter, span), n in self.counts.items()
                   if counter == name and (within is None or span == within))


def per_call_cost(repeats: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._span("noop", noop)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    return max((time.perf_counter() - start - bare) / repeats, 0.0)
