"""The benchmark's workloads: which evoctl invocations each one runs, in
which order, and which systems its set-up assembles.

Why each workload exists (see README.md for the layer map):

cubic-wave     dense O(dim^3) work dominates: the well-posedness
               certificate, the step-matrix LU with its condition
               number, and preset assembly (wave-wt, dim 388).
long-horizon   per-step work dominates: the step loop, one energy
               ledger per step, input/output recovery, and writing and
               re-reading a 10^4-row trajectory (port-hamiltonian,
               backward Euler, dim 67).
fine-boundary  the grad/div pair and the boundary data spaces at a size
               where their dense SVDs dominate, and the two-route
               Maxwell solve that certifies the same system twice.

The workload seed picks the input frequency and the initial mode from
small fixed ranges; the cost of a run does not depend on either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FREQS = (2.0, 3.0, 4.0)
MODES = (1, 2, 3)

# Grid and horizon of each workload.  The self-test swaps in tiny sizes.
SIZES = {
    "cubic-wave": {"n_cells": 192, "n_steps": 200},
    "long-horizon": {"n_cells": 32, "n_steps": 10000, "t_end": 10.0},
    "fine-boundary": {"bd_cells": 1536, "n_cells": 128, "n_steps": 200},
}
TINY_SIZES = {
    "cubic-wave": {"n_cells": 8, "n_steps": 20},
    "long-horizon": {"n_cells": 4, "n_steps": 50, "t_end": 0.5},
    "fine-boundary": {"bd_cells": 16, "n_cells": 8, "n_steps": 20},
}
WORKLOADS = tuple(SIZES)
# Input parameters each workload draws from its seed; the others keep
# the CLI defaults and do not enter the reference key.
DRAWN = {
    "cubic-wave": ("freq",),
    "long-horizon": ("freq", "mode"),
    "fine-boundary": ("freq",),
}


@dataclass(frozen=True)
class Invocation:
    """One `python -m evoctl.cli` call of a workload iteration."""

    command: str
    argv: tuple
    outdir: Path


def draw_params(name: str, seed: int) -> dict:
    """The workload's input parameters for this seed."""
    rng = random.Random(seed)
    params = {"freq": rng.choice(FREQS), "mode": rng.choice(MODES)}
    return {key: params[key] for key in DRAWN[name]}


def reference_key(name: str, params: dict) -> str:
    """Key of the recorded fingerprints for these parameters."""
    return "/".join([name] + [f"{k}={params[k]}" for k in DRAWN[name]])


def _sets(*pairs):
    out = []
    for key, value in pairs:
        out += ["--set", f"{key}={value}"]
    return out


def invocations(name: str, params: dict, workdir: Path, sizes=None) -> list:
    """The invocations of one iteration of workload `name`, in order."""
    size = (sizes or SIZES)[name]
    if name == "cubic-wave":
        cert, sim = workdir / "wellposed", workdir / "simulate"
        common = _sets(("preset", "wave-wt"), ("grid.n_cells", size["n_cells"]),
                       ("time.n_steps", size["n_steps"]),
                       ("input.kind", "sinusoid"), ("input.freq", params["freq"]))
        return [Invocation("wellposed", ("wellposed", *common, *_sets(("outdir", cert))),
                           cert),
                Invocation("simulate", ("simulate", *common, *_sets(("outdir", sim))), sim)]
    if name == "long-horizon":
        sim, replay = workdir / "simulate", workdir / "energy"
        common = _sets(("preset", "port-hamiltonian"),
                       ("grid.n_cells", size["n_cells"]),
                       ("time.n_steps", size["n_steps"]), ("time.t_end", size["t_end"]),
                       ("scheme", "backward_euler"),
                       ("input.kind", "sinusoid"), ("input.freq", params["freq"]),
                       ("initial.kind", "sine"), ("initial.mode", params["mode"]))
        return [
            Invocation("simulate", ("simulate", *common, *_sets(("outdir", sim))), sim),
            Invocation("energy", ("energy", *common, *_sets(("outdir", replay)),
                                  "--trajectory", str(sim / "trajectory.csv")), replay),
        ]
    if name == "fine-boundary":
        bd, sim = workdir / "bdspace", workdir / "maxwell"
        return [
            Invocation("bdspace", ("bdspace", *_sets(("grid.n_cells", size["bd_cells"]),
                                                     ("outdir", bd))), bd),
            Invocation("simulate", ("simulate", *_sets(
                ("preset", "maxwell-lift-1d"), ("grid.n_cells", size["n_cells"]),
                ("time.n_steps", size["n_steps"]),
                ("input.kind", "sinusoid"), ("input.freq", params["freq"]),
                ("outdir", sim))), sim),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def assemble(name: str, params: dict, sizes=None):
    """Build the workload's systems through evoctl's public API, as the
    CLI does before any command-specific work."""
    import numpy as np

    from evoctl import (Grid1D, PortHamiltonianSpec, WaveSpec, build_port_hamiltonian,
                        build_sbp_pair_1d, build_weiss_tucsnak_wave, compute_bd_space)

    size = (sizes or SIZES)[name]
    if name == "cubic-wave":
        grid = Grid1D(0.0, 1.0, size["n_cells"])
        return [build_weiss_tucsnak_wave(WaveSpec(grid=grid, z1=np.zeros(grid.n_nodes)))]
    if name == "long-horizon":
        grid = Grid1D(0.0, 1.0, size["n_cells"])
        xi1 = np.sin(params["mode"] * np.pi * grid.nodes())[None, :]
        return [build_port_hamiltonian(
            PortHamiltonianSpec(grid=grid, Nmat=[[1.0]], xi1=xi1))]
    if name == "fine-boundary":
        pair = build_sbp_pair_1d(Grid1D(0.0, 1.0, size["n_cells"]))
        return [build_sbp_pair_1d(Grid1D(0.0, 1.0, size["bd_cells"])),
                pair, compute_bd_space(pair, "D")]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
