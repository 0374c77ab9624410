"""Correctness gate: judge each invocation from the artifacts it wrote.

The exit status alone is not trusted.  Every numeric field of every
artifact must be finite, the worst ledger defect, route gap or boundary
space defect must be within the command's documented tolerance, and a
fingerprint of each artifact (its row count and column sums) must match
the one recorded at the seed within a relative tolerance.  Byte identity
is not required, because the last digits move with the BLAS thread count.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

# Default tolerances of the evoctl commands (README, "Command line").
TOLERANCE = {"simulate": 1e-9, "energy": 1e-9, "bdspace": 1e-10}
ARTIFACTS = {
    "wellposed": ("wellposed.csv",),
    "simulate": ("trajectory.csv", "io.csv", "ledger.csv"),
    "energy": ("ledger.csv",),
    # bd_defects.csv holds seeded random draws, so only its values are checked
    "bdspace": ("bd_basis.csv",),
}
# A column sum matches when |sum - ref| <= RTOL * sum|x| + ATOL * rows;
# ATOL keeps columns of pure round-off (the defect columns) from flapping.
RTOL = 1e-6
ATOL = 1e-9

_CERTIFIED = re.compile(r"well-posed with c = (\S+) at nu = (\S+)")


class GateFailure(Exception):
    pass


def _data_lines(path: Path):
    """Column names and the data lines of an evoctl CSV artifact."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    if len(lines) < 2:
        raise ValueError(f"{path.name} holds no rows")
    return lines[0].rstrip("\n").split(","), lines[1:]


def _numeric_columns(names, cells):
    """The columns of a table of strings that parse as numbers."""
    keep = []
    for j in range(cells.shape[1]):
        try:
            cells[:, j].astype(float)
            keep.append(j)
        except ValueError:
            pass
    return [names[j] for j in keep], cells[:, keep].astype(float)


def read_csv(path: Path):
    """Column names and the numeric columns of an evoctl CSV artifact.

    Non-numeric columns (the side label of bd_basis.csv) are dropped.
    Returns (names, rows x cols array).
    """
    names, lines = _data_lines(path)
    try:
        return names, np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError:
        return _numeric_columns(names, np.loadtxt(lines, delimiter=",", ndmin=2, dtype=str))


def read_bd_defects(outdir: Path):
    """bd_defects.csv as (check name of each row, numeric column names, table)."""
    names, lines = _data_lines(outdir / "bd_defects.csv")
    cells = np.loadtxt(lines, delimiter=",", ndmin=2, dtype=str)
    checks = [str(check) for check in cells[:, names.index("check")]]
    return (checks, *_numeric_columns(names, cells))


def fingerprint(table: np.ndarray) -> dict:
    return {"rows": int(table.shape[0]), "sums": [float(s) for s in table.sum(axis=0)]}


def fingerprint_miss(table: np.ndarray, ref: dict):
    """Why the table does not match the reference fingerprint, or None."""
    if ref is None:
        return "no reference fingerprint recorded"
    got = fingerprint(table)
    if got["rows"] != ref["rows"] or len(got["sums"]) != len(ref["sums"]):
        return (f"shape {table.shape} differs from the reference "
                f"({ref['rows']}, {len(ref['sums'])})")
    scale = np.abs(table).sum(axis=0)
    for j, (s, r) in enumerate(zip(got["sums"], ref["sums"])):
        if not abs(s - r) <= RTOL * scale[j] + ATOL * table.shape[0]:
            return f"column {j} sums to {s!r}, reference {r!r}"
    return None


def fingerprints(command: str, outdir: Path) -> dict:
    """Fingerprints of the command's artifacts, for the reference file."""
    return {name: fingerprint(read_csv(outdir / name)[1]) for name in ARTIFACTS[command]}


def _worst_defect(command, outdir, tables):
    """Worst gated defect of the invocation, checked against its tolerance."""
    if command in ("simulate", "energy"):
        names, ledger = tables["ledger.csv"]
        return float(np.abs(ledger[:, names.index("defect")]).max())
    if command == "bdspace":
        _, names, table = read_bd_defects(outdir)
        if not np.all(np.isfinite(table)):
            raise GateFailure("bd_defects.csv holds a non-finite value")
        dims = table[:, names.index("dimension")]
        if not np.all(dims == 2):
            raise GateFailure(f"boundary space dimensions {sorted(set(dims))}, expected 2")
        return float(table[:, names.index("defect")].max())
    return None


def check(command: str, outdir: Path, exit_code: int, stdout: str, reference: dict):
    """Judge one invocation.

    reference maps artifact names to recorded fingerprints (None when
    nothing was recorded, which fails).  Returns (ok, reason).
    """
    try:
        tables = {}
        for name in ARTIFACTS[command]:
            path = outdir / name
            if not path.is_file():
                raise GateFailure(f"{name} missing")
            tables[name] = read_csv(path)
            if not np.all(np.isfinite(tables[name][1])):
                raise GateFailure(f"{name} holds a non-finite value")
        if command == "wellposed":
            match = _CERTIFIED.search(stdout)
            c = float(match.group(1)) if match else math.nan
            if not (math.isfinite(c) and c > 0):
                raise GateFailure("no positive finite certificate printed")
        worst = _worst_defect(command, outdir, tables)
        if worst is not None:
            if not worst <= TOLERANCE[command]:
                raise GateFailure(
                    f"worst defect {worst:.3e} exceeds {TOLERANCE[command]:.0e}")
        for name, (_, table) in tables.items():
            miss = fingerprint_miss(table, (reference or {}).get(name))
            if miss:
                raise GateFailure(f"{name}: {miss}")
        if exit_code != 0:
            raise GateFailure(f"exit status {exit_code}")
    except (GateFailure, ValueError, OSError) as exc:
        return False, str(exc)
    return True, ""


def unitarity_defect(outdir: Path) -> float:
    """Worst transport unitarity defect in bd_defects.csv (NaN if unreadable)."""
    try:
        checks, names, table = read_bd_defects(outdir)
        rows = [i for i, check in enumerate(checks) if check.startswith("unitarity")]
        return float(table[rows, names.index("defect")].max())
    except (OSError, ValueError):
        return math.nan
