"""Numeric difference of two parity directories (tools/parity.py output).

    python tools/pardiff.py BASE CHANGE

Prints one line per file that differs between the two trees, by its path
relative to them.  For a CSV file whose comment lines, column header and
text fields agree and whose table has the same shape on both sides, the
line gives the largest |change| of a value and, over the columns, the
largest |change| divided by the largest |value| of that column in BASE,
naming that column.  Any other file that differs, a CSV whose shape or
text changed among them, reads "differs", and a file on one side only
reads "only in BASE" or "only in CHANGE".  Exits 1 when any file
differs, as diff does, and 0 otherwise.
"""

import argparse
import sys
from pathlib import Path

import numpy as np


def _csv_table(path: Path):
    """(comment lines, header, rows of fields) of a CSV artifact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if line and not line.startswith("#")]
    return comments, body[:1], body[1:]


def _numbers(rows):
    """The fields as floats, NaN where a field is text, and the text fields."""
    values = np.full((len(rows), max(map(len, rows), default=0)), np.nan)
    text = {}
    for i, row in enumerate(rows):
        for j, field in enumerate(row):
            try:
                values[i, j] = float(field)
            except ValueError:
                text[i, j] = field
    return values, text


def csv_change(base: Path, change: Path) -> str:
    """The line that describes how the CSV file change departs from base."""
    (c0, h0, r0), (c1, h1, r1) = _csv_table(base), _csv_table(change)
    if c0 != c1 or h0 != h1 or [len(row) for row in r0] != [len(row) for row in r1]:
        return "differs"
    (v0, t0), (v1, t1) = _numbers(r0), _numbers(r1)
    if t0 != t1 or v0.size == 0:
        return "differs"
    with np.errstate(all="ignore"):  # a value that turns inf or NaN reads as an inf change
        same = (v0 == v1) | (np.isnan(v0) & np.isnan(v1))
        delta = np.where(same, 0.0, np.abs(v1 - v0))
        delta[np.isnan(delta)] = np.inf
        scale = np.abs(np.where(np.isnan(v0), 0.0, v0)).max(axis=0)
        per_column = delta.max(axis=0)
        relative = np.where(per_column == 0.0, 0.0, per_column / scale)
    j = int(np.argmax(relative))
    return (f"max |change| {delta.max():.3e}, relative to its column {relative[j]:.3e} "
            f"({h0[0][j]})")


def compare(base: Path, change: Path) -> list:
    """The lines of every file that differs between the two trees."""
    files = {path.relative_to(root) for root in (base, change)
             for path in root.rglob("*") if path.is_file()}
    lines = []
    for rel in sorted(files):
        a, b = base / rel, change / rel
        if not b.is_file():
            lines.append(f"{rel}: only in BASE")
        elif not a.is_file():
            lines.append(f"{rel}: only in CHANGE")
        elif a.read_bytes() != b.read_bytes():
            lines.append(f"{rel}: {csv_change(a, b) if rel.suffix == '.csv' else 'differs'}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="parity directory of the base")
    parser.add_argument("change", type=Path, help="parity directory of the change")
    args = parser.parse_args(argv)
    lines = compare(args.base, args.change)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
