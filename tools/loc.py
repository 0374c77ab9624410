"""Line count of the evoctl package, by the rule the roadmap's budget uses.

    python tools/loc.py

Prints, for each module of src/evoctl in the checkout that holds this
file, its number of non-blank, non-comment lines, and then the total.
A line counts unless it is blank or its first non-blank character is
'#'; docstrings and the lines of multi-line statements count.
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "evoctl"


def count(path: Path) -> int:
    """Non-blank lines of path that are not '#' comments."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    counts = {path.name: count(path) for path in sorted(SRC.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:16s} {n:5d}")
    print(f"{'total':16s} {sum(counts.values()):5d}")


if __name__ == "__main__":
    main()
