"""Tests for the A/B summary of tools/ab.py, the columns that read the
rules a benchmark comparison is judged by, and for the numeric parity
diff of tools/pardiff.py."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import ab  # noqa: E402
import pardiff  # noqa: E402

METRICS = {"wall_s": {"better": "lower", "bound": 0.25},
           "rate": {"better": "higher", "bound": 0.1}}


def columns(base, change):
    """{metric: (beyond base IQR, all better, worse than bound)} of the
    summary of hand-made runs, given as {metric: values per pair}."""
    runs = [[{name: values[i] for name, values in side.items()} for i in range(3)]
            for side in (base, change)]
    lines = ab.summary("hand-made", METRICS, *runs)
    assert lines[1].endswith("beyond base IQR  all better  worse than bound")
    return {line.split()[0]: tuple(line.split()[-3:]) for line in lines[2:]}


class TestSummary:
    @pytest.mark.parametrize("change,expected", [
        ({"wall_s": [0.5, 0.6, 0.7], "rate": [11.0, 12.0, 13.0]}, ("yes", "yes", "no")),
        # medians better, but one run of the change is worse than a run of the base
        ({"wall_s": [0.9, 0.95, 1.15], "rate": [9.5, 10.5, 10.6]}, ("no", "no", "no")),
    ], ids=["every-run-better", "runs-overlap"])
    def test_all_better_needs_every_pair_of_runs(self, change, expected):
        base = {"wall_s": [1.0, 1.1, 1.2], "rate": [9.0, 10.0, 10.2]}
        got = columns(base, change)
        assert got == {"wall_s": expected, "rate": expected}

    @pytest.mark.parametrize("factor,worse", [(1.3, "yes"), (1.2, "no")])
    def test_lower_is_better_worse_than_bound(self, factor, worse):
        """wall_s may grow by a quarter of the base median."""
        base = {"wall_s": [1.0, 1.0, 1.0], "rate": [10.0, 10.0, 10.0]}
        change = {"wall_s": [factor] * 3, "rate": [10.0, 10.0, 10.0]}
        got = columns(base, change)
        assert got["wall_s"] == ("yes", "no", worse)
        assert got["rate"] == ("no", "no", "no")

    @pytest.mark.parametrize("value,worse", [(8.9, "yes"), (9.1, "no")])
    def test_higher_is_better_worse_than_bound(self, value, worse):
        """rate may fall by a tenth of the base median."""
        base = {"wall_s": [1.0, 1.0, 1.0], "rate": [10.0, 10.0, 10.0]}
        change = {"wall_s": [1.0, 1.0, 1.0], "rate": [value] * 3}
        assert columns(base, change)["rate"] == ("yes", "no", worse)


TABLE = "# seed=1\nt,x0,x1\n0,1,-2\n0.5,4,0\n"


def tree(root, files):
    """Write files, {relative path: text}, under root and return root."""
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    return root


class TestParDiff:
    def test_equal_trees_print_nothing(self, tmp_path, capsys):
        files = {"case/trajectory.csv": TABLE, "case/stdout.txt": "ok\n"}
        base, change = tree(tmp_path / "a", files), tree(tmp_path / "b", files)
        assert pardiff.main([str(base), str(change)]) == 0
        assert capsys.readouterr().out == ""

    def test_one_line_per_differing_file(self, tmp_path, capsys):
        """A moved value reads as its largest change and, over the columns,
        the largest change relative to its column's largest |value| in the
        base; a reshaped table, a text file and a one-sided file differ."""
        base = tree(tmp_path / "a", {
            "case/trajectory.csv": TABLE, "case/io.csv": TABLE,
            "case/stdout.txt": "max = 1\n", "case/gone.txt": ""})
        change = tree(tmp_path / "b", {
            "case/trajectory.csv": "# seed=1\nt,x0,x1\n0,1,-2.5\n0.5,4.25,0\n",
            "case/io.csv": TABLE + "1,0,0\n",
            "case/stdout.txt": "max = 2\n", "new/exit_code.txt": "0\n"})
        assert pardiff.main([str(base), str(change)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "case/gone.txt: only in BASE",
            "case/io.csv: differs",
            "case/stdout.txt: differs",
            "case/trajectory.csv: max |change| 5.000e-01, relative to its column "
            "2.500e-01 (x1)",
            "new/exit_code.txt: only in CHANGE",
        ]

    def test_changed_comment_or_text_field_differs(self, tmp_path, capsys):
        base = tree(tmp_path / "a", {"seed.csv": TABLE, "side.csv": "side,v\nG,1\n"})
        change = tree(tmp_path / "b", {"seed.csv": TABLE.replace("seed=1", "seed=2"),
                                       "side.csv": "side,v\nD,1\n"})
        assert pardiff.main([str(base), str(change)]) == 1
        assert capsys.readouterr().out.splitlines() == ["seed.csv: differs", "side.csv: differs"]
