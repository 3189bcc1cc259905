"""Tests for experiment reporting."""

from repro.experiments.report import (
    ExperimentResult,
    ShapeCheck,
    format_table,
    monotone_fraction,
    series_ratio,
)


def make_result():
    result = ExperimentResult(
        experiment_id="figX",
        title="A test figure",
        x_label="n",
        x_values=[100.0, 200.0],
        series={"U(T)": [1.5, 3.0], "U(M)": [1.0, 1.1]},
    )
    result.add_check("ordering", True, "T above M", "T=3.0, M=1.1")
    result.add_check("growth", False, "2x", "1.1x")
    result.notes.append("reduced scale")
    return result


class TestExperimentResult:
    def test_passed_requires_all_checks(self):
        result = make_result()
        assert not result.passed
        result.checks[1] = ShapeCheck("growth", True, "2x", "2.1x")
        assert result.passed

    def test_to_text_contains_everything(self):
        text = make_result().to_text()
        assert "figX" in text
        assert "U(T)" in text and "U(M)" in text
        assert "[PASS] ordering" in text
        assert "[FAIL] growth" in text
        assert "note: reduced scale" in text

    def test_to_markdown_table_shape(self):
        md = make_result().to_markdown()
        lines = md.splitlines()
        header = next(line for line in lines if line.startswith("| n |"))
        assert "U(T)" in header
        assert "✅" in md and "❌" in md

    def test_series_aligned_with_x(self):
        result = make_result()
        for values in result.series.values():
            assert len(values) == len(result.x_values)


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        table = format_table(["x"], [["1"]], title="My Table")
        assert table.splitlines()[0] == "My Table"


class TestHelpers:
    def test_series_ratio(self):
        assert series_ratio([2.0, 8.0]) == 4.0
        assert series_ratio([]) != series_ratio([])  # NaN

    def test_monotone_fraction(self):
        assert monotone_fraction([1, 2, 3]) == 1.0
        assert monotone_fraction([3, 2, 1]) == 0.0
        assert monotone_fraction([1, 3, 2]) == 0.5
        assert monotone_fraction([5]) == 1.0
