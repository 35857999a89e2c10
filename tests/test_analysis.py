"""Analysis metrics and report rendering."""

import math

import pytest

from repro.analysis.metrics import (
    geometric_mean,
    relative_error,
    slowdown_fraction,
    speedup,
)
from repro.analysis.report import format_table
from repro.errors import ReproError


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0

    def test_speedup_validates(self):
        with pytest.raises(ReproError):
            speedup(0.0, 1.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_validates(self):
        with pytest.raises(ReproError):
            geometric_mean([])
        with pytest.raises(ReproError):
            geometric_mean([1.0, 0.0])

    def test_relative_error(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(1.0, 0.0) == math.inf

    def test_slowdown_fraction(self):
        # Paper style: "67% performance loss" when 3x slower than base.
        assert slowdown_fraction(1.0, 3.0) == pytest.approx(2 / 3)
        assert slowdown_fraction(1.0, 1.0) == 0.0


class TestFormatTable:
    def test_aligned_columns(self):
        # A padded Markdown pipe table: header, rule, one line per row.
        text = format_table(
            ["name", "speedup"],
            [["tpch_q6", 1.337], ["kmeans", 1.25]],
        )
        assert text.splitlines() == [
            "| name    | speedup |",
            "|---------|---------|",
            "| tpch_q6 | 1.337   |",
            "| kmeans  | 1.250   |",
        ]

    def test_row_width_checked(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert "a" in text
