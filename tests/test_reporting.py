"""Tests for text reporting helpers."""

from __future__ import annotations

from repro.reporting import sparkline


class TestSparkline:
    def test_length_matches_input(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_monotone_series_monotone_blocks(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert list(line) == sorted(line)

    def test_constant_series(self):
        line = sparkline([3.0, 3.0, 3.0])
        assert len(set(line)) == 1

    def test_nan_renders_blank(self):
        line = sparkline([1.0, float("nan"), 2.0])
        assert line[1] == " "

    def test_all_nan(self):
        assert sparkline([float("nan")] * 3) == "   "
