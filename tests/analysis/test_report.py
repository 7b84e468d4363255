"""Unit tests for the plain-text report formatting."""

import pytest

from repro.analysis import format_percentage, format_table
from repro.core import ExperimentError


class TestFormatTable:
    def test_headers_and_rows_rendered(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "2.50" in text
        assert "x" in text

    def test_column_alignment(self):
        text = format_table(["name", "v"], [["long-name", 1], ["s", 22]])
        lines = text.splitlines()
        # All rows have the same rendered width.
        assert len({len(line) for line in lines}) == 1

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ExperimentError):
            format_table([], [])

    def test_no_title(self):
        text = format_table(["a"], [[1]])
        assert not text.startswith("\n")


class TestPaperFormatting:
    def test_percentage(self):
        assert format_percentage(17.4213) == "17.42%"
        assert format_percentage(0.0) == "0.00%"
