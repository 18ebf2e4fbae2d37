"""Tests for the bench table formatter."""

from repro.analysis.tables import format_table


class TestTables:
    def test_format_basic(self):
        text = format_table(["n", "ratio"], [[8, 1.5], [16, 2.25]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "ratio" in lines[1]
        assert "2.250" in text

    def test_column_alignment(self):
        text = format_table(["a", "bbbb"], [["x", "y"]])
        header, sep, row = text.splitlines()
        assert len(header) == len(row)
