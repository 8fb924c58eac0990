"""Table I generator tests."""

from __future__ import annotations

from repro.tech.table import (
    render_table,
    technology_comparison_rows,
    technology_comparison_table,
)


class TestTableRows:
    def test_row_count_and_parameters(self):
        rows = technology_comparison_rows()
        names = [r.parameter for r in rows]
        assert "Operating Frequency" in names
        assert "On-chip Memory" in names
        assert "Lithography" in names
        assert len(rows) == 12

    def test_frequency_row_values(self):
        rows = {r.parameter: r for r in technology_comparison_rows()}
        freq = rows["Operating Frequency"]
        assert freq.cmos == "2GHz"
        assert freq.scd == "30GHz"

    def test_device_row(self):
        rows = {r.parameter: r for r in technology_comparison_rows()}
        assert rows["Device"].scd == "Josephson Junction"
        assert rows["Device"].cmos == "FinFET"

    def test_memory_rows(self):
        rows = {r.parameter: r for r in technology_comparison_rows()}
        assert rows["On-chip Memory"].scd == "JSRAM"
        assert "8JJ" in rows["- HD Unit Cell"].scd
        assert "6T" in rows["- HD Unit Cell"].cmos


class TestRendering:
    def test_render_contains_headline_values(self):
        text = technology_comparison_table()
        assert "30GHz" in text
        assert "Josephson Junction" in text
        assert "JSRAM" in text

    def test_render_contains_all_rows(self):
        text = technology_comparison_table()
        for row in technology_comparison_rows():
            assert row.parameter in text

    def test_render_is_aligned(self):
        lines = technology_comparison_table().splitlines()
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # perfectly rectangular

    def test_render_table_headers(self):
        rows = technology_comparison_rows()
        text = render_table(rows, ("P", "A", "B"))
        assert text.splitlines()[1].startswith("| P")
