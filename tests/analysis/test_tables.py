"""Table-generator tests."""

from __future__ import annotations

from repro.analysis.tables import (
    blade_spec_table,
    datalink_table,
    render_two_column,
)


class TestDatalinkTable:
    def test_rows(self):
        rows = datalink_table()
        names = [r[0] for r in rows]
        assert "Wire Width" in names
        assert "No. of wires" in names
        by_name = {r[0]: r for r in rows}
        assert by_name["No. of wires"][1] == "20,000"
        assert by_name["No. of wires"][2] == "10,000"
        assert "20 TBps" in by_name["Bandwidth"][1]


class TestBladeTable:
    def test_rows(self):
        rows = dict(blade_spec_table())
        assert rows["No. of SPUs"] == "64 (8 x 8)"
        assert "30 TBps" in rows["Bi-directional Main Memory bandwidth"]

    def test_render_two_column_rectangular(self):
        text = render_two_column(blade_spec_table(), ("Parameter", "Value"))
        widths = {len(line) for line in text.splitlines()}
        assert len(widths) == 1


class TestRenderColumns:
    def test_empty_rows_render_header_only(self):
        from repro.analysis.tables import render_columns

        text = render_columns([], ("a", "bb"))
        assert "| a | bb |" in text

    def test_two_column_delegates_to_render_columns(self):
        from repro.analysis.tables import render_columns, render_two_column

        rows = [("x", "1"), ("longer", "2")]
        assert render_two_column(rows, ("p", "v")) == render_columns(
            rows, ("p", "v")
        )
