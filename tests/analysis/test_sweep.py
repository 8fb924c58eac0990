"""Sweep-driver tests: grids and structured results."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import SweepGrid, run_sweep
from repro.errors import ConfigError


def scaled_sum(x, y=0.0, scale=1.0):
    """A point function taking two axes and a common argument."""
    return (x + y) * scale


class TestSweepGrid:
    def test_product_order_first_axis_outermost(self):
        grid = SweepGrid.product(a=(1, 2), b=("x", "y"))
        assert list(grid.points()) == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert len(grid.rows) == 4
        assert grid.axis("a") == (1, 1, 2, 2)

    def test_zipped_lockstep(self):
        grid = SweepGrid.zipped(a=(1, 2, 3), b=(10, 20, 30))
        assert list(grid.points()) == [
            {"a": 1, "b": 10},
            {"a": 2, "b": 20},
            {"a": 3, "b": 30},
        ]

    def test_zipped_rejects_ragged_axes(self):
        with pytest.raises(ConfigError):
            SweepGrid.zipped(a=(1, 2), b=(1,))

    def test_explicit_points(self):
        grid = SweepGrid.explicit([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert grid.names == ("a", "b")
        assert grid.rows == ((1, 2), (3, 4))

    def test_explicit_rejects_inconsistent_keys(self):
        with pytest.raises(ConfigError):
            SweepGrid.explicit([{"a": 1}, {"b": 2}])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid.product()
        with pytest.raises(ConfigError):
            SweepGrid.explicit([])


class TestRunSweep:
    def test_serial_values_in_grid_order(self):
        result = run_sweep(scaled_sum, SweepGrid.product(x=(1.0, 2.0, 3.0)))
        assert result.values() == (1.0, 2.0, 3.0)
        assert result.axis("x") == (1.0, 2.0, 3.0)

    def test_common_kwargs_passed_to_every_point(self):
        result = run_sweep(
            scaled_sum,
            SweepGrid.product(x=(1.0, 2.0)),
            common={"y": 1.0, "scale": 10.0},
        )
        assert result.values() == (20.0, 30.0)

    def test_explicit_accepts_reordered_keys(self):
        grid = SweepGrid.explicit([{"a": 1, "b": 2}, {"b": 4, "a": 3}])
        assert grid.rows == ((1, 2), (3, 4))

    def test_point_indexing(self):
        result = run_sweep(scaled_sum, SweepGrid.product(x=(4.0,)))
        assert result.points[0]["x"] == 4.0
        assert result.points[0].value == 4.0

    def test_point_error_propagates(self):
        def boom(x):
            raise ValueError("bad point")

        with pytest.raises(ValueError, match="bad point"):
            run_sweep(boom, SweepGrid.product(x=(1,)))


class TestCsvPersistence:
    """The CSV artifact the result store keeps: an ``# axes:`` line, then
    the axis columns and the flattened value columns."""

    def test_scalar_values(self):
        result = run_sweep(
            scaled_sum, SweepGrid.product(x=(1.0, 2.0), y=(0.5, 1.5))
        )
        assert result.to_csv_text() == (
            "# axes: x,y\nx,y,value\r\n1.0,0.5,1.5\r\n1.0,1.5,2.5\r\n"
            "2.0,0.5,2.5\r\n2.0,1.5,3.5\r\n"
        )

    def test_mapping_values_one_column_per_key(self):
        def point(x):
            return {"double": 2 * x, "label": f"p{x}", "none": None}

        result = run_sweep(point, SweepGrid.product(x=(1, 2)))
        assert result.to_csv_text() == (
            "# axes: x\nx,double,label,none\r\n1,2,p1,\r\n2,4,p2,\r\n"
        )

    def test_dataclass_values_flatten_scalar_fields(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Report:
            latency: float
            name: str
            payload: tuple  # non-scalar: dropped from the CSV

        result = run_sweep(
            lambda x: Report(latency=x * 0.5, name=f"r{x}", payload=(x,)),
            SweepGrid.product(x=(2, 4)),
        )
        assert result.to_csv_text() == (
            "# axes: x\nx,latency,name\r\n2,1.0,r2\r\n4,2.0,r4\r\n"
        )
