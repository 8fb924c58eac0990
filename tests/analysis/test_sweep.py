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
        assert len(grid) == 4
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

    def test_series_with_callable_and_attribute(self):
        result = run_sweep(complex, SweepGrid.product(real=(1.0, 2.0)))
        assert result.series(lambda v: v.real) == (1.0, 2.0)
        assert result.series("imag") == (0.0, 0.0)

    def test_where_filters_points(self):
        result = run_sweep(scaled_sum, SweepGrid.product(x=(1.0, 2.0), y=(0.0, 5.0)))
        sub = result.where(y=5.0)
        assert sub.axis("x") == (1.0, 2.0)
        assert sub.values() == (6.0, 7.0)

    def test_where_with_no_matches_is_empty(self):
        result = run_sweep(scaled_sum, SweepGrid.product(x=(1.0, 2.0)))
        empty = result.where(x=99.0)
        assert len(empty) == 0
        assert empty.values() == ()
        assert empty.grid.names == ("x",)

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
    def test_scalar_values_round_trip(self, tmp_path):
        result = run_sweep(
            scaled_sum, SweepGrid.product(x=(1.0, 2.0), y=(0.5, 1.5))
        )
        path = tmp_path / "sweep.csv"
        result.to_csv(path)

        from repro.analysis.sweep import SweepResult

        loaded = SweepResult.from_csv(path)
        assert loaded.grid.names == result.grid.names
        assert loaded.grid.rows == result.grid.rows
        assert loaded.values() == result.values()

    def test_mapping_values_round_trip(self, tmp_path):
        def point(x):
            return {"double": 2 * x, "label": f"p{x}", "none": None}

        result = run_sweep(point, SweepGrid.product(x=(1, 2)))
        path = tmp_path / "sweep.csv"
        result.to_csv(path)

        from repro.analysis.sweep import SweepResult

        loaded = SweepResult.from_csv(path)
        assert loaded.points[0].value == {"double": 2, "label": "p1", "none": None}
        assert loaded.axis("x") == (1, 2)

    def test_dataclass_values_flatten_scalar_fields(self, tmp_path):
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
        path = tmp_path / "sweep.csv"
        result.to_csv(path)

        from repro.analysis.sweep import SweepResult

        loaded = SweepResult.from_csv(path)
        assert loaded.points[0].value == {"latency": 1.0, "name": "r2"}

    def test_from_csv_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        from repro.analysis.sweep import SweepResult

        with pytest.raises(ConfigError, match="axes"):
            SweepResult.from_csv(path)
