"""Declarative parameter-grid sweeps.

The figure generators, sensitivity analysis and design-space-exploration
examples all reduce to the same shape: evaluate one point function over a
parameter grid and collect structured results.  This module is the single
batch driver behind them, replacing the hand-rolled per-figure loops:

>>> grid = SweepGrid.product(bandwidth_tbps=(0.5, 1, 2, 4))
>>> result = run_sweep(point_fn, grid, common={"batch": 128})
>>> result.series(lambda report: report.time_per_batch)

Grids come in three flavors:

* :meth:`SweepGrid.product`  — cartesian product of named axes (the usual
  design-space grid; first axis outermost);
* :meth:`SweepGrid.zipped`   — axes advanced in lockstep (paired settings,
  e.g. a per-knob low/high perturbation);
* :meth:`SweepGrid.explicit` — an explicit list of parameter dicts.

Every point runs in the calling process, on the process-wide mapping and
kernel-timing caches: the paper's grids are a few dozen points at most, at
about a millisecond each, so a worker pool's start-up and pickling would
cost more than it saves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import ConfigError


@dataclass(frozen=True)
class SweepGrid:
    """A named parameter grid: the points a sweep evaluates.

    ``names`` is the axis order; ``rows`` holds one value tuple per point
    (row-major for product grids: the first axis varies slowest).
    """

    names: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.names):
                raise ConfigError(
                    f"grid row {row!r} does not match axes {self.names!r}"
                )

    # -- constructors ------------------------------------------------------
    @classmethod
    def product(cls, **axes: Sequence[Any]) -> "SweepGrid":
        """Cartesian product of named axes (first axis outermost)."""
        if not axes:
            raise ConfigError("a sweep grid needs at least one axis")
        names = tuple(axes)
        rows = tuple(itertools.product(*(tuple(axes[n]) for n in names)))
        return cls(names=names, rows=rows)

    @classmethod
    def zipped(cls, **axes: Sequence[Any]) -> "SweepGrid":
        """Axes advanced in lockstep (all must have equal length)."""
        if not axes:
            raise ConfigError("a sweep grid needs at least one axis")
        names = tuple(axes)
        columns = {n: tuple(axes[n]) for n in names}
        lengths = {n: len(col) for n, col in columns.items()}
        if len(set(lengths.values())) != 1:
            raise ConfigError(
                f"zipped axes must have equal lengths, got {lengths}"
            )
        rows = tuple(zip(*(columns[n] for n in names)))
        return cls(names=names, rows=rows)

    @classmethod
    def explicit(cls, points: Sequence[Mapping[str, Any]]) -> "SweepGrid":
        """An explicit list of parameter dicts (all with the same keys)."""
        if not points:
            raise ConfigError("a sweep grid needs at least one point")
        names = tuple(points[0])
        for point in points:
            if set(point) != set(names):
                raise ConfigError(
                    f"inconsistent point keys: {tuple(point)!r} vs {names!r}"
                )
        rows = tuple(tuple(point[n] for n in names) for point in points)
        return cls(names=names, rows=rows)

    # -- views -------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def points(self) -> Iterator[dict[str, Any]]:
        """Parameter dict per grid point, in order."""
        for row in self.rows:
            yield dict(zip(self.names, row))

    def axis(self, name: str) -> tuple[Any, ...]:
        """The per-point values of one axis."""
        idx = self.names.index(name)
        return tuple(row[idx] for row in self.rows)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated grid point: its parameters plus the point value."""

    params: Mapping[str, Any]
    value: Any

    def __getitem__(self, name: str) -> Any:
        return self.params[name]


@dataclass(frozen=True)
class SweepResult:
    """Structured results of one sweep, in grid order."""

    grid: SweepGrid
    points: tuple[SweepPoint, ...] = field(repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def values(self) -> tuple[Any, ...]:
        """The point values, in grid order."""
        return tuple(point.value for point in self.points)

    def axis(self, name: str) -> tuple[Any, ...]:
        """The swept values of one axis, in grid order."""
        return self.grid.axis(name)

    def series(self, extract: Callable[[Any], Any] | str) -> tuple[Any, ...]:
        """Map an extractor (callable, or attribute name) over the values."""
        if isinstance(extract, str):
            name = extract
            return tuple(getattr(point.value, name) for point in self.points)
        return tuple(extract(point.value) for point in self.points)

    def where(self, **fixed: Any) -> "SweepResult":
        """Sub-sweep with the given axes pinned to fixed values (possibly
        empty, with the axis names preserved)."""
        keep = tuple(
            point
            for point in self.points
            if all(point.params[k] == v for k, v in fixed.items())
        )
        grid = SweepGrid(
            names=self.grid.names,
            rows=tuple(
                tuple(p.params[n] for n in self.grid.names) for p in keep
            ),
        )
        return SweepResult(grid=grid, points=keep)

    # -- persistence (the staged raw → CSV pipeline shape) -----------------
    def to_csv_text(self) -> str:
        """The sweep as CSV text: axis columns plus flattened value columns.

        Point values may be scalars (one ``value`` column), mappings, or
        dataclasses (one column per scalar field; non-scalar fields are
        dropped).  The first line records the axis names so
        :meth:`from_csv` can split axes from values without guessing.  The
        text is deterministic for a given sweep — the scenario result store
        relies on cached and recomputed CSV artifacts being byte-identical.
        """
        import csv
        import io

        flat = [_flatten_value(point.value) for point in self.points]
        value_cols: list[str] = []
        for row in flat:
            for name in row:
                if name not in value_cols:
                    value_cols.append(name)
        header = list(self.grid.names) + value_cols
        buffer = io.StringIO(newline="")
        buffer.write("# axes: " + ",".join(self.grid.names) + "\n")
        writer = csv.writer(buffer)
        writer.writerow(header)
        for point, values in zip(self.points, flat):
            row = [_to_cell(point.params[n]) for n in self.grid.names]
            row.extend(_to_cell(values.get(c)) for c in value_cols)
            writer.writerow(row)
        return buffer.getvalue()

    def to_csv(self, path) -> None:
        """Write :meth:`to_csv_text` to ``path``."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv_text())

    @classmethod
    def from_csv_text(cls, text: str, source: str = "<string>") -> "SweepResult":
        """Parse :meth:`to_csv_text` output back into a sweep.

        Every cell — axis values included — comes back as a plain cell type
        (``int``/``float``/``bool``/``str``/``None``), so a *string* that
        happens to look numeric (an axis value ``"2"``) is restored as a
        number.  A lone ``value`` column restores scalar points, anything
        else restores a dict per point.
        """
        import csv
        import io

        handle = io.StringIO(text, newline="")
        first = handle.readline()
        if not first.startswith("# axes:"):
            raise ConfigError(
                f"{source}: not a SweepResult CSV (missing '# axes:' line)"
            )
        axes = tuple(
            name for name in first.split(":", 1)[1].strip().split(",") if name
        )
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header[: len(axes)]) != axes:
            raise ConfigError(
                f"{source}: header {header!r} does not start with axes {axes!r}"
            )
        value_cols = header[len(axes):]
        rows = []
        values = []
        for cells in reader:
            parsed = [_from_cell(c) for c in cells]
            rows.append(tuple(parsed[: len(axes)]))
            rest = parsed[len(axes):]
            if value_cols == ["value"]:
                values.append(rest[0])
            else:
                values.append(dict(zip(value_cols, rest)))
        grid = SweepGrid(names=axes, rows=tuple(rows))
        points = tuple(
            SweepPoint(params=dict(zip(axes, row)), value=value)
            for row, value in zip(rows, values)
        )
        return cls(grid=grid, points=points)

    @classmethod
    def from_csv(cls, path) -> "SweepResult":
        """Read a :meth:`to_csv` file back into a sweep."""
        with open(path, newline="") as handle:
            return cls.from_csv_text(handle.read(), source=str(path))


_SCALAR_TYPES = (int, float, bool, str)


def _flatten_value(value: Any) -> dict[str, Any]:
    """Flatten one point value to named scalar columns for CSV."""
    import dataclasses

    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [
            (f.name, getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    elif isinstance(value, Mapping):
        items = list(value.items())
    else:
        return {"value": value}
    return {
        name: v
        for name, v in items
        if v is None or isinstance(v, _SCALAR_TYPES)
    }


def _to_cell(value: Any) -> str:
    """Encode one scalar as a CSV cell (``None`` → empty)."""
    if value is None:
        return ""
    return str(value)


def _from_cell(cell: str) -> Any:
    """Inverse of :func:`_to_cell`: recover int/float/bool/None, else str."""
    if cell == "":
        return None
    if cell == "True":
        return True
    if cell == "False":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def run_sweep(
    fn: Callable[..., Any],
    grid: SweepGrid,
    *,
    common: Mapping[str, Any] | None = None,
) -> SweepResult:
    """Evaluate ``fn(**point, **common)`` over every grid point, in order.

    ``common`` holds extra keyword arguments passed to every point.
    """
    common = dict(common or {})
    points = tuple(
        SweepPoint(params=params, value=fn(**params, **common))
        for params in grid.points()
    )
    return SweepResult(grid=grid, points=points)


__all__ = ["SweepGrid", "SweepPoint", "SweepResult", "run_sweep"]
