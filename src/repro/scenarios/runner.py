"""Execute :class:`~repro.scenarios.spec.Scenario` specs.

One path for every experiment: sweep axes are applied as dotted overrides to
the scenario's configs, each point builds its systems from the declarative
recipes, the workload is mapped through the process-wide
:class:`~repro.parallel.mapper.MappingCache` (points that differ only in
system parameters map once and re-time per system), and timing runs on the
memoized op-program engine.  Grids go through
:func:`repro.analysis.sweep.run_sweep` like any other sweep.

This module always computes; store-aware execution (serve warm results
from a pluggable storage backend — ``mem://``/``file://`` tiers —
instead of recomputing) is layered on top by
:func:`repro.scenarios.store.run_cached` and
:func:`repro.scenarios.batch.run_many`, both of which produce artifact
payloads byte-identical to a direct :func:`run_scenario` render.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.sweep import SweepPoint, SweepResult, run_sweep
from repro.core.model import Optimus
from repro.core.optimizer import StrategyResult, search_strategies
from repro.errors import ConfigError
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios.extractors import PointOutcome, extract
from repro.scenarios.spec import Scenario


# ---------------------------------------------------------------------------
# Axis application
# ---------------------------------------------------------------------------
def apply_axes(scenario: Scenario, params: Mapping[str, Any]) -> Scenario:
    """Apply one grid point's dotted overrides to a scenario.

    ``None`` values leave the target untouched (explicit grids use ``None``
    to express "this knob is not perturbed at this point").
    """
    overrides: dict[str, dict[str, Any]] = {}
    for axis, value in params.items():
        if value is None:
            continue
        target, _, field_name = axis.partition(".")
        overrides.setdefault(target, {})[field_name] = value

    updated = scenario
    for target, fields_ in overrides.items():
        current = getattr(updated, target)
        if current is None:
            raise ConfigError(
                f"scenario {scenario.name!r} has no {target!r} to override"
            )
        updated = dataclasses.replace(
            updated, **{target: dataclasses.replace(current, **fields_)}
        )
    return updated


# ---------------------------------------------------------------------------
# Point evaluation
# ---------------------------------------------------------------------------
def evaluate_scenario(scenario: Scenario) -> PointOutcome:
    """Evaluate one (grid-free) scenario point.

    Builds the system(s) from their declarative configs, maps the workload
    through the shared mapping cache, and times it with Optimus.
    """
    if scenario.kind not in ("training", "inference"):
        raise ConfigError(
            f"evaluate_scenario handles training/inference points, not "
            f"{scenario.kind!r}"
        )
    report = _evaluate_on(scenario, scenario.system.build())
    ref_report = None
    if scenario.ref_system is not None:
        ref_report = _evaluate_on(scenario, scenario.ref_system.build())
    return PointOutcome(report=report, ref_report=ref_report)


def _evaluate_on(scenario: Scenario, system):
    """Map and time the scenario's workload on one concrete system."""
    workload = scenario.workload
    model = workload.llm()
    mapping_cache = default_mapping_cache()
    if scenario.kind == "training":
        mapped = mapping_cache.map_training(
            model,
            system,
            scenario.parallel,
            workload.batch,
            workload.seq_len,
            workload.precision_bytes,
        )
        return Optimus(system).evaluate_training(mapped)
    mapped = mapping_cache.map_inference(
        model,
        system,
        scenario.parallel,
        workload.batch,
        workload.input_tokens,
        workload.output_tokens,
        workload.precision_bytes,
    )
    return Optimus(system).evaluate_inference(mapped)


def _scenario_point(scenario: Scenario | None = None, **axes: Any) -> PointOutcome:
    """One sweep point: overrides applied, then evaluated."""
    outcome = evaluate_scenario(apply_axes(scenario, axes))
    return dataclasses.replace(outcome, params=dict(axes))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioResult:
    """What running a scenario produced.

    Exactly one of the payload fields is populated, by kind:
    ``sweep`` (grid scenarios; point values are
    :class:`~repro.scenarios.extractors.PointOutcome`), ``outcome`` (single
    points), ``strategies`` (DSE), ``table_rows``/``table_text`` (tables).
    """

    scenario: Scenario
    sweep: SweepResult | None = None
    outcome: PointOutcome | None = field(default=None, repr=False)
    strategies: tuple[StrategyResult, ...] | None = field(default=None, repr=False)
    table_rows: tuple[tuple[str, ...], ...] | None = None
    table_text: str | None = None

    # -- uniform views ------------------------------------------------------
    def outcomes(self) -> tuple[PointOutcome, ...]:
        """Every evaluated point, in grid order (one for point scenarios)."""
        if self.sweep is not None:
            return self.sweep.values()
        if self.outcome is not None:
            return (self.outcome,)
        return ()

    def series(self, name: str) -> tuple[Any, ...]:
        """One named extractor applied across all points."""
        return tuple(extract(name, outcome) for outcome in self.outcomes())

    def all_series(self) -> dict[str, tuple[Any, ...]]:
        """Every ``scenario.extract`` series, keyed by extractor name."""
        return {name: self.series(name) for name in self.scenario.extract}

    def axis(self, name: str) -> tuple[Any, ...]:
        """The swept values of one grid axis."""
        if self.sweep is None:
            raise ConfigError(f"scenario {self.scenario.name!r} has no sweep")
        return self.sweep.axis(name)

    # -- staged artifacts ---------------------------------------------------
    def extracted_sweep(self) -> SweepResult:
        """The sweep with values replaced by extractor dicts (CSV-ready)."""
        if self.sweep is None:
            raise ConfigError(f"scenario {self.scenario.name!r} has no sweep")
        series = self.all_series()
        points = tuple(
            SweepPoint(
                params=point.params,
                value={name: series[name][i] for name in series},
            )
            for i, point in enumerate(self.sweep.points)
        )
        return SweepResult(grid=self.sweep.grid, points=points)

    def to_raw(self) -> dict[str, Any]:
        """The raw-JSON stage: scenario spec + per-point extracted values."""
        raw: dict[str, Any] = {"scenario": self.scenario.to_dict()}
        if self.table_text is not None or self.table_rows is not None:
            if self.table_rows is not None:
                raw["rows"] = [list(row) for row in self.table_rows]
            if self.table_text is not None:
                raw["text"] = self.table_text
            return raw
        if self.strategies is not None:
            raw["strategies"] = [
                {
                    "tensor_parallel": s.parallel.tensor_parallel,
                    "pipeline_parallel": s.parallel.pipeline_parallel,
                    "data_parallel": s.parallel.data_parallel,
                    "time_per_batch": s.time_per_batch,
                    "achieved_pflops_per_pu": s.report.achieved_flops_per_pu
                    / 1e15,
                }
                for s in self.strategies
            ]
            return raw
        series = self.all_series()
        raw["series"] = {name: list(values) for name, values in series.items()}
        raw["points"] = [
            {
                "params": dict(outcome.params),
                "values": {name: series[name][i] for name in series},
            }
            for i, outcome in enumerate(self.outcomes())
        ]
        return raw

    def render(self) -> str:
        """Human-readable text rendering (the CLI's figure stage)."""
        from repro.analysis.tables import render_columns

        title = self.scenario.description or self.scenario.name
        if self.table_text is not None:
            return f"=== {title} ===\n{self.table_text}"
        if self.table_rows is not None:
            from repro.analysis.tables import (
                BLADE_SPEC_HEADERS,
                DATALINK_HEADERS,
                PCL_FLOW_HEADERS,
            )

            headers = {
                "datalink": DATALINK_HEADERS,
                "blade_spec": BLADE_SPEC_HEADERS,
                "pcl_flow": PCL_FLOW_HEADERS,
            }[self.scenario.table]
            return f"=== {title} ===\n" + render_columns(
                list(self.table_rows), headers
            )
        if self.strategies is not None:
            rows = [
                (
                    str(s.parallel.tensor_parallel),
                    str(s.parallel.pipeline_parallel),
                    str(s.parallel.data_parallel),
                    f"{s.time_per_batch:.4g}",
                    f"{s.report.achieved_flops_per_pu / 1e15:.3g}",
                )
                for s in self.strategies[:12]
            ]
            return f"=== {title} ===\n" + render_columns(
                rows, ("TP", "PP", "DP", "s/batch", "PF/unit")
            )
        series = self.all_series()
        if self.sweep is not None:
            headers = tuple(self.sweep.grid.names) + tuple(series)
            rows = [
                tuple(_fmt(point.params[n]) for n in self.sweep.grid.names)
                + tuple(_fmt(series[name][i]) for name in series)
                for i, point in enumerate(self.sweep.points)
            ]
            return f"=== {title} ===\n" + render_columns(rows, headers)
        lines = [f"=== {title} ==="]
        lines.extend(f"  {name:28s} {_fmt(value)}" for name, value in
                     ((n, series[n][0]) for n in series))
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Run a scenario end to end.

    Tables render their artifact; DSE scenarios search strategies;
    training/inference scenarios evaluate their point, or their whole grid
    through :func:`run_sweep`.
    """
    if scenario.kind == "table":
        return _run_table(scenario)
    if scenario.kind == "dse":
        return _run_dse(scenario)
    if scenario.grid is None:
        return ScenarioResult(
            scenario=scenario, outcome=evaluate_scenario(scenario)
        )
    # The point function never reads the grid, so hand it the grid-free
    # spec: apply_axes' dataclasses.replace re-runs Scenario validation on
    # every point, and a grid riding along would re-check every axis each
    # time.
    sweep = run_sweep(
        _scenario_point,
        scenario.grid,
        common={"scenario": scenario.with_grid(None)},
    )
    return ScenarioResult(scenario=scenario, sweep=sweep)


def _run_table(scenario: Scenario) -> ScenarioResult:
    from repro.analysis import tables

    if scenario.table == "technology":
        from repro.tech.table import technology_comparison_table

        return ScenarioResult(
            scenario=scenario, table_text=technology_comparison_table()
        )
    if scenario.table == "datalink":
        rows = tuple(tuple(row) for row in tables.datalink_table())
    elif scenario.table == "blade_spec":
        rows = tuple(tuple(row) for row in tables.blade_spec_table())
    else:  # "pcl_flow" — spec validation guarantees membership
        rows = tuple(tuple(row) for row in tables.pcl_flow_table())
    return ScenarioResult(scenario=scenario, table_rows=rows)


def _run_dse(scenario: Scenario) -> ScenarioResult:
    workload = scenario.workload
    results = search_strategies(
        workload.llm(),
        scenario.system.build(),
        batch=workload.batch,
        seq_len=workload.seq_len,
        max_candidates=scenario.max_candidates,
    )
    return ScenarioResult(scenario=scenario, strategies=tuple(results))


__all__ = [
    "apply_axes",
    "evaluate_scenario",
    "run_scenario",
    "ScenarioResult",
]
