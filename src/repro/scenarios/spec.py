"""The :class:`Scenario` spec: one experiment as serializable data.

A scenario names everything an experiment needs — the system under test (a
declarative :class:`~repro.arch.config.SystemConfig`), an optional reference
system, the workload, the parallelization, an optional sweep grid whose axes
are dotted override paths (``"system.dram_bandwidth_tbps"``,
``"workload.batch"``, ``"parallel.data_parallel"``) and the named series to
extract from each evaluated point.  Scenarios are frozen, hashable and
round-trip losslessly through ``to_dict``/``from_dict`` (and JSON), so an
experiment can be stored, diffed, shipped over the wire and rerun
bit-identically:

>>> s = (Scenario.builder("fig5-mini")
...      .training("GPT3-76.1B", batch=128)
...      .parallel(tensor_parallel=8, pipeline_parallel=8)
...      .on(SystemConfig(kind="scd_blade"))
...      .sweep_product(**{"system.dram_bandwidth_tbps": (1, 2, 4)})
...      .extracting("achieved_pflops_per_pu")
...      .build())
>>> Scenario.from_dict(s.to_dict()) == s
True

Execution lives in :mod:`repro.scenarios.runner`; the paper's experiments
are pre-registered in :mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Mapping, Sequence

from repro.analysis.sweep import SweepGrid
from repro.arch.config import SystemConfig, scalar_dict
from repro.errors import ConfigError, require_positive
from repro.parallel.strategy import ParallelConfig
from repro.workloads.llm import MODEL_ZOO, LLMConfig, MoESpec

#: Recognized scenario kinds.
SCENARIO_KINDS = ("training", "inference", "dse", "table")

#: Axis-path prefixes a sweep grid may override.
AXIS_TARGETS = ("system", "ref_system", "workload", "parallel")

#: Table artifacts a ``kind="table"`` scenario can name.
TABLE_KINDS = ("technology", "datalink", "blade_spec", "pcl_flow")


def _model_ref(model: str | LLMConfig) -> str | LLMConfig:
    """Normalize a model reference for a :class:`WorkloadConfig`.

    A zoo key stays a key; an :class:`LLMConfig` that *is* its zoo entry
    collapses to its (serializable) name; a custom config — different
    depth, heads, a model not in the zoo — is kept whole so its actual
    parameters are honored, not the zoo entry that shares its name.
    """
    if isinstance(model, LLMConfig) and MODEL_ZOO.get(model.name) == model:
        return model.name
    return model


def _llm_from_dict(data: Mapping[str, Any]) -> LLMConfig:
    """Rebuild an inline (non-zoo) model spec."""
    known = {f.name for f in fields(LLMConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown LLMConfig fields: {sorted(unknown)}")
    data = dict(data)
    if data.get("moe") is not None:
        data["moe"] = MoESpec(**data["moe"])
    return LLMConfig(**data)


def _cell_to_dict(value: Any) -> Any:
    """Serialize one grid cell (inline models become their dict form)."""
    if isinstance(value, LLMConfig):
        return asdict(value)
    return value


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> dict[str, tuple[tuple[type, ...], str]]:
    """Per field of a grid-axis target: the classes its annotation admits
    (a union's members) and the annotation as written."""
    hints = typing.get_type_hints(cls)
    types = {}
    for f in fields(cls):
        admitted = typing.get_args(hints[f.name]) or (hints[f.name],)
        types[f.name] = (
            tuple(t for t in admitted if isinstance(t, type)),
            str(f.type),
        )
    return types


def _cell_type_fits(kind: type, types: tuple[type, ...]) -> bool:
    """Whether grid cells of class ``kind`` can be values of a field
    admitting ``types``: ``None`` always (it leaves the field untouched),
    an ``int`` where a ``float`` is admitted, and never a ``bool`` as a
    number."""
    if kind is type(None):
        return True
    if issubclass(kind, bool):
        return bool in types
    if issubclass(kind, int) and float in types:
        return True
    return issubclass(kind, types)


def _cell_from_dict(value: Any) -> Any:
    """Inverse of :func:`_cell_to_dict`.

    A mapping cell can only be an inline model: every other supported axis
    value is a hashable scalar (``Scenario`` hashability forbids dicts).
    """
    if isinstance(value, Mapping):
        return _llm_from_dict(value)
    return value


@dataclass(frozen=True)
class WorkloadConfig:
    """The workload side of a scenario: which model, how driven.

    ``model`` is either a :data:`~repro.workloads.llm.MODEL_ZOO` key (the
    serialization-friendly form every registered scenario uses) or an
    inline :class:`LLMConfig` for custom models — scaling studies like
    ``GPT3_76B.with_layers(4)`` keep their actual parameters.  :meth:`llm`
    resolves either form.  ``seq_len`` applies to training (``None`` = the
    model's context window); ``input_tokens`` / ``output_tokens`` to
    inference.
    """

    model: str | LLMConfig
    batch: int = 8
    seq_len: int | None = None
    input_tokens: int = 200
    output_tokens: int = 200
    precision_bytes: float = 2.0

    def __post_init__(self) -> None:
        require_positive("batch", self.batch)
        require_positive("input_tokens", self.input_tokens)
        require_positive("output_tokens", self.output_tokens)
        require_positive("precision_bytes", self.precision_bytes)

    def llm(self) -> LLMConfig:
        """Resolve the model reference (inline config, or zoo name)."""
        if isinstance(self.model, LLMConfig):
            return self.model
        try:
            return MODEL_ZOO[self.model]
        except KeyError:
            raise ConfigError(
                f"unknown model {self.model!r}; zoo has "
                f"{sorted(MODEL_ZOO)}"
            ) from None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form; an inline model becomes its ``asdict`` form."""
        data = scalar_dict(self)
        if isinstance(self.model, LLMConfig):
            data["model"] = asdict(self.model)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown WorkloadConfig fields: {sorted(unknown)}")
        data = dict(data)
        if isinstance(data.get("model"), Mapping):
            data["model"] = _llm_from_dict(data["model"])
        return cls(**data)


@dataclass(frozen=True)
class Scenario:
    """One named, rerunnable experiment.

    Required fields depend on ``kind``:

    * ``"training"`` — ``system``, ``workload``, ``parallel``;
    * ``"inference"`` — ``system``, ``workload`` (``parallel=None`` means
      the paper's pure-TP default);
    * ``"dse"`` — ``system``, ``workload`` (strategy search over all valid
      decompositions, ``max_candidates`` bounded);
    * ``"table"`` — ``table`` naming the artifact.

    ``grid`` axes are dotted override paths applied per point; ``extract``
    names series from :data:`repro.scenarios.extractors.EXTRACTORS`.
    """

    name: str
    kind: str
    description: str = ""
    system: SystemConfig | None = None
    ref_system: SystemConfig | None = None
    workload: WorkloadConfig | None = None
    parallel: ParallelConfig | None = None
    grid: SweepGrid | None = None
    extract: tuple[str, ...] = ()
    table: str | None = None
    max_candidates: int = 64

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a scenario needs a non-empty name")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{SCENARIO_KINDS}"
            )
        if self.kind == "table":
            if self.table not in TABLE_KINDS:
                raise ConfigError(
                    f"table scenario {self.name!r} must name one of "
                    f"{TABLE_KINDS}, got {self.table!r}"
                )
        else:
            if self.system is None or self.workload is None:
                raise ConfigError(
                    f"{self.kind} scenario {self.name!r} needs system and "
                    "workload"
                )
            if self.kind == "training" and self.parallel is None:
                raise ConfigError(
                    f"training scenario {self.name!r} needs an explicit "
                    "parallel config"
                )
        if self.kind in ("dse", "table"):
            # These kinds produce their own artifact; a grid or extractors
            # would be silently ignored by the runner, so reject them here.
            if self.grid is not None:
                raise ConfigError(
                    f"{self.kind} scenario {self.name!r} does not support a "
                    "sweep grid"
                )
            if self.extract:
                raise ConfigError(
                    f"{self.kind} scenario {self.name!r} does not support "
                    "extractors"
                )
            if self.ref_system is not None:
                raise ConfigError(
                    f"{self.kind} scenario {self.name!r} does not support a "
                    "ref_system"
                )
        require_positive("max_candidates", self.max_candidates)
        if self.grid is not None:
            for column, axis in enumerate(self.grid.names):
                target, _, field_name = axis.partition(".")
                if target not in AXIS_TARGETS or not field_name:
                    raise ConfigError(
                        f"grid axis {axis!r} is not a dotted override path "
                        f"(targets: {AXIS_TARGETS})"
                    )
                target_value = getattr(self, target)
                if target_value is None:
                    raise ConfigError(
                        f"grid axis {axis!r} targets {target!r}, which "
                        f"scenario {self.name!r} does not define"
                    )
                valid = _field_types(type(target_value))
                if field_name not in valid:
                    raise ConfigError(
                        f"grid axis {axis!r}: {type(target_value).__name__} "
                        f"has no field {field_name!r} (fields: {sorted(valid)})"
                    )
                types, annotation = valid[field_name]
                # One check per class of cell, not per cell.
                cells = {
                    type(row[column]): row[column] for row in self.grid.rows
                }
                for kind, cell in cells.items():
                    if not _cell_type_fits(kind, types):
                        raise ConfigError(
                            f"grid axis {axis!r}: {cell!r} is not a "
                            f"{type(target_value).__name__}.{field_name} "
                            f"value ({annotation})"
                        )
        from repro.scenarios.extractors import EXTRACTORS

        for name in self.extract:
            if name not in EXTRACTORS:
                raise ConfigError(
                    f"unknown extractor {name!r}; known: {sorted(EXTRACTORS)}"
                )
        ref_extractors = {e for e in self.extract if e.startswith(("speedup", "ref_"))}
        if ref_extractors and self.ref_system is None:
            raise ConfigError(
                f"extractors {sorted(ref_extractors)} need a ref_system"
            )

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Nested plain-dict form; JSON-ready and loss-free."""
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "system": None if self.system is None else self.system.to_dict(),
            "ref_system": (
                None if self.ref_system is None else self.ref_system.to_dict()
            ),
            "workload": (
                None if self.workload is None else self.workload.to_dict()
            ),
            "parallel": (
                None if self.parallel is None else scalar_dict(self.parallel)
            ),
            "grid": (
                None
                if self.grid is None
                else {
                    "names": list(self.grid.names),
                    "rows": [
                        [_cell_to_dict(cell) for cell in row]
                        for row in self.grid.rows
                    ],
                }
            ),
            "extract": list(self.extract),
            "table": self.table,
            "max_candidates": self.max_candidates,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict` (tuples restored, unknown keys rejected)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown Scenario fields: {sorted(unknown)}")
        data = dict(data)
        for key, loader in (
            ("system", SystemConfig.from_dict),
            ("ref_system", SystemConfig.from_dict),
            ("workload", WorkloadConfig.from_dict),
        ):
            if data.get(key) is not None:
                data[key] = loader(data[key])
        if data.get("parallel") is not None:
            data["parallel"] = ParallelConfig(**data["parallel"])
        if data.get("grid") is not None:
            grid = data["grid"]
            data["grid"] = SweepGrid(
                names=tuple(grid["names"]),
                rows=tuple(
                    tuple(_cell_from_dict(cell) for cell in row)
                    for row in grid["rows"]
                ),
            )
        if data.get("extract") is not None:
            data["extract"] = tuple(data["extract"])
        return cls(**data)

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    # -- derivation ---------------------------------------------------------
    def with_grid(self, grid: SweepGrid | None) -> "Scenario":
        """Copy with a different (or no) sweep grid."""
        return replace(self, grid=grid)

    # -- execution (delegates to the runner) --------------------------------
    def run(self):
        """Execute this scenario; see :func:`repro.scenarios.runner.run_scenario`."""
        from repro.scenarios.runner import run_scenario

        return run_scenario(self)

    @staticmethod
    def builder(name: str, description: str = "") -> "ScenarioBuilder":
        """Start a fluent builder."""
        return ScenarioBuilder(name, description)


class ScenarioBuilder:
    """Fluent construction of :class:`Scenario` specs.

    Each method returns ``self``; :meth:`build` validates and freezes.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self._fields: dict[str, Any] = {
            "name": name,
            "description": description,
            "kind": None,
        }

    # -- kind + workload ----------------------------------------------------
    def training(
        self,
        model: str | LLMConfig,
        batch: int,
        seq_len: int | None = None,
        precision_bytes: float = 2.0,
    ) -> "ScenarioBuilder":
        """A training-step scenario on ``model``."""
        self._fields["kind"] = "training"
        self._fields["workload"] = WorkloadConfig(
            model=_model_ref(model),
            batch=batch,
            seq_len=seq_len,
            precision_bytes=precision_bytes,
        )
        return self

    def inference(
        self,
        model: str | LLMConfig,
        batch: int = 8,
        input_tokens: int = 200,
        output_tokens: int = 200,
        precision_bytes: float = 2.0,
    ) -> "ScenarioBuilder":
        """An inference-request scenario on ``model``."""
        self._fields["kind"] = "inference"
        self._fields["workload"] = WorkloadConfig(
            model=_model_ref(model),
            batch=batch,
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            precision_bytes=precision_bytes,
        )
        return self

    def dse(
        self,
        model: str | LLMConfig,
        batch: int,
        seq_len: int | None = None,
        max_candidates: int = 64,
    ) -> "ScenarioBuilder":
        """A parallelization-strategy search scenario."""
        self._fields["kind"] = "dse"
        self._fields["workload"] = WorkloadConfig(
            model=_model_ref(model), batch=batch, seq_len=seq_len
        )
        self._fields["max_candidates"] = max_candidates
        return self

    def table(self, table: str) -> "ScenarioBuilder":
        """A table-artifact scenario (see :data:`TABLE_KINDS`)."""
        self._fields["kind"] = "table"
        self._fields["table"] = table
        return self

    # -- systems ------------------------------------------------------------
    def on(self, system: SystemConfig) -> "ScenarioBuilder":
        """The system under test."""
        self._fields["system"] = system
        return self

    def versus(self, ref_system: SystemConfig) -> "ScenarioBuilder":
        """A reference system (enables ``speedup`` / ``ref_*`` extractors)."""
        self._fields["ref_system"] = ref_system
        return self

    # -- parallelization ----------------------------------------------------
    def parallel(
        self,
        tensor_parallel: int = 1,
        pipeline_parallel: int = 1,
        data_parallel: int = 1,
        microbatch_size: int = 1,
    ) -> "ScenarioBuilder":
        """Fix the (TP, PP, DP) decomposition."""
        self._fields["parallel"] = ParallelConfig(
            tensor_parallel=tensor_parallel,
            pipeline_parallel=pipeline_parallel,
            data_parallel=data_parallel,
            microbatch_size=microbatch_size,
        )
        return self

    # -- sweep grid ---------------------------------------------------------
    def sweep(self, grid: SweepGrid) -> "ScenarioBuilder":
        """Attach a pre-built grid."""
        self._fields["grid"] = grid
        return self

    def sweep_product(self, **axes: Sequence[Any]) -> "ScenarioBuilder":
        """Cartesian-product grid over dotted override paths."""
        return self.sweep(SweepGrid.product(**axes))

    def sweep_zipped(self, **axes: Sequence[Any]) -> "ScenarioBuilder":
        """Lockstep grid over dotted override paths."""
        return self.sweep(SweepGrid.zipped(**axes))

    def sweep_explicit(
        self, points: Sequence[Mapping[str, Any]]
    ) -> "ScenarioBuilder":
        """Explicit point-list grid."""
        return self.sweep(SweepGrid.explicit(points))

    # -- extraction ---------------------------------------------------------
    def extracting(self, *names: str) -> "ScenarioBuilder":
        """Name the series to extract at every point."""
        self._fields["extract"] = tuple(names)
        return self

    # -- finalization -------------------------------------------------------
    def build(self) -> Scenario:
        """Validate and freeze the scenario."""
        if self._fields.get("kind") is None:
            raise ConfigError(
                f"scenario {self._fields['name']!r}: call one of "
                ".training/.inference/.dse/.table before .build"
            )
        return Scenario(**self._fields)


__all__ = [
    "AXIS_TARGETS",
    "SCENARIO_KINDS",
    "TABLE_KINDS",
    "WorkloadConfig",
    "Scenario",
    "ScenarioBuilder",
]
