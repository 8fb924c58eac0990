"""Declarative scenarios: every experiment as one serializable spec.

A :class:`Scenario` carries the system recipe
(:class:`~repro.arch.config.SystemConfig`), the workload, the
parallelization, an optional sweep grid of dotted override axes, and the
named series to extract — hashable, dict/JSON-round-trippable, rerunnable.
:func:`run_scenario` executes any scenario through the declarative sweep
driver, the shared mapping cache and the memoized op-program timing engine;
:mod:`~repro.scenarios.registry` pre-registers the paper's figures, tables,
the sensitivity tornado and the DSE search under stable names, and
``python -m repro`` exposes the whole registry as a CLI:

>>> from repro import scenarios
>>> result = scenarios.get("fig5").run()
>>> result.series("achieved_pflops_per_pu")

Results are content-addressed: :mod:`~repro.scenarios.store` keys every
result on a stable digest of the spec + schema version, so re-running any
cached scenario is a pure backend read, and :mod:`~repro.scenarios.batch`
serves whole lists of scenarios (names, specs, user JSON files)
compute-once through the shared caches.  *Where* results live is a
pluggable storage backend (:mod:`~repro.scenarios.backends`), addressable
by URL everywhere a store is accepted — ``mem://`` (in-process LRU hot
tier), ``file:///path`` (cache directory), or comma-separated tiers:

>>> from repro.scenarios import ResultStore, run_many
>>> batch = run_many(["fig5", "fig6"], store=ResultStore("results/.cache"))
>>> tiered = ResultStore("mem://,file://results/.cache")
"""

from repro.scenarios.backends import (
    BackendEntry,
    BackendStats,
    InMemoryBackend,
    LocalFSBackend,
    StoreBackend,
    TieredStore,
    backend_from_url,
    is_store_url,
)
from repro.scenarios.batch import (
    BatchEntry,
    BatchResult,
    BatchStats,
    load_scenario_file,
    resolve_scenario,
    run_many,
)
from repro.scenarios.extractors import EXTRACTORS, PointOutcome, extract
from repro.scenarios.registry import REGISTRY, get, register
from repro.scenarios.runner import (
    ScenarioResult,
    apply_axes,
    evaluate_scenario,
    run_scenario,
)
from repro.scenarios.spec import (
    SCENARIO_KINDS,
    TABLE_KINDS,
    Scenario,
    ScenarioBuilder,
    WorkloadConfig,
)
from repro.scenarios.store import (
    SCHEMA_VERSION,
    Provenance,
    ResultStore,
    StoredResult,
    default_cache_dir,
    run_cached,
    scenario_digest,
)

__all__ = [
    "SCENARIO_KINDS",
    "SCHEMA_VERSION",
    "TABLE_KINDS",
    "BackendEntry",
    "BackendStats",
    "InMemoryBackend",
    "LocalFSBackend",
    "StoreBackend",
    "TieredStore",
    "backend_from_url",
    "is_store_url",
    "Scenario",
    "ScenarioBuilder",
    "WorkloadConfig",
    "PointOutcome",
    "EXTRACTORS",
    "extract",
    "ScenarioResult",
    "StoredResult",
    "Provenance",
    "ResultStore",
    "apply_axes",
    "evaluate_scenario",
    "run_scenario",
    "run_cached",
    "run_many",
    "scenario_digest",
    "default_cache_dir",
    "load_scenario_file",
    "resolve_scenario",
    "BatchEntry",
    "BatchResult",
    "BatchStats",
    "REGISTRY",
    "register",
    "get",
]
