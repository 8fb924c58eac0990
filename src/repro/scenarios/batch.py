"""Batch serving runner: many scenarios, one shared compute substrate.

:func:`run_many` executes a heterogeneous list of scenarios — registry
names, :class:`~repro.scenarios.spec.Scenario` objects, or paths to user
scenario JSON files — through the content-addressed result store and one
shared pair of process-wide caches:

* **store first** — every item is looked up by digest; warm entries are
  served as pure file reads and never touch the compute path;
* **digest dedup** — items that resolve to the *same* spec (two names for
  one experiment, a file that duplicates a registry entry) are computed
  once and served to every occurrence;
* **one substrate** — misses are computed in item order, in this
  process, through the same compute-and-store step as
  :func:`~repro.scenarios.store.run_cached`, so they share the
  process-wide :class:`~repro.parallel.mapper.MappingCache` and
  :class:`~repro.core.timing_cache.KernelTimingCache` across scenarios —
  sweep points that recur across specs (the fig7/fig8 batch grids share
  most of their points) are mapped and kernel-timed once for the whole
  batch.

The CLI's ``run-all`` and the cache-warm serving benchmark are thin
wrappers over this function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.core.timing_cache import default_timing_cache
from repro.errors import ConfigError
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios.backends import StoreBackend
from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import Scenario
from repro.scenarios.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoredResult,
    _compute_and_store,
    scenario_digest,
)


def load_scenario_file(path: str | Path) -> Scenario:
    """Load a user scenario from a ``Scenario.to_json`` file."""
    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {file_path}: {exc}") from None
    try:
        return Scenario.from_json(text)
    except (ConfigError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(
            f"{file_path} is not a scenario spec: {exc}"
        ) from None


def resolve_scenario(item: "Scenario | str | Path") -> Scenario:
    """Resolve one batch item: a spec, a registry name, or a JSON file path.

    Registry names win over files, so ``run fig5`` never surprises; anything
    that is not a registered name is treated as a path when it looks like
    one (contains a separator or the ``.json`` suffix) or exists on disk.
    """
    if isinstance(item, Scenario):
        return item
    if isinstance(item, Path):
        return load_scenario_file(item)
    name = str(item)
    if name in REGISTRY:
        return REGISTRY[name]
    path = Path(name)
    looks_like_path = (
        name.endswith(".json") or "/" in name or "\\" in name or path.exists()
    )
    if looks_like_path:
        return load_scenario_file(path)
    raise ConfigError(
        f"unknown scenario {name!r}: not a registered name "
        f"(registered: {sorted(REGISTRY)}) and not a scenario file"
    )


@dataclass(frozen=True)
class BatchEntry:
    """One batch item's outcome."""

    scenario: Scenario
    result: StoredResult
    digest: str
    #: Served from the result store (a pure file read).
    from_cache: bool
    #: Same digest as an earlier item in this batch (computed once).
    deduplicated: bool

    @property
    def name(self) -> str:
        return self.scenario.name


@dataclass(frozen=True)
class BatchStats:
    """What serving the batch cost.

    Cache counters are deltas over the batch on this process's shared
    caches.
    """

    n_items: int
    n_unique: int
    n_from_store: int
    n_computed: int
    n_deduplicated: int
    mapping_hits: int
    mapping_misses: int
    timing_hits: int
    timing_misses: int
    store_hit_rate: float


@dataclass(frozen=True)
class BatchResult:
    """Results of one :func:`run_many` call, in item order."""

    entries: tuple[BatchEntry, ...] = field(repr=False)
    stats: BatchStats

    def __len__(self) -> int:
        return len(self.entries)

    def results(self) -> tuple[StoredResult, ...]:
        """The stored-result views, in item order."""
        return tuple(entry.result for entry in self.entries)

    def result(self, name: str) -> StoredResult:
        """The first entry with a given scenario name."""
        for entry in self.entries:
            if entry.scenario.name == name:
                return entry.result
        raise ConfigError(
            f"no scenario {name!r} in this batch; ran "
            f"{[e.scenario.name for e in self.entries]}"
        )

    def render(self) -> str:
        """Every rendered artifact, in item order."""
        return "\n\n".join(entry.result.render() for entry in self.entries)


def run_many(
    items: Iterable["Scenario | str | Path"],
    *,
    store: "ResultStore | str | Path | StoreBackend | None" = None,
    use_cache: bool = True,
) -> BatchResult:
    """Serve a batch of scenarios, compute-once per unique spec.

    Parameters
    ----------
    items:
        Scenarios, registry names, or paths to scenario JSON files.
    store:
        The result store to consult/populate (``None`` = no persistence):
        a :class:`ResultStore`, or anything that names one — a cache
        directory path, a backend URL (``mem://``, ``file:///path``, or
        comma-separated tiers) or a backend object.
    use_cache:
        ``False`` bypasses the store in both directions (``--no-cache``).
    """
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    scenarios = [resolve_scenario(item) for item in items]
    schema = store.schema_version if store is not None else SCHEMA_VERSION
    digests = [scenario_digest(scenario, schema) for scenario in scenarios]
    caching = store is not None and use_cache

    mapping_cache = default_mapping_cache()
    timing_cache = default_timing_cache()
    counters0 = (
        mapping_cache.hits,
        mapping_cache.misses,
        timing_cache.hits,
        timing_cache.misses,
    )

    # Pass 1: serve whatever the store already holds, digest-deduplicated.
    outcomes: dict[str, StoredResult] = {}
    to_compute: list[tuple[str, Scenario]] = []
    for digest, scenario in zip(digests, scenarios):
        if digest in outcomes or any(d == digest for d, _ in to_compute):
            continue
        if caching:
            cached = store.get(scenario, _digest=digest)
            if cached is not None:
                outcomes[digest] = cached
                continue
        to_compute.append((digest, scenario))

    # Pass 2: compute the misses, in this process on its shared caches.
    n_from_store = len(outcomes)
    for digest, scenario in to_compute:
        outcomes[digest] = _compute_and_store(
            scenario, digest, store if caching else None
        )

    counters1 = (
        mapping_cache.hits,
        mapping_cache.misses,
        timing_cache.hits,
        timing_cache.misses,
    )

    seen: set[str] = set()
    entries = []
    for digest, scenario in zip(digests, scenarios):
        entries.append(
            BatchEntry(
                scenario=scenario,
                result=outcomes[digest],
                digest=digest,
                from_cache=outcomes[digest].from_cache,
                deduplicated=digest in seen,
            )
        )
        seen.add(digest)

    stats = BatchStats(
        n_items=len(entries),
        n_unique=len(seen),
        n_from_store=n_from_store,
        n_computed=len(to_compute),
        n_deduplicated=len(entries) - len(seen),
        mapping_hits=counters1[0] - counters0[0],
        mapping_misses=counters1[1] - counters0[1],
        timing_hits=counters1[2] - counters0[2],
        timing_misses=counters1[3] - counters0[3],
        store_hit_rate=(
            n_from_store / len(seen) if seen else 0.0
        ),
    )
    return BatchResult(entries=tuple(entries), stats=stats)


__all__ = [
    "BatchEntry",
    "BatchResult",
    "BatchStats",
    "load_scenario_file",
    "resolve_scenario",
    "run_many",
]
