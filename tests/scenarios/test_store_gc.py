"""LRU eviction and provenance tests for the result store."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.arch.config import SystemConfig
from repro.scenarios import Scenario
from repro.scenarios.store import (
    Provenance,
    ResultStore,
    current_provenance,
    run_cached,
)
from tests.scenarios.test_backends import restamp


def tiny_scenario(name: str = "store-test", bandwidths=(1, 4)) -> Scenario:
    """A cheap two-point training sweep (same shape as test_store's)."""
    return (
        Scenario.builder(name, "store test sweep")
        .training("GPT3-76.1B", batch=32)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": tuple(bandwidths)})
        .extracting("time_per_batch", "achieved_pflops_per_pu")
        .build()
    )


def payload(tag: str = "x") -> dict:
    """A tiny artifact payload; ``tag`` pads entries to controllable sizes."""
    return {"raw": {"series": {}, "tag": tag}, "text": tag, "csv": None}


def put_n(store: ResultStore, n: int, prefix: str = "gc") -> list:
    """Put n distinct entries, oldest first, with strictly ordered mtimes."""
    scenarios = []
    for i in range(n):
        scenario = tiny_scenario(f"{prefix}-{i}")
        store.put(scenario, payload(f"entry-{i}"))
        # File mtimes can tie within one clock tick; spread them so LRU
        # order is deterministic.
        os.utime(store.path_for(scenario), (1_000_000 + i, 1_000_000 + i))
        scenarios.append(scenario)
    return scenarios


class TestGcMaxEntries:
    def test_evicts_down_to_the_cap_oldest_first(self, tmp_path):
        store = ResultStore(tmp_path)
        scenarios = put_n(store, 5)
        evicted = store.gc(max_entries=2)
        assert len(evicted) == 3
        assert store.n_entries == 2
        assert store.backend.counters.evictions == 3
        # The two *newest* survive.
        assert store.get(scenarios[3]) is not None
        assert store.get(scenarios[4]) is not None
        assert set(evicted) == {
            store.digest(scenario) for scenario in scenarios[:3]
        }

    def test_get_refreshes_lru_position(self, tmp_path):
        store = ResultStore(tmp_path)
        scenarios = put_n(store, 3)
        assert store.get(scenarios[0]) is not None  # touch the oldest
        evicted = store.gc(max_entries=2)
        assert evicted == [store.digest(scenarios[1])]
        assert store.get(scenarios[0]) is not None  # survived: recently used

    def test_noop_under_the_cap(self, tmp_path):
        store = ResultStore(tmp_path)
        put_n(store, 2)
        assert store.gc(max_entries=5) == []
        assert store.backend.counters.evictions == 0


class TestGcMaxBytes:
    def test_evicts_down_to_the_byte_cap(self, tmp_path):
        store = ResultStore(tmp_path)
        put_n(store, 4)
        sizes = {p: p.stat().st_size for p in store._entry_paths()}
        total = sum(sizes.values())
        one_entry = total // 4
        evicted = store.gc(max_bytes=total - one_entry)
        assert len(evicted) >= 1
        assert store.total_bytes <= total - one_entry

    def test_zero_cap_empties_the_store(self, tmp_path):
        store = ResultStore(tmp_path)
        put_n(store, 3)
        assert len(store.gc(max_bytes=0)) == 3
        assert store.n_entries == 0


class TestAutoGcOnPut:
    def test_put_enforces_configured_caps(self, tmp_path):
        store = ResultStore(f"file://{tmp_path}?max_entries=2")
        for i in range(5):
            # File mtimes tick on the kernel's coarse clock (~ms); space
            # the puts so the LRU order can never tie.
            time.sleep(0.02)
            store.put(tiny_scenario(f"auto-{i}"), payload(str(i)))
            assert store.n_entries <= 2
        assert store.backend.counters.evictions == 3
        # The most recent put always survives its own gc.
        assert store.get(tiny_scenario("auto-4")) is not None

    def test_unconfigured_store_never_auto_evicts(self, tmp_path):
        store = ResultStore(tmp_path)
        put_n(store, 4)
        assert store.n_entries == 4
        assert store.backend.counters.evictions == 0

    def test_gc_sweeps_stale_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        put_n(store, 1)
        stale = store.cache_dir / ("0" * 64 + ".123.456.tmp")
        stale.write_text("half a write")
        os.utime(stale, (1, 1))  # ancient
        fresh = store.cache_dir / ("1" * 64 + ".123.457.tmp")
        fresh.write_text("in-flight write")
        store.gc(max_entries=10)
        assert not stale.exists()
        assert fresh.exists()  # a live writer's file is never swept
        assert store.n_entries == 1


class TestProvenance:
    def test_put_stamps_provenance(self, tmp_path):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario()
        before = time.time()
        stored = store.put(scenario, payload(), wall_time_s=1.25)
        assert stored.provenance is not None
        assert stored.provenance.schema_version == store.schema_version
        assert stored.provenance.wall_time_s == 1.25
        assert stored.provenance.host
        assert before <= stored.provenance.created_unix <= time.time()

        warm = store.get(scenario)
        assert warm.provenance == stored.provenance
        (entry,) = store.entries()
        assert entry.provenance == stored.provenance
        assert entry.created_unix == stored.provenance.created_unix

    def test_run_cached_records_wall_time(self, tmp_path):
        store = ResultStore(tmp_path)
        cold = run_cached(tiny_scenario(), store)
        assert cold.provenance is not None
        assert cold.provenance.wall_time_s > 0

    def test_pre_provenance_entries_are_valid_and_oldest(self, tmp_path):
        """An entry stored with ``null`` provenance reads back fine."""
        store = ResultStore(tmp_path)
        scenario = tiny_scenario("pre-gc-era")
        store.put(scenario, payload("old"))
        restamp(store, scenario, None)

        hit = store.get(scenario)
        assert hit is not None and hit.text == "old"
        assert hit.provenance is None
        assert store.stats.corrupt == 0  # graceful, not corrupt

        (meta,) = store.entries()
        assert meta.provenance is None
        assert meta.created_unix == 0.0  # age-dated as oldest

    @pytest.mark.parametrize(
        "bad", [None, 42, "soon", [], {"created_unix": "never"}, {}]
    )
    def test_malformed_provenance_reads_as_none(self, tmp_path, bad):
        store = ResultStore(tmp_path)
        scenario = tiny_scenario("bad-prov")
        store.put(scenario, payload())
        restamp(store, scenario, bad)
        hit = store.get(scenario)
        assert hit is not None
        assert hit.provenance is None
        assert store.stats.corrupt == 0

    def test_provenance_round_trips(self):
        stamp = current_provenance(wall_time_s=0.5)
        assert Provenance.from_dict(stamp.to_dict()) == stamp
        assert (
            Provenance.from_dict(json.loads(json.dumps(stamp.to_dict())))
            == stamp
        )
