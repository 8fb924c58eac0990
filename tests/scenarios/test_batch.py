"""Batch-runner tests: golden equivalence, dedup, user files, fan-out."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import scenarios
from repro.core.timing_cache import default_timing_cache
from repro.errors import ConfigError
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios import Scenario
from repro.scenarios.batch import load_scenario_file, resolve_scenario, run_many
from repro.scenarios.store import ResultStore

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "seed_figures_golden.json"
)

REL = 1e-9

#: Every Figs. 5–8 registry scenario, in figure order.
FIGURE_NAMES = (
    "fig5",
    "fig6",
    "fig7-bandwidth",
    "fig7-dram-latency",
    "fig7-batch",
    "fig7-gpu",
    "fig8-models",
    "fig8-batch",
)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def assert_series(actual, expected):
    assert len(actual) == len(expected)
    assert tuple(actual) == pytest.approx(tuple(expected), rel=REL)


def assert_figures_match_golden(batch, golden):
    """The run_many results reproduce the seed golden fixture to 1e-9."""
    series = {entry.name: entry.result.raw["series"] for entry in batch.entries}
    assert_series(
        series["fig5"]["achieved_pflops_per_pu"],
        golden["fig5"]["achieved_pflops_per_spu"],
    )
    assert_series(series["fig6"]["speedup"], golden["fig6"]["speedups"])
    assert_series(
        series["fig7-bandwidth"]["latency"], golden["fig7"]["latencies"]
    )
    assert_series(
        series["fig7-dram-latency"]["achieved_pflops_per_pu"],
        golden["fig7"]["latency_sweep_pflops_per_spu"],
    )
    assert_series(
        series["fig7-batch"]["latency"], golden["fig7"]["batch_latencies"]
    )
    assert series["fig7-gpu"]["latency"][0] == pytest.approx(
        golden["fig7"]["gpu_latency"], rel=REL
    )
    assert_series(
        series["fig8-models"]["speedup"], golden["fig8"]["model_speedups"]
    )
    assert_series(
        series["fig8-batch"]["kv_cache_bytes"], golden["fig8"]["kv_cache_bytes"]
    )


def cache_counters() -> tuple[int, int, int, int]:
    """The process-wide timing and mapping caches' hit/miss counters."""
    timing, mapping = default_timing_cache(), default_mapping_cache()
    return timing.hits, timing.misses, mapping.hits, mapping.misses


class TestBatchGoldenEquivalence:
    def test_run_many_reproduces_seed_figures_cold_and_warm(
        self, golden, tmp_path
    ):
        store = ResultStore(tmp_path / "store")

        cold = run_many(FIGURE_NAMES, store=store)
        assert all(not e.from_cache for e in cold.entries)
        assert cold.stats.n_computed == len(FIGURE_NAMES)
        assert_figures_match_golden(cold, golden)

        counters = cache_counters()
        warm = run_many(FIGURE_NAMES, store=store)
        assert all(e.from_cache for e in warm.entries)
        assert warm.stats.n_computed == 0
        assert warm.stats.store_hit_rate == 1.0
        # The warm pass is compute-free on the shared caches...
        assert cache_counters() == counters
        # ... and still reproduces the golden numbers bit-for-bit.
        assert_figures_match_golden(warm, golden)
        for cold_entry, warm_entry in zip(cold.entries, warm.entries):
            assert (
                cold_entry.result.raw_json() == warm_entry.result.raw_json()
            )
            assert cold_entry.result.text == warm_entry.result.text
            assert cold_entry.result.csv == warm_entry.result.csv

    def test_no_cache_batch_matches_cached_batch(self, golden, tmp_path):
        store = ResultStore(tmp_path / "store")
        names = ("fig6", "fig7-gpu")
        cached = run_many(names, store=store)
        bypass = run_many(names)
        assert all(not e.from_cache for e in bypass.entries)
        for a, b in zip(cached.entries, bypass.entries):
            assert a.result.raw_json() == b.result.raw_json()


class TestKernelLevelScenarios:
    """Golden-style regression for the two new memory-policy scenarios."""

    def test_l2_kv_cache_scenario_brackets_the_policy_gain(self):
        result = scenarios.get("l2-kv-cache").run()
        models = result.axis("workload.model")
        overheads = result.axis("system.kernel_overhead_ns")
        speedups = result.series("speedup")
        by_point = dict(zip(zip(models, overheads), speedups))

        for model in ("Llama2-7B", "Llama2-13B"):
            with_overhead = by_point[(model, None)]
            without = by_point[(model, 0.0)]
            # Serving the KV cache from L2 helps, and removing the kernel
            # dispatch overhead is the optimistic end of the paper's band.
            assert with_overhead > 1.0
            assert without > with_overhead
        # Llama2-70B's 10 GB KV cache does not fit the 4.19 GB L2.
        assert by_point[("Llama2-70B", None)] == pytest.approx(1.0, rel=1e-12)
        assert by_point[("Llama2-70B", 0.0)] == pytest.approx(1.0, rel=1e-12)

    def test_new_scenarios_are_registered_and_round_trip(self):
        for name in ("l2-kv-cache", "jsram-residency"):
            scenario = scenarios.get(name)
            assert Scenario.from_json(scenario.to_json()) == scenario


class TestResolution:
    def test_registry_name_wins(self):
        assert resolve_scenario("fig5") is scenarios.get("fig5")

    def test_scenario_passes_through(self):
        scenario = scenarios.get("fig5")
        assert resolve_scenario(scenario) is scenario

    def test_json_file_loads(self, tmp_path):
        scenario = scenarios.get("fig7-gpu")
        path = tmp_path / "user_scenario.json"
        path.write_text(scenario.to_json())
        assert resolve_scenario(str(path)) == scenario
        assert load_scenario_file(path) == scenario

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            resolve_scenario("fig99")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            resolve_scenario(str(tmp_path / "missing.json"))

    def test_non_scenario_json_raises(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="not a scenario"):
            resolve_scenario(str(path))


class TestDedupAndSharing:
    def test_identical_items_compute_once(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scenario = scenarios.get("fig7-gpu")
        path = tmp_path / "copy.json"
        path.write_text(scenario.to_json())

        batch = run_many(["fig7-gpu", scenario, str(path)], store=store)
        assert batch.stats.n_items == 3
        assert batch.stats.n_unique == 1
        assert batch.stats.n_computed == 1
        assert batch.stats.n_deduplicated == 2
        assert store.stats.puts == 1
        assert [e.deduplicated for e in batch.entries] == [False, True, True]
        digests = {e.digest for e in batch.entries}
        assert len(digests) == 1

    def test_cross_scenario_point_dedup_through_shared_caches(self, tmp_path):
        """fig7-batch and fig8-batch share every sweep point's mapping."""
        mapping = default_mapping_cache()
        mapping.clear()
        run_many(["fig7-batch", "fig8-batch"])
        # fig8-batch adds a GPU reference but re-times the *same* mapped
        # SPU workloads fig7-batch already mapped: the shared cache turns
        # those points into pure hits.
        assert mapping.hits >= 6


class TestBatchProvenance:
    def test_computed_entries_record_compute_wall_time(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        batch = run_many(["fig3c-blade-spec", "table1"], store=store)
        assert all(not entry.from_cache for entry in batch.entries)
        for entry in store.entries():
            assert entry.provenance is not None
            assert entry.provenance.wall_time_s > 0

        # A warm re-serve replays the stored stamps untouched.
        warm = run_many(["fig3c-blade-spec", "table1"], store=store)
        for entry in warm.entries:
            assert entry.result.provenance.wall_time_s > 0
