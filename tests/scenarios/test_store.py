"""Cache-correctness suite for the content-addressed result store."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import scenarios
from repro.arch.config import SystemConfig
from repro.core.timing_cache import default_timing_cache
from repro.errors import ConfigError
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios import Scenario
from repro.scenarios.store import (
    SCHEMA_VERSION,
    CACHE_DIR_ENV,
    EntryError,
    ResultStore,
    artifact_payload,
    default_cache_dir,
    parse_entry,
    run_cached,
    scenario_digest,
)


def tiny_scenario(name: str = "store-test", bandwidths=(1, 4)) -> Scenario:
    """A cheap two-point training sweep for cache-traffic tests."""
    return (
        Scenario.builder(name, "store test sweep")
        .training("GPT3-76.1B", batch=32)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": tuple(bandwidths)})
        .extracting("time_per_batch", "achieved_pflops_per_pu")
        .build()
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestDigest:
    def test_stable_across_processes_in_spirit(self):
        scenario = tiny_scenario()
        rebuilt = Scenario.from_json(scenario.to_json())
        assert scenario_digest(scenario) == scenario_digest(rebuilt)

    def test_every_registered_scenario_digest_is_unique(self):
        digests = {
            scenario_digest(scenarios.get(name)) for name in scenarios.names()
        }
        assert len(digests) == len(scenarios.names())

    def test_schema_version_changes_digest(self):
        scenario = tiny_scenario()
        assert scenario_digest(scenario, 1) != scenario_digest(scenario, 2)

    def test_default_cache_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"


class TestHitMissInvalidate:
    def test_miss_then_hit(self, store):
        scenario = tiny_scenario()
        assert store.get(scenario) is None
        assert store.stats.misses == 1

        result = run_cached(scenario, store)
        assert not result.from_cache
        assert store.stats.puts == 1
        assert store.path_for(scenario).is_file()

        again = run_cached(scenario, store)
        assert again.from_cache
        assert store.stats.hits == 1
        assert again.digest == result.digest

    def test_invalidate_forces_recompute(self, store):
        scenario = tiny_scenario()
        run_cached(scenario, store)
        assert store.invalidate(scenario)
        assert not store.invalidate(scenario)  # already gone
        assert store.stats.invalidations == 1
        assert not run_cached(scenario, store).from_cache

    def test_clear_empties_the_store(self, store):
        run_cached(tiny_scenario("clear-a"), store)
        run_cached(tiny_scenario("clear-b"), store)
        assert store.n_entries == 2
        assert store.clear() == 2
        assert store.n_entries == 0

    def test_clear_leaves_foreign_files_alone(self, store):
        """Only digest-named entries are counted — and deleted."""
        run_cached(tiny_scenario(), store)
        foreign = store.cache_dir / "notes.json"
        foreign.write_text('{"mine": true}')
        assert store.n_entries == 1  # the foreign file is not an entry
        assert store.clear() == 1
        assert foreign.exists()
        assert json.loads(foreign.read_text()) == {"mine": True}

    def test_entries_metadata(self, store):
        scenario = tiny_scenario()
        run_cached(scenario, store)
        (entry,) = store.entries()
        assert entry.name == scenario.name
        assert entry.kind == "training"
        assert entry.size_bytes > 0
        assert entry.digest == store.digest(scenario)

    def test_cold_run_digests_the_spec_once(self, store, monkeypatch):
        calls = []

        def counting(scenario, schema_version=SCHEMA_VERSION):
            calls.append(scenario.name)
            return scenario_digest(scenario, schema_version)

        monkeypatch.setattr("repro.scenarios.store.scenario_digest", counting)
        scenario = tiny_scenario()
        cold = run_cached(scenario, store)
        assert len(calls) == 1 and store.stats.puts == 1
        assert cold.digest == scenario_digest(scenario)
        assert run_cached(scenario, store).from_cache
        assert len(calls) == 2
        run_cached(scenario, None)
        assert len(calls) == 3

    def test_no_cache_bypasses_both_directions(self, store):
        scenario = tiny_scenario()
        result = run_cached(scenario, store, use_cache=False)
        assert not result.from_cache
        assert store.n_entries == 0
        assert store.stats.lookups == 0

        # Even with a warm entry, use_cache=False recomputes.
        run_cached(scenario, store)
        fresh = run_cached(scenario, store, use_cache=False)
        assert not fresh.from_cache


class TestInvalidationRules:
    def test_any_field_mutation_changes_the_digest(self):
        scenario = tiny_scenario()
        mutations = {
            "name": "other-name",
            "description": "changed",
            "extract": ("time_per_batch",),
            "max_candidates": 7,
            "workload": dataclasses.replace(scenario.workload, batch=64),
            "system": scenario.system.with_overrides(dram_latency_ns=50.0),
            "parallel": dataclasses.replace(
                scenario.parallel, microbatch_size=2
            ),
        }
        base = scenario_digest(scenario)
        for field_name, value in mutations.items():
            mutated = dataclasses.replace(scenario, **{field_name: value})
            assert scenario_digest(mutated) != base, field_name

    def test_schema_bump_invalidates_old_entries(self, tmp_path):
        scenario = tiny_scenario()
        old = ResultStore(tmp_path / "store", schema_version=SCHEMA_VERSION)
        run_cached(scenario, old)
        assert old.get(scenario) is not None

        new = ResultStore(
            tmp_path / "store", schema_version=SCHEMA_VERSION + 1
        )
        assert new.get(scenario) is None
        result = run_cached(scenario, new)
        assert not result.from_cache
        # Both generations now coexist under their own digests.
        assert new.n_entries == 2

    def test_corrupted_entry_falls_back_to_recompute(self, store):
        scenario = tiny_scenario()
        cold = run_cached(scenario, store)
        path = store.path_for(scenario)
        path.write_text("{ not json !!!")

        assert store.get(scenario) is None
        assert store.stats.corrupt == 1
        assert not path.exists()  # dropped, not left to rot

        healed = run_cached(scenario, store)
        assert not healed.from_cache
        assert healed.raw_json() == cold.raw_json()

    def test_foreign_json_is_treated_as_corrupt(self, store):
        scenario = tiny_scenario()
        run_cached(scenario, store)
        path = store.path_for(scenario)
        path.write_text(json.dumps({"format": "something-else"}))
        assert store.get(scenario) is None
        assert store.stats.corrupt == 1

    @pytest.mark.parametrize("flip", ["value", "key"])
    @pytest.mark.parametrize("url", ["file://{}", "mem://,file://{}"])
    def test_json_valid_bit_flip_is_a_corrupt_miss(self, tmp_path, url, flip):
        """One changed byte that keeps the entry valid JSON — a digit of a
        stored float, or one bit of a key (``"csv"`` → ``"csw"``) — must
        still turn the read into a corrupt miss, never into a hit with the
        wrong number or a missing stage."""
        scenario = scenarios.get("fig7-gpu")
        cold = run_cached(scenario, ResultStore(f"file://{tmp_path}"))
        path = tmp_path / f"{cold.digest}.json"
        data = path.read_bytes()
        if flip == "value":
            value = repr(cold.raw["series"]["latency"][0]).encode()
            at = data.index(value, data.index(b'"raw":'))
            at += value.index(b".") + 1
            byte = b"%d" % ((data[at] - ord("0") + 3) % 10)
        else:
            at = data.index(b',"csv":') + len(b',"cs')
            byte = b"w"
        flipped = data[:at] + byte + data[at + 1 :]
        json.loads(flipped)  # still a well-formed entry document
        path.write_bytes(flipped)

        store = ResultStore(url.format(tmp_path))
        assert store.get(scenario) is None
        assert store.stats.corrupt == 1
        assert not store.backend.contains(cold.digest)  # no copy survives
        again = run_cached(scenario, store)
        assert not again.from_cache
        assert again.entry.fragment("artifacts") == cold.entry.fragment(
            "artifacts"
        )

    def test_no_single_bit_flip_is_ever_served(self):
        """Every one-bit change anywhere in an entry — in its head, a key,
        a length, the checksum or a value — is rejected by the reader
        (~9k flips, ~0.15 s)."""
        store = ResultStore("mem://")
        stored = store.put(
            tiny_scenario("flips"),
            {"raw": {"series": {"x": [1.5]}}, "text": "t\n", "csv": "x\n"},
        )
        data = store.backend.peek(stored.digest)
        served = []
        for at in range(len(data)):
            for bit in range(8):
                flipped = bytearray(data)
                flipped[at] ^= 1 << bit
                try:
                    parse_entry(bytes(flipped), stored.digest)
                except EntryError:
                    continue
                served.append((at, bit, data[at - 12 : at + 12]))
        assert served == []

    def test_digest_mismatch_is_treated_as_corrupt(self, store):
        scenario = tiny_scenario()
        run_cached(scenario, store)
        other = tiny_scenario("impostor")
        assert store.digest(other) != store.digest(scenario)
        # Graft the impostor's entry under the original's address.
        store.put(other, {"raw": {}, "text": "", "csv": None})
        store.path_for(scenario).write_bytes(
            store.path_for(other).read_bytes()
        )
        assert store.get(scenario) is None
        assert store.stats.corrupt == 1


class TestWarmRunsAreComputeFree:
    def test_second_run_performs_zero_kernel_timings(self, store):
        """The acceptance criterion: a warm re-run is a pure file read."""
        scenario = scenarios.get("fig7-gpu")
        cold = run_cached(scenario, store)

        timing = default_timing_cache()
        mapping = default_mapping_cache()
        timing_before = (timing.hits, timing.misses)
        mapping_before = (mapping.hits, mapping.misses)

        warm = run_cached(scenario, store)

        assert warm.from_cache
        assert (timing.hits, timing.misses) == timing_before
        assert (mapping.hits, mapping.misses) == mapping_before
        # ... and the replayed artifacts are byte-identical.
        assert warm.raw_json() == cold.raw_json()
        assert warm.render() == cold.render()
        assert warm.csv == cold.csv

    def test_warm_artifact_files_are_byte_identical(self, store, tmp_path):
        scenario = tiny_scenario()
        cold = run_cached(scenario, store)
        cold_paths = cold.write_artifacts(tmp_path / "cold")
        warm = run_cached(scenario, store)
        warm_paths = warm.write_artifacts(tmp_path / "warm")
        assert [p.name for p in cold_paths] == [p.name for p in warm_paths]
        for cold_path, warm_path in zip(cold_paths, warm_paths):
            assert cold_path.read_bytes() == warm_path.read_bytes()


class TestStoredResultViews:
    def test_series_axis_and_all_series(self, store):
        scenario = tiny_scenario()
        run_cached(scenario, store)
        warm = store.get(scenario)
        assert warm.axis("system.dram_bandwidth_tbps") == (1, 4)
        assert len(warm.series("time_per_batch")) == 2
        assert set(warm.all_series()) == {
            "time_per_batch",
            "achieved_pflops_per_pu",
        }
        with pytest.raises(ConfigError, match="no series"):
            warm.series("latency")
        with pytest.raises(ConfigError, match="no axis"):
            warm.axis("workload.batch")

    def test_table_scenarios_cache_their_rendering(self, store):
        scenario = scenarios.get("fig3c-blade-spec")
        cold = run_cached(scenario, store)
        warm = run_cached(scenario, store)
        assert warm.from_cache
        assert "No. of SPUs" in warm.render()
        assert warm.render() == cold.render()
        assert warm.csv is None

    def test_payload_matches_scenario_result(self, store):
        scenario = tiny_scenario()
        result = scenarios.run_scenario(scenario)
        payload = artifact_payload(result)
        stored = store.put(scenario, result)
        assert stored.text == payload["text"] == result.render()
        assert stored.csv == payload["csv"]
        assert json.dumps(stored.raw, indent=2) == json.dumps(
            payload["raw"], indent=2
        )
