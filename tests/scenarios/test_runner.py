"""Runner tests: axis application, evaluation equivalence, mapping dedup."""

from __future__ import annotations

import pytest

from repro.arch.config import SystemConfig, gpu_config, scd_blade_config
from repro.core.model import Optimus
from repro.errors import ConfigError
from repro.parallel.mapper import default_mapping_cache, map_training
from repro.parallel.strategy import ParallelConfig
from repro.scenarios import Scenario, apply_axes, run_scenario
from repro.units import TBPS
from repro.workloads.llm import GPT3_18B, GPT3_76B, LLAMA_70B


def bandwidth_sweep_scenario(batches=(1, 4, 16)) -> Scenario:
    return (
        Scenario.builder("bw", "bandwidth sweep")
        .training(GPT3_18B, batch=32)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": batches})
        .extracting("time_per_batch")
        .build()
    )


class TestApplyAxes:
    def test_dotted_overrides_hit_all_targets(self):
        scenario = (
            Scenario.builder("x")
            .training(GPT3_76B, batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(scd_blade_config(16.0))
            .versus(gpu_config(64))
            .build()
        )
        updated = apply_axes(
            scenario,
            {
                "system.dram_bandwidth_tbps": 4.0,
                "ref_system.gpu_stream_low_ai": 0.3,
                "workload.batch": 64,
                "parallel.data_parallel": 2,
            },
        )
        assert updated.system.dram_bandwidth_tbps == 4.0
        assert updated.ref_system.gpu_stream_low_ai == 0.3
        assert updated.workload.batch == 64
        assert updated.parallel.data_parallel == 2

    def test_none_values_leave_target_untouched(self):
        scenario = bandwidth_sweep_scenario()
        updated = apply_axes(scenario, {"system.dram_bandwidth_tbps": None})
        assert updated == scenario

    def test_missing_target_raises(self):
        scenario = bandwidth_sweep_scenario()  # no ref_system
        with pytest.raises(ConfigError, match="no 'ref_system'"):
            apply_axes(scenario, {"ref_system.gpu_stream_low_ai": 0.3})


class TestEvaluationEquivalence:
    def test_training_point_matches_direct_path(self, scd_system_16tbps):
        scenario = (
            Scenario.builder("x")
            .training(GPT3_76B, batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(scd_blade_config(16.0))
            .extracting("time_per_batch")
            .build()
        )
        direct = Optimus(scd_system_16tbps).evaluate_training(
            map_training(
                GPT3_76B, scd_system_16tbps, ParallelConfig(8, 8, 1), 32
            )
        )
        assert scenario.run().outcomes()[0].report == direct

    def test_speedup_extractor_uses_ref_system(self):
        scenario = (
            Scenario.builder("x")
            .inference(LLAMA_70B, batch=8, input_tokens=40, output_tokens=20)
            .on(scd_blade_config(16.0))
            .versus(gpu_config(64))
            .extracting("latency", "ref_latency", "speedup")
            .build()
        )
        result = scenario.run()
        latency, ref_latency, speedup = (
            result.series("latency")[0],
            result.series("ref_latency")[0],
            result.series("speedup")[0],
        )
        assert speedup == pytest.approx(ref_latency / latency)
        assert speedup > 1.0


class TestMappingDedup:
    def test_system_only_sweep_maps_once(self):
        """Points differing only in system params share one mapping."""
        cache = default_mapping_cache()
        cache.clear()
        result = run_scenario(bandwidth_sweep_scenario(batches=(1, 2, 4, 8)))
        assert len(result.outcomes()) == 4
        assert cache.misses == 1
        assert cache.hits == 3

    def test_workload_axis_maps_per_point(self):
        """A swept workload axis genuinely changes the mapping."""
        cache = default_mapping_cache()
        cache.clear()
        scenario = (
            Scenario.builder("b", "batch sweep")
            .inference(LLAMA_70B, input_tokens=40, output_tokens=20)
            .on(scd_blade_config(16.0))
            .sweep_product(**{"workload.batch": (4, 8)})
            .extracting("latency")
            .build()
        )
        run_scenario(scenario)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_rebound_mapping_sees_live_system(self):
        """Capacity checks must use each point's own system, not the first's."""
        cache = default_mapping_cache()
        cache.clear()
        scenario = (
            Scenario.builder("cap")
            .inference(LLAMA_70B, batch=8, input_tokens=40, output_tokens=20)
            .on(scd_blade_config(16.0))
            .sweep_product(**{"system.dram_bandwidth_tbps": (1.0, 16.0)})
            .extracting("latency")
            .build()
        )
        reports = run_scenario(scenario).reports()
        assert cache.hits == 1
        bandwidths = [
            r.latency for r in reports
        ]
        assert bandwidths[0] > bandwidths[1]


class TestDseScenario:
    def test_strategies_sorted_and_match_direct_search(self, scd_system_16tbps):
        from repro.core.optimizer import search_strategies
        from repro.scenarios.registry import dse_scenario

        scenario = dse_scenario(GPT3_76B, batch=64, max_candidates=8)
        result = run_scenario(scenario)
        direct = search_strategies(
            GPT3_76B, scd_system_16tbps, 64, max_candidates=8
        )
        assert [s.parallel for s in result.strategies] == [
            r.parallel for r in direct
        ]
        times = [s.time_per_batch for s in result.strategies]
        assert times == sorted(times)


class TestArtifacts:
    def test_extracted_sweep_round_trips_csv(self, tmp_path):
        result = run_scenario(bandwidth_sweep_scenario())
        path = tmp_path / "sweep.csv"
        result.extracted_sweep().to_csv(path)

        from repro.analysis.sweep import SweepResult

        loaded = SweepResult.from_csv(path)
        assert loaded.grid.names == ("system.dram_bandwidth_tbps",)
        assert loaded.axis("system.dram_bandwidth_tbps") == (1, 4, 16)
        assert tuple(p.value["time_per_batch"] for p in loaded.points) == (
            pytest.approx(result.series("time_per_batch"))
        )

    def test_to_raw_carries_spec_and_series(self):
        result = run_scenario(bandwidth_sweep_scenario())
        raw = result.to_raw()
        assert Scenario.from_dict(raw["scenario"]) == result.scenario
        assert raw["series"]["time_per_batch"] == list(
            result.series("time_per_batch")
        )
        assert len(raw["points"]) == 3

    def test_render_mentions_axes_and_series(self):
        text = run_scenario(bandwidth_sweep_scenario()).render()
        assert "system.dram_bandwidth_tbps" in text
        assert "time_per_batch" in text
