"""Registry tests: the named scenarios reproduce the seed golden figures."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import scenarios
from repro.errors import ConfigError
from repro.scenarios import registry
from repro.workloads.llm import GPT3_18B, LLAMA_70B

GOLDEN_PATH = (
    Path(__file__).resolve().parents[1] / "data" / "seed_figures_golden.json"
)

REL = 1e-9


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def assert_series(actual, expected):
    assert len(actual) == len(expected)
    assert tuple(actual) == pytest.approx(tuple(expected), rel=REL)


class TestRegistryBasics:
    def test_expected_names_registered(self):
        names = tuple(scenarios.REGISTRY)
        for name in (
            "fig5",
            "fig6",
            "fig7-bandwidth",
            "fig7-dram-latency",
            "fig7-batch",
            "fig7-gpu",
            "fig8-models",
            "fig8-batch",
            "sensitivity",
            "dse",
            "quickstart-training",
            "quickstart-inference",
            "multi-blade-scaling",
            "l2-kv-cache",
            "jsram-residency",
            "table1",
            "fig2b-datalink",
            "fig3c-blade-spec",
            "pcl-flow",
        ):
            assert name in names

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            scenarios.get("fig99")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            scenarios.register(scenarios.get("fig5"))

    def test_every_registered_scenario_round_trips(self):
        for name in scenarios.REGISTRY:
            scenario = scenarios.get(name)
            assert scenarios.Scenario.from_json(scenario.to_json()) == scenario


class TestGoldenEquivalence:
    """`python -m repro run <name>` must reproduce the seed's numbers."""

    def test_fig5_matches_seed(self, golden):
        result = scenarios.get("fig5").run()
        g = golden["fig5"]
        assert_series(result.axis("system.dram_bandwidth_tbps"), g["bandwidths"])
        assert_series(
            result.series("achieved_pflops_per_pu"), g["achieved_pflops_per_spu"]
        )
        assert_series(result.series("gemm_time_per_layer"), g["gemm_time_per_layer"])
        assert_series(
            result.series("gemm_memory_bound_time"), g["gemm_memory_bound_time"]
        )
        assert_series(
            result.series("gemm_compute_bound_time"), g["gemm_compute_bound_time"]
        )

    def test_fig6_matches_seed(self, golden):
        result = scenarios.get("fig6").run()
        g = golden["fig6"]
        assert list(result.axis("workload.model")) == g["models"]
        assert_series(result.series("time_per_batch"), g["spu_time_per_batch"])
        assert_series(result.series("ref_time_per_batch"), g["gpu_time_per_batch"])
        assert_series(result.series("speedup"), g["speedups"])

    def test_fig7_matches_seed(self, golden):
        g = golden["fig7"]
        assert_series(
            scenarios.get("fig7-bandwidth").run().series("latency"), g["latencies"]
        )
        assert_series(
            scenarios.get("fig7-dram-latency")
            .run()
            .series("achieved_pflops_per_pu"),
            g["latency_sweep_pflops_per_spu"],
        )
        batch_result = scenarios.get("fig7-batch").run()
        assert_series(batch_result.series("latency"), g["batch_latencies"])
        assert_series(
            batch_result.series("achieved_pflops_per_pu"), g["batch_pflops_per_spu"]
        )
        gpu_result = scenarios.get("fig7-gpu").run()
        assert gpu_result.series("latency")[0] == pytest.approx(
            g["gpu_latency"], rel=REL
        )
        assert gpu_result.series("achieved_pflops_per_pu")[0] == pytest.approx(
            g["gpu_pflops_per_pu"], rel=REL
        )

    def test_fig8_matches_seed(self, golden):
        g = golden["fig8"]
        models_result = scenarios.get("fig8-models").run()
        assert list(models_result.axis("workload.model")) == g["model_names"]
        assert_series(models_result.series("speedup"), g["model_speedups"])
        batch_result = scenarios.get("fig8-batch").run()
        assert_series(batch_result.series("speedup"), g["batch_speedups"])
        assert_series(batch_result.series("kv_cache_bytes"), g["kv_cache_bytes"])


class TestReducedBuilders:
    """Each figure builder honours its arguments (reduced sweeps; the
    paper's claims at full size live in benchmarks/)."""

    def test_fig5(self):
        fig5 = registry.fig5_scenario(
            bandwidths_tbps=(0.5, 16), batch=32, model=GPT3_18B
        ).run()
        achieved = fig5.series("achieved_pflops_per_pu")
        gemm_time = fig5.series("gemm_time_per_layer")
        assert len(achieved) == 2
        assert achieved[1] > achieved[0]
        assert gemm_time[0] > gemm_time[1]

    def test_fig5_reports_name_the_model(self):
        fig5 = registry.fig5_scenario(bandwidths_tbps=(8,), batch=32).run()
        assert fig5.outcomes()[0].report.model_name == "GPT3-76.1B"

    def test_fig6_single_model(self):
        fig6 = registry.fig6_scenario(batch=32, models=(GPT3_18B,)).run()
        (outcome,) = fig6.outcomes()
        assert fig6.series("speedup")[0] > 2.0
        assert outcome.report.system_name == "SCD blade"
        assert outcome.ref_report.system_name == "64x H100"

    def test_fig7(self):
        io, model = (50, 20), LLAMA_70B
        latencies = registry.fig7_bandwidth_scenario(
            (1, 16), io_tokens=io, model=model
        ).run().series("latency")
        pflops = registry.fig7_latency_scenario(
            (10, 100), io_tokens=io, model=model
        ).run().series("achieved_pflops_per_pu")
        batch_latencies = registry.fig7_batch_scenario(
            (4, 16), io_tokens=io, model=model
        ).run().series("latency")
        gpu = registry.fig7_gpu_scenario(io_tokens=io, model=model).run()
        assert latencies[0] > latencies[1]
        assert pflops[0] > pflops[1]
        assert batch_latencies[1] > batch_latencies[0]
        assert gpu.series("latency")[0] > batch_latencies[0]

    def test_fig8(self):
        models = registry.fig8_models_scenario(
            (LLAMA_70B,), io_tokens=(50, 20)
        ).run()
        batch = registry.fig8_batch_scenario((4, 8), io_tokens=(50, 20)).run()
        assert models.axis("workload.model") == ("Llama-70B",)
        assert models.series("speedup")[0] > 4.0
        kv = batch.series("kv_cache_bytes")
        assert kv[1] == pytest.approx(2 * kv[0])
        gpu = batch.scenario.ref_system.build()
        assert gpu.total_memory_capacity == pytest.approx(5.12e12)


class TestSensitivityScenario:
    """The tornado grid: the baseline, then each knob at its low and high
    end (reduced workload; the full tornado lives in benchmarks/)."""

    @pytest.fixture(scope="class")
    def result(self):
        return registry.sensitivity_scenario(LLAMA_70B, io_tokens=(40, 20)).run()

    def test_each_knob_is_perturbed_alone_to_each_end(self, result):
        n_points = 1 + 2 * len(registry.SENSITIVITY_KNOBS)
        for i, (_, axis, low, high) in enumerate(registry.SENSITIVITY_KNOBS):
            expected = [None] * n_points
            expected[1 + 2 * i : 3 + 2 * i] = [low, high]
            assert list(result.axis(axis)) == expected

    def test_baseline_within_every_range_or_near(self, result):
        baseline, *perturbed = result.series("speedup")
        for at_low, at_high in zip(perturbed[::2], perturbed[1::2]):
            assert min(at_low, at_high) <= baseline * 1.05
            assert max(at_low, at_high) >= baseline * 0.95

    def test_conclusion_robust(self, result):
        assert min(result.series("speedup")[1:]) > 3.0


class TestTableScenarios:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("table1", "CMOS"),
            ("fig2b-datalink", "Bandwidth"),
            ("fig3c-blade-spec", "No. of SPUs"),
            ("pcl-flow", "mac_bf16"),
        ],
    )
    def test_renders_artifact(self, name, expected):
        text = scenarios.get(name).run().render()
        assert expected in text


class TestMultiBladeScenario:
    def test_throughput_scales_with_blades(self):
        result = scenarios.get("multi-blade-scaling").run()
        tokens = result.series("tokens_per_second")
        assert tokens[-1] > 6 * tokens[0]  # near-linear over 8 blades
