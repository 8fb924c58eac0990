"""Registry tests: the named scenarios reproduce the seed golden figures."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import scenarios
from repro.errors import ConfigError

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


class TestSensitivityScenario:
    def test_matches_analysis_module(self):
        """The tornado assembled from the scenario equals the analysis API."""
        from repro.analysis.sensitivity import inference_speedup_sensitivity
        from repro.scenarios.registry import SENSITIVITY_KNOBS
        from repro.units import TBPS
        from repro.workloads.llm import LLAMA_70B

        result = inference_speedup_sensitivity(
            model=LLAMA_70B, io_tokens=(40, 20)
        )
        scenario = scenarios.registry.sensitivity_scenario(
            LLAMA_70B, batch=8, io_tokens=(40, 20)
        )
        speedups = scenario.run().series("speedup")
        assert speedups[0] == pytest.approx(result.baseline_speedup, rel=1e-12)
        for i, (name, _, _, _) in enumerate(SENSITIVITY_KNOBS):
            entry = result.entries[i]
            assert entry.parameter == name
            assert speedups[1 + 2 * i] == pytest.approx(
                entry.speedup_at_low, rel=1e-12
            )
            assert speedups[2 + 2 * i] == pytest.approx(
                entry.speedup_at_high, rel=1e-12
            )


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
