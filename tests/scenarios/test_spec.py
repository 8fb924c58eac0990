"""Scenario spec tests: construction, validation, serialization round-trips."""

from __future__ import annotations

import json

import pytest

from repro.arch.config import SystemConfig, gpu_config, scd_blade_config
from repro.arch.system import SystemSpec
from repro.errors import ConfigError
from repro.scenarios import Scenario, WorkloadConfig
from repro.workloads.llm import GPT3_76B


def training_scenario() -> Scenario:
    return (
        Scenario.builder("t", "a training scenario")
        .training(GPT3_76B, batch=32)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(scd_blade_config(16.0))
        .versus(gpu_config(64))
        .sweep_product(**{"system.dram_bandwidth_tbps": (1, 2, 4)})
        .extracting("time_per_batch", "speedup")
        .build()
    )


class TestSystemConfig:
    def test_round_trip_and_hashable(self):
        config = SystemConfig(kind="gpu", gpu_stream_low_ai=0.3)
        loaded = SystemConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert loaded == config
        assert hash(loaded) == hash(config)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown system kind"):
            SystemConfig(kind="quantum")

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown SystemConfig fields"):
            SystemConfig.from_dict({"kind": "gpu", "flux_capacitor": 1})

    def test_build_applies_overrides(self):
        system = SystemConfig(
            kind="scd_blade", dram_bandwidth_tbps=4.0, n_accelerators=16
        ).build()
        assert system.n_accelerators == 16
        assert system.accelerator.hierarchy.last.bandwidth == pytest.approx(4e12)

    def test_system_spec_from_dict_hook(self):
        config = scd_blade_config(8.0)
        assert SystemSpec.from_dict(config.to_dict()) == config.build()


class TestWorkloadConfig:
    def test_resolves_zoo_model(self):
        assert WorkloadConfig(model="GPT3-76.1B").llm() is GPT3_76B

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            WorkloadConfig(model="GPT-17").llm()


class TestScenarioValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            Scenario(name="x", kind="benchmark")

    def test_training_needs_parallel(self):
        with pytest.raises(ConfigError, match="parallel"):
            Scenario(
                name="x",
                kind="training",
                system=scd_blade_config(),
                workload=WorkloadConfig(model="GPT3-76.1B"),
            )

    def test_non_table_needs_system_and_workload(self):
        with pytest.raises(ConfigError, match="needs system"):
            Scenario(name="x", kind="inference")

    def test_table_needs_known_artifact(self):
        with pytest.raises(ConfigError, match="must name one of"):
            Scenario(name="x", kind="table", table="appendix")

    def test_unknown_extractor_rejected(self):
        with pytest.raises(ConfigError, match="unknown extractor"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())
                .extracting("vibes")
                .build()
            )

    def test_ref_extractor_needs_ref_system(self):
        with pytest.raises(ConfigError, match="ref_system"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())
                .extracting("speedup")
                .build()
            )

    def test_grid_axes_must_be_dotted_paths(self):
        with pytest.raises(ConfigError, match="dotted override path"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())
                .sweep_product(batch=(1, 2))
                .build()
            )

    def test_grid_axis_field_names_validated_at_build_time(self):
        with pytest.raises(ConfigError, match="has no field 'bandwidth_tbps'"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())
                .sweep_product(**{"system.bandwidth_tbps": (1, 2)})
                .build()
            )

    def test_grid_axis_missing_target_rejected_at_build_time(self):
        with pytest.raises(ConfigError, match="does not define"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())  # no ref_system
                .sweep_product(**{"ref_system.gpu_stream_low_ai": (0.2,)})
                .build()
            )

    @pytest.mark.parametrize(
        "axis, cell",
        [
            ("system.dram_bandwidth_tbps", "x"),
            ("system.dram_bandwidth_tbps", True),
            ("system.dram_bandwidth_tbps", [4]),
            ("workload.batch", 2.5),
            ("workload.batch", False),
            ("workload.model", 7),
            ("system.kind", 1),
        ],
    )
    def test_grid_cell_type_checked_against_its_field(self, axis, cell):
        with pytest.raises(ConfigError, match=f"grid axis {axis!r}"):
            (
                Scenario.builder("x")
                .inference(GPT3_76B)
                .on(scd_blade_config())
                .sweep_explicit([{axis: cell}])
                .build()
            )

    @pytest.mark.parametrize(
        "axis, cell",
        [
            ("system.dram_bandwidth_tbps", 4),
            ("system.dram_bandwidth_tbps", 4.5),
            ("system.dram_bandwidth_tbps", None),
            ("system.n_accelerators", 16),
            ("workload.batch", 4),
            ("workload.model", "GPT3-76.1B"),
            ("workload.model", GPT3_76B.with_layers(4)),
            ("system.kind", "gpu"),
        ],
    )
    def test_grid_cell_of_its_fields_type_accepted(self, axis, cell):
        scenario = (
            Scenario.builder("x")
            .inference(GPT3_76B)
            .on(scd_blade_config())
            .sweep_explicit([{axis: cell}])
            .build()
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_builder_requires_kind(self):
        with pytest.raises(ConfigError, match="before .build"):
            Scenario.builder("x").build()


class TestScenarioRoundTrip:
    def test_dict_round_trip_equality(self):
        scenario = training_scenario()
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_equality(self):
        scenario = training_scenario()
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_hashable(self):
        assert len({training_scenario(), training_scenario()}) == 1

    def test_unknown_field_rejected(self):
        data = training_scenario().to_dict()
        data["priority"] = "high"
        with pytest.raises(ConfigError, match="unknown Scenario fields"):
            Scenario.from_dict(data)

    def test_round_trip_preserves_grid_and_parallel(self):
        scenario = training_scenario()
        loaded = Scenario.from_json(scenario.to_json())
        assert loaded.grid == scenario.grid
        assert loaded.parallel == scenario.parallel
        assert loaded.system == scenario.system
        assert loaded.ref_system == scenario.ref_system

    def test_round_trip_to_identical_reports(self):
        """The acceptance bar: a deserialized scenario reproduces the same
        numbers as the original spec."""
        scenario = (
            training_scenario()
            .with_grid(None)
            .with_workload(batch=16)
        )
        original = scenario.run()
        reloaded = Scenario.from_json(scenario.to_json()).run()
        assert reloaded.outcomes()[0].report == original.outcomes()[0].report
        assert reloaded.outcomes()[0].ref_report == original.outcomes()[0].ref_report


class TestDerivation:
    def test_with_workload_and_system(self):
        scenario = training_scenario()
        derived = scenario.with_workload(batch=64).with_system(nx=4, ny=4)
        assert derived.workload.batch == 64
        assert derived.system.nx == 4
        assert scenario.workload.batch == 32  # original untouched


class TestKindFieldRejection:
    def test_dse_rejects_grid(self):
        with pytest.raises(ConfigError, match="does not support a sweep grid"):
            (
                Scenario.builder("x")
                .dse(GPT3_76B, batch=64)
                .on(scd_blade_config())
                .sweep_product(**{"system.dram_bandwidth_tbps": (1, 16)})
                .build()
            )

    def test_dse_rejects_ref_system(self):
        with pytest.raises(ConfigError, match="does not support a ref_system"):
            (
                Scenario.builder("x")
                .dse(GPT3_76B, batch=64)
                .on(scd_blade_config())
                .versus(gpu_config())
                .build()
            )

    def test_table_rejects_extractors(self):
        with pytest.raises(ConfigError, match="does not support extractors"):
            Scenario(name="x", kind="table", table="technology", extract=("latency",))


class TestCustomModels:
    """Inline LLMConfig workloads must be honored, not collapsed to zoo names."""

    def test_custom_config_kept_whole(self):
        shallow = GPT3_76B.with_layers(40)
        scenario = (
            Scenario.builder("x")
            .training(shallow, batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(scd_blade_config(16.0))
            .build()
        )
        assert scenario.workload.llm() == shallow
        assert scenario.workload.llm().n_layers == 40

    def test_zoo_config_collapses_to_name(self):
        scenario = (
            Scenario.builder("x")
            .training(GPT3_76B, batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(scd_blade_config(16.0))
            .build()
        )
        assert scenario.workload.model == "GPT3-76.1B"

    def test_custom_model_round_trips_json(self):
        scenario = (
            Scenario.builder("x")
            .training(GPT3_76B.with_layers(40), batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(scd_blade_config(16.0))
            .build()
        )
        loaded = Scenario.from_json(scenario.to_json())
        assert loaded == scenario
        assert loaded.workload.llm().n_layers == 40

    def test_figure_generator_honors_custom_model(self):
        from repro.analysis.figures import fig5_training_bandwidth_sweep

        full = fig5_training_bandwidth_sweep(bandwidths_tbps=(8,), batch=32)
        shallow = fig5_training_bandwidth_sweep(
            bandwidths_tbps=(8,), batch=32, model=GPT3_76B.with_layers(40)
        )
        # Per-layer metric is depth-independent (up to float association).
        assert shallow.gemm_time_per_layer == pytest.approx(
            full.gemm_time_per_layer, rel=1e-12
        )
        assert shallow.reports[0].time_per_batch < full.reports[0].time_per_batch

    def test_custom_model_axis_round_trips_json(self):
        from repro.scenarios.registry import fig6_scenario

        scenario = fig6_scenario(models=(GPT3_76B.with_layers(40),), batch=32)
        loaded = Scenario.from_json(scenario.to_json())
        assert loaded == scenario
        assert loaded.grid.rows[0][0].n_layers == 40

    def test_fig6_custom_model_entry_name_is_string(self):
        from repro.analysis.figures import fig6_training_models

        fig6 = fig6_training_models(
            batch=32, models=(GPT3_76B.with_layers(40),)
        )
        assert fig6.entries[0].model_name == "GPT3-76.1B"
