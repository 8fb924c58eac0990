"""Strategy-optimizer tests plus the scenario spelling of the removed
single-axis sweep helpers."""

from __future__ import annotations

import pytest

from repro.core.optimizer import search_strategies
from repro.errors import MappingError
from repro.parallel.strategy import ParallelConfig
from repro.workloads.llm import GPT3_76B

PAPER = ParallelConfig(8, 8, 1)


def test_migration_target_still_covers_the_helpers(scd_system):
    """The scenario spelling of the old bandwidth sweep works."""
    from repro.arch.config import SystemConfig
    from repro.scenarios import Scenario

    result = (
        Scenario.builder("legacy-migration")
        .training(GPT3_76B, batch=32)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": (1, 8)})
        .extracting("time_per_batch")
        .build()
        .run()
    )
    times = result.series("time_per_batch")
    assert times[1] < times[0]


class TestOptimizer:
    def test_results_sorted(self, scd_system_16tbps):
        results = search_strategies(GPT3_76B, scd_system_16tbps, 64, max_candidates=12)
        times = [r.time_per_batch for r in results]
        assert times == sorted(times)

    def test_require_fit_filters(self, gpu_system):
        from repro.workloads.llm import GPT3_175B

        all_results = search_strategies(GPT3_175B, gpu_system, 64, max_candidates=16)
        fitting = search_strategies(
            GPT3_175B, gpu_system, 64, max_candidates=16, require_fit=True
        )
        assert len(fitting) <= len(all_results)
        assert all(r.report.fits_memory for r in fitting)

    def test_no_strategy_raises(self, scd_system_16tbps):
        # 7 accelerators, 3 layers, batch 13: TP=7 fails the 80-head split,
        # PP=7 exceeds the depth, DP=7 fails the batch split.
        small = scd_system_16tbps.with_n(7)
        shallow = GPT3_76B.with_layers(3)
        with pytest.raises(MappingError):
            search_strategies(shallow, small, 13, max_candidates=8)
