"""Op-program timing engine: segment/cache equivalence and cache behavior.

The engine's contract is strict: run-length-encoded segment timing with the
memoized kernel cache must reproduce the seed's flat per-op walk to float
precision, for training stages, decode steps and whole evaluations.
"""

from __future__ import annotations

import pytest

from repro.core.model import Optimus
from repro.core.roofline import time_compute_kernel
from repro.core.timing_cache import (
    KernelTimingCache,
    NullTimingCache,
    default_timing_cache,
)
from repro.parallel.mapper import map_inference, map_training
from repro.parallel.strategy import ParallelConfig
from repro.units import TBPS
from repro.workloads.llm import GPT3_76B, LLAMA_405B
from repro.workloads.operators import OpProgram, Segment, gemm

PAPER = ParallelConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=1)

#: Both paths do the same float arithmetic up to summation order, so they
#: agree far tighter than the acceptance tolerance.
REL = 1e-12


def timing_fields(t) -> dict[str, float]:
    return {
        "total": t.total,
        "compute_kernel_time": t.compute_kernel_time,
        "comm_exposed_time": t.comm_exposed_time,
        "memory_bound_time": t.memory_bound_time,
        "compute_bound_time": t.compute_bound_time,
        "gemm_memory_bound_time": t.gemm_memory_bound_time,
        "gemm_compute_bound_time": t.gemm_compute_bound_time,
        "flops": t.flops,
    }


class TestProgramEquivalence:
    def test_training_stage_programs_match_flat_walk(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        optimus = Optimus(scd_system_16tbps, cache=KernelTimingCache())
        for program in mapped.stage_fwd_programs + mapped.stage_bwd_programs:
            seg = timing_fields(optimus.time_program(program))
            flat = timing_fields(optimus.time_ops(program.flatten()))
            for name, value in flat.items():
                assert seg[name] == pytest.approx(value, rel=REL), name

    def test_decode_step_program_matches_flat_walk(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        optimus = Optimus(scd_system_16tbps, cache=KernelTimingCache())
        for context in (200, 300, 399):
            seg = timing_fields(
                optimus.time_program(mapped.decode_program_at(context))
            )
            flat = timing_fields(optimus.time_ops(mapped.decode_ops_at(context)))
            for name, value in flat.items():
                assert seg[name] == pytest.approx(value, rel=REL), name

    def test_training_report_matches_seed_path(self, scd_system_16tbps):
        """Program engine vs the seed's flat, uncached walk, end to end."""
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        engine = Optimus(scd_system_16tbps).evaluate_training(mapped)
        seed = Optimus(
            scd_system_16tbps, cache=NullTimingCache(), use_programs=False
        ).evaluate_training(mapped)
        assert engine.time_per_batch == pytest.approx(seed.time_per_batch, rel=REL)
        assert engine.compute_time == pytest.approx(seed.compute_time, rel=REL)
        assert engine.comm_time == pytest.approx(seed.comm_time, rel=REL)
        assert engine.fw_gemm_breakdown.total == pytest.approx(
            seed.fw_gemm_breakdown.total, rel=REL
        )
        assert engine.flops_per_batch == pytest.approx(
            seed.flops_per_batch, rel=REL
        )

    def test_inference_report_matches_seed_path(self, scd_system_16tbps):
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        engine = Optimus(scd_system_16tbps).evaluate_inference(mapped)
        seed = Optimus(
            scd_system_16tbps, cache=NullTimingCache(), use_programs=False
        ).evaluate_inference(mapped)
        assert engine.latency == pytest.approx(seed.latency, rel=REL)
        assert engine.prefill_time == pytest.approx(seed.prefill_time, rel=REL)
        assert engine.decode_time == pytest.approx(seed.decode_time, rel=REL)
        assert engine.comm_time == pytest.approx(seed.comm_time, rel=REL)
        assert engine.memory_bound_kernel_time == pytest.approx(
            seed.memory_bound_kernel_time, rel=REL
        )

    def test_flops_per_batch_matches_flat_walk(self, scd_system_16tbps):
        """Segment-derived FLOPs equal the seed's full replica walk."""
        from repro.workloads.transformer import total_compute_flops

        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        per_microbatch = sum(
            total_compute_flops(list(stage))
            for stage in mapped.stage_fwd_ops + mapped.stage_bwd_ops
        )
        seed_flops = per_microbatch * mapped.n_microbatches * 8
        assert mapped.flops_per_batch == pytest.approx(seed_flops, rel=REL)

    def test_program_flatten_roundtrip(self, scd_system_16tbps):
        """Programs flatten to exactly the seed's replicated op lists."""
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, 64)
        layers = mapped.parallel.layers_per_stage(GPT3_76B.n_layers)
        for program, n_layers in zip(mapped.stage_fwd_programs, layers):
            assert program.n_ops == len(program.flatten())
            layer_segment = next(s for s in program.segments if s.repeat > 1)
            assert layer_segment.repeat == n_layers


class TestOpProgram:
    def test_segment_counts_and_flops(self):
        k = gemm("k", 64, 64, 64)
        program = OpProgram((Segment((k,), repeat=3), Segment((k, k))))
        assert program.n_ops == 5
        assert program.n_unique_ops == 3
        assert program.compute_flops() == pytest.approx(5 * k.flops)
        assert program.flatten() == (k, k, k, k, k)

    def test_from_ops(self):
        k = gemm("k", 8, 8, 8)
        program = OpProgram.from_ops([k, k], repeat=2)
        assert program.n_ops == 4
        assert program.flatten() == (k, k, k, k)

    def test_segment_repeat_validated(self):
        k = gemm("k", 8, 8, 8)
        with pytest.raises(Exception):
            Segment((k,), repeat=0)


class TestKernelTimingCache:
    def test_hit_on_repeat_miss_on_new_kernel(self, scd_system_16tbps):
        cache = KernelTimingCache()
        accel = scd_system_16tbps.accelerator
        k1 = gemm("k1", 64, 64, 64)
        k2 = gemm("k2", 128, 64, 64)
        assert cache.time_compute(k1, accel).time > 0
        assert (cache.hits, cache.misses) == (0, 1)
        cache.time_compute(k1, accel)
        assert (cache.hits, cache.misses) == (1, 1)
        cache.time_compute(k2, accel)
        assert (cache.hits, cache.misses) == (1, 2)

    def test_new_accelerator_misses(self, scd_system_16tbps):
        """A changed accelerator configuration invalidates: fresh misses."""
        cache = KernelTimingCache()
        # Big enough that the working set is served from DRAM, so the swept
        # bandwidth actually changes the timing.
        k = gemm("k", 4096, 4096, 4096)
        accel_a = scd_system_16tbps.accelerator
        accel_b = scd_system_16tbps.with_dram_bandwidth(1 * TBPS).accelerator
        cache.time_compute(k, accel_a)
        cache.time_compute(k, accel_b)
        assert cache.misses == 2
        assert cache.hits == 0
        assert cache.n_configs == 2
        # And the cached values differ — no cross-config contamination.
        t_a = cache.time_compute(k, accel_a)
        t_b = cache.time_compute(k, accel_b)
        assert cache.hits == 2
        assert t_a.time != t_b.time

    def test_value_equal_accelerators_share_entries(self, scd_system):
        """Keying is by value: separately built identical systems hit."""
        cache = KernelTimingCache()
        k = gemm("k", 64, 64, 64)
        cache.time_compute(k, scd_system.with_dram_bandwidth(16 * TBPS).accelerator)
        cache.time_compute(k, scd_system.with_dram_bandwidth(16 * TBPS).accelerator)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.n_configs == 1

    def test_cached_timing_matches_direct(self, scd_system_16tbps):
        cache = KernelTimingCache()
        accel = scd_system_16tbps.accelerator
        k = gemm("k", 256, 256, 256)
        assert cache.time_compute(k, accel) == time_compute_kernel(k, accel)
        assert cache.time_compute(k, accel) == time_compute_kernel(k, accel)

    def test_lru_eviction_bounds_configs(self, scd_system):
        cache = KernelTimingCache(max_configs=2)
        k = gemm("k", 64, 64, 64)
        for bw in (1, 2, 3, 4):
            cache.time_compute(k, scd_system.with_dram_bandwidth(bw * TBPS).accelerator)
        assert cache.n_configs == 2

    def test_clear_resets(self, scd_system_16tbps):
        cache = KernelTimingCache()
        k = gemm("k", 64, 64, 64)
        cache.time_compute(k, scd_system_16tbps.accelerator)
        cache.clear()
        assert cache.n_configs == 0
        assert (cache.hits, cache.misses) == (0, 0)
        assert cache.hit_rate == 0.0

    def test_null_cache_never_hits(self, scd_system_16tbps):
        cache = NullTimingCache()
        k = gemm("k", 64, 64, 64)
        cache.time_compute(k, scd_system_16tbps.accelerator)
        cache.time_compute(k, scd_system_16tbps.accelerator)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_default_cache_is_shared_and_used(self, scd_system_16tbps):
        shared = default_timing_cache()
        assert Optimus(scd_system_16tbps).cache is shared
        assert Optimus(scd_system_16tbps).cache is shared

    def test_evaluation_populates_cache_across_calls(self, scd_system_16tbps):
        """Decode sampling reuses kernel timings; a repeated evaluation is
        answered by the program memo and looks up no kernel at all."""
        cache = KernelTimingCache()
        optimus = Optimus(scd_system_16tbps, cache=cache)
        mapped = map_inference(LLAMA_405B, scd_system_16tbps, batch=8)
        first = optimus.evaluate_inference(mapped)
        assert cache.hits > 0  # embedding/head kernels repeat across samples
        hits_before, misses_before = cache.hits, cache.misses
        assert optimus.evaluate_inference(mapped) == first
        assert (cache.hits, cache.misses) == (hits_before, misses_before)
