"""What the timing engine's memos keep, share and forget.

Per accelerator the timing cache keeps kernel timings, program timings and
the resolved roofline; :class:`NullTimingCache` keeps none of them.  The
roofline the memo resolves once per accelerator must time every kernel
exactly as the accelerator's own properties do.
"""

from __future__ import annotations

import pickle

import pytest

from repro import scenarios
from repro.core.model import Optimus
from repro.core.roofline import Boundedness, time_compute_kernel
from repro.core.timing_cache import (
    KernelTimingCache,
    NullTimingCache,
    default_timing_cache,
)
from repro.errors import ConfigError
from repro.parallel.mapper import map_inference, map_training
from repro.parallel.strategy import ParallelConfig
from repro.scenarios.runner import run_scenario
from repro.units import TBPS
from repro.workloads.llm import GPT3_76B, LLAMA_405B
from repro.workloads.operators import (
    ComputeKernel,
    KernelKind,
    OpProgram,
    Segment,
    gemm,
)

PAPER = ParallelConfig(tensor_parallel=8, pipeline_parallel=8, data_parallel=1)


def seed_roofline(kernel: ComputeKernel, accel) -> tuple:
    """The roofline on the accelerator's own properties, as first written:
    the reference the resolved values must reproduce bit for bit."""
    compute_time = kernel.flops / accel.sustained_flops if kernel.flops > 0 else 0.0
    level = accel.hierarchy.serving_level(kernel.placement_bytes)
    stream_factor = accel.stream_efficiency.factor(kernel.arithmetic_intensity)
    bandwidth = level.effective_bandwidth * stream_factor
    total_bytes = kernel.bytes_total
    memory_time = level.latency + total_bytes / bandwidth if total_bytes > 0 else 0.0
    bound = (
        Boundedness.COMPUTE if compute_time >= memory_time else Boundedness.MEMORY
    )
    elapsed = max(compute_time, memory_time) + accel.kernel_overhead
    return (kernel, elapsed, compute_time, memory_time, level.name, bound)


def zero_byte_kernels() -> list[ComputeKernel]:
    """A pure-compute, an empty and a pure-data-movement kernel."""
    return [
        ComputeKernel("no_bytes", KernelKind.GEMM, 1e9, 0.0, 0.0),
        ComputeKernel("no_work", KernelKind.ELEMENTWISE, 0.0, 0.0, 0.0),
        ComputeKernel("no_flops", KernelKind.EMBEDDING, 0.0, 4e6, 4e6),
    ]


class TestRoofline:
    def test_every_registry_pair_times_as_the_accelerator_properties_do(self):
        cache = default_timing_cache()
        cache.clear()
        for name in scenarios.REGISTRY:
            if scenarios.get(name).kind != "table":
                run_scenario(scenarios.get(name))
        pairs = [
            (kernel, accel, timing)
            for accel, (compute, _, _) in cache._accelerators.items()
            for kernel, timing in compute.items()
        ]
        ramps = {
            accel.stream_efficiency.low_ai_efficiency
            != accel.stream_efficiency.high_ai_efficiency
            for _, accel, _ in pairs
        }
        assert len(pairs) > 1000 and ramps == {True, False}
        for kernel, accel, timing in pairs:
            assert tuple(timing) == seed_roofline(kernel, accel)
            assert time_compute_kernel(kernel, accel) == timing

    @pytest.mark.parametrize("kernel", zero_byte_kernels(), ids=lambda k: k.name)
    def test_zero_byte_kernels_on_both_stream_models(
        self, kernel, scd_system_16tbps, gpu_system
    ):
        ramp = gpu_system.accelerator.stream_efficiency
        assert ramp.low_ai_efficiency < ramp.high_ai_efficiency
        for accel in (scd_system_16tbps.accelerator, gpu_system.accelerator):
            timing = KernelTimingCache().time_compute(kernel, accel)
            assert tuple(timing) == seed_roofline(kernel, accel)

    def test_timing_is_a_record_with_named_fields(self, scd_system_16tbps):
        accel = scd_system_16tbps.accelerator
        kernel = gemm("thin", 8, 4096, 4096).with_residency(1e9)
        timing = time_compute_kernel(kernel, accel)
        assert timing.kernel is kernel and timing.level_name == "DRAM"
        assert timing.is_memory_bound and timing.bound is Boundedness.MEMORY
        assert timing.time == timing.memory_time + accel.kernel_overhead


class TestProgramMemo:
    def test_null_cache_memoizes_no_program(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, batch=64)
        for use_programs in (True, False):
            cache = NullTimingCache()
            optimus = Optimus(
                scd_system_16tbps, cache=cache, use_programs=use_programs
            )
            first = optimus.evaluate_training(mapped)
            misses = cache.misses
            assert optimus.evaluate_training(mapped) == first
            assert cache.misses == 2 * misses and cache.hits == 0

    def test_equal_interior_stages_are_timed_once(self, scd_system_16tbps):
        mapped = map_training(GPT3_76B, scd_system_16tbps, PAPER, batch=64)
        interior = mapped.stage_fwd_programs[1:-1]
        distinct = set(interior)
        assert len(distinct) < len(interior)
        cache = KernelTimingCache()
        optimus = Optimus(scd_system_16tbps, cache=cache)
        timings = {program: optimus.time_program(program) for program in distinct}
        lookups = cache.hits + cache.misses
        for program in interior:
            assert optimus.time_program(program) is timings[program]
        assert cache.hits + cache.misses == lookups

    def test_value_equal_accelerators_share_program_timings(self, scd_system):
        one, other = (scd_system.with_dram_bandwidth(16 * TBPS) for _ in range(2))
        assert one.accelerator is not other.accelerator
        assert one.accelerator == other.accelerator
        cache = KernelTimingCache()
        mapped = map_inference(LLAMA_405B, one, batch=8, output_tokens=16)
        report = Optimus(one, cache=cache).evaluate_inference(mapped)
        lookups = (cache.hits, cache.misses)
        again = Optimus(other, cache=cache).evaluate_inference(mapped)
        assert again == report
        assert (cache.hits, cache.misses) == lookups

    def test_program_memo_is_evicted_with_its_accelerator(self, scd_system):
        systems = [scd_system.with_dram_bandwidth(bw * TBPS) for bw in (2, 4, 8)]
        cache = KernelTimingCache(max_configs=2)
        mapped = map_training(GPT3_76B, systems[0], PAPER, batch=64)
        reports = [
            Optimus(system, cache=cache).evaluate_training(mapped)
            for system in systems
        ]
        assert cache.n_configs == 2
        entries = cache.n_entries
        misses = cache.misses
        # The first accelerator was evicted with its programs: it is timed
        # again, to the same report, and the cache stays bounded.
        assert Optimus(systems[0], cache=cache).evaluate_training(mapped) == reports[0]
        assert cache.misses > misses
        assert cache.n_configs == 2 and cache.n_entries == entries

    def test_an_unpickled_program_hits_the_memo(self, scd_system_16tbps):
        program = OpProgram(
            (Segment((gemm("a", 64, 64, 64), gemm("b", 32, 64, 64)), repeat=3),)
        )
        copy = pickle.loads(pickle.dumps(program))
        assert copy == program and hash(copy) == hash(program)
        cache = KernelTimingCache()
        optimus = Optimus(scd_system_16tbps, cache=cache)
        first = optimus.time_program(program)
        assert optimus.time_program(copy) is first


class TestWithResidency:
    def test_equals_a_fully_validated_kernel(self):
        kernel = gemm("k", 64, 128, 256)
        annotated = kernel.with_residency(1e9)
        rebuilt = ComputeKernel(
            name=kernel.name,
            kind=kernel.kind,
            flops=kernel.flops,
            bytes_read=kernel.bytes_read,
            bytes_written=kernel.bytes_written,
            working_set_bytes=kernel.working_set_bytes,
            weight_bytes=kernel.weight_bytes,
            resident_set_bytes=1e9,
            phase=kernel.phase,
        )
        assert annotated == rebuilt and hash(annotated) == hash(rebuilt)
        assert annotated.is_gemm and kernel.resident_set_bytes == 0.0

    def test_checks_the_new_field(self):
        with pytest.raises(ConfigError, match="resident_set_bytes"):
            gemm("k", 64, 64, 64).with_residency(-1.0)
