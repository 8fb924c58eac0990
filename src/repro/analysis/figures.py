"""The paper's two kernel-level memory-policy studies.

Figs. 5–8 and the sensitivity tornado are registry scenarios
(:mod:`repro.scenarios.registry`): run one with :func:`run_scenario` (or
``scenarios.get(name).run()``) and read its ``series``, ``axis`` and
``outcomes``.  The two studies here read more than a scenario's series:

* :func:`l2_kv_cache_study` (Sec. VI) times the decode-phase K/V GEMVs
  alone, which is where the paper puts its "~2–4×" gain for a KV cache
  served from the blade L2; the ``l2-kv-cache`` scenario reports
  end-to-end latency, which those kernels move by only a few percent.
* :func:`jsram_main_memory_study` (Sec. VII) runs the ``jsram-residency``
  scenario and credits the JSRAM pool only where weights + KV fit it
  whole.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.blade import build_blade
from repro.arch.system import SystemSpec
from repro.parallel.mapper import map_inference
from repro.parallel.strategy import ParallelConfig
from repro.scenarios.registry import (
    DEFAULT_BANDWIDTH_TBPS,
    jsram_residency_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.units import GB, TBPS
from repro.workloads.llm import LLAMA2_13B, LLAMA2_70B, LLAMA2_7B, LLMConfig


# ---------------------------------------------------------------------------
# Sec. VI closing study — KV cache in the blade L2
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class L2StudyEntry:
    """One model of the Sec. VI L2 study.

    The paper bounds the K/V GEMM/GEMV gain as "~2–4× depending on the
    software overhead of launching the kernels"; the two speed-up numbers
    bracket exactly that — with the baseline per-kernel dispatch overhead and
    with it removed.
    """

    model_name: str
    kv_cache_bytes: float
    fits_l2: bool
    kv_kernel_time_dram: float
    kv_kernel_time_l2: float
    kv_kernel_time_dram_no_overhead: float
    kv_kernel_time_l2_no_overhead: float

    @property
    def kv_gemm_speedup_with_overhead(self) -> float:
        """K/V-kernel speed-up at the baseline dispatch overhead."""
        if not self.fits_l2 or self.kv_kernel_time_l2 == 0:
            return 1.0
        return self.kv_kernel_time_dram / self.kv_kernel_time_l2

    @property
    def kv_gemm_speedup(self) -> float:
        """K/V-kernel speed-up with dispatch overhead removed (the paper's
        optimistic end of the 2–4× band)."""
        if not self.fits_l2 or self.kv_kernel_time_l2_no_overhead == 0:
            return 1.0
        return (
            self.kv_kernel_time_dram_no_overhead
            / self.kv_kernel_time_l2_no_overhead
        )


@dataclass(frozen=True)
class L2StudyResult:
    """Sec. VI L2 KV-cache study across the llama2 family."""

    l2_capacity_bytes: float
    entries: tuple[L2StudyEntry, ...]


def _kv_kernel_time(system: SystemSpec, model: LLMConfig, batch: int) -> float:
    """Decode-phase K/V GEMV time (score + context kernels) per request."""
    from repro.core.roofline import time_compute_kernel
    from repro.workloads.operators import ComputeKernel, KernelKind

    # Small llama2 models have fewer heads than the blade has SPUs; use the
    # largest tensor-parallel degree the head count allows.
    tp = min(model.n_heads, system.n_accelerators)
    system = system.with_n(tp)
    mapped = map_inference(
        system=system,
        model=model,
        parallel=ParallelConfig(tensor_parallel=tp),
        batch=batch,
    )
    total = 0.0
    for context in (mapped.input_tokens, mapped.input_tokens + mapped.output_tokens):
        step_time = 0.0
        for op in mapped.decode_ops_at(context):
            if isinstance(op, ComputeKernel) and op.kind in (
                KernelKind.ATTN_SCORE,
                KernelKind.ATTN_CONTEXT,
            ):
                step_time += time_compute_kernel(op, system.accelerator).time
        total += step_time
    return total / 2.0 * mapped.output_tokens


def l2_kv_cache_study(
    models: tuple[LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B),
    batch: int = 1,
    l2_capacity: float = 4.19 * GB,
    dram_bandwidth_per_spu: float = DEFAULT_BANDWIDTH_TBPS * TBPS,
) -> L2StudyResult:
    """Reproduce the Sec. VI closing analysis.

    The paper: llama2-7B (2 GB) and llama2-13B (3 GB) KV caches fit the
    ~4.19 GB blade L2, llama2-70B (10 GB) does not; serving the K/V
    GEMMs/GEMVs from L2 instead of DRAM buys ~2–4×.
    """
    from dataclasses import replace as _replace

    dram_blade = build_blade(l2_total_bytes=l2_capacity, l2_policy="dram")
    l2_blade = build_blade(l2_total_bytes=l2_capacity, l2_policy="l2_kv_cache")
    dram_system = dram_blade.system().with_dram_bandwidth(dram_bandwidth_per_spu)
    l2_system = l2_blade.system().with_dram_bandwidth(dram_bandwidth_per_spu)

    def zero_overhead(system: SystemSpec) -> SystemSpec:
        return _replace(
            system, accelerator=_replace(system.accelerator, kernel_overhead=0.0)
        )

    entries = []
    for model in models:
        kv = model.kv_cache_bytes(batch)
        fits = kv <= l2_capacity
        entries.append(
            L2StudyEntry(
                model_name=model.name,
                kv_cache_bytes=kv,
                fits_l2=fits,
                kv_kernel_time_dram=_kv_kernel_time(dram_system, model, batch),
                kv_kernel_time_l2=_kv_kernel_time(l2_system, model, batch),
                kv_kernel_time_dram_no_overhead=_kv_kernel_time(
                    zero_overhead(dram_system), model, batch
                ),
                kv_kernel_time_l2_no_overhead=_kv_kernel_time(
                    zero_overhead(l2_system), model, batch
                ),
            )
        )
    return L2StudyResult(l2_capacity_bytes=l2_capacity, entries=tuple(entries))


# ---------------------------------------------------------------------------
# Future-work study — LLM inference out of a large JSRAM pool
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JSRAMStudyEntry:
    """One (model, JSRAM capacity) point of the future-work study."""

    model_name: str
    jsram_capacity_bytes: float
    footprint_bytes: float
    fits: bool
    latency_dram: float
    latency_jsram: float

    @property
    def speedup(self) -> float:
        """End-to-end inference gain from JSRAM residency."""
        if not self.fits:
            return 1.0
        return self.latency_dram / self.latency_jsram


@dataclass(frozen=True)
class JSRAMStudyResult:
    """The Sec. VII outlook quantified: "the impact of huge JSRAM capacity
    on LLM inference exploiting its massive bandwidth and negligible
    latency"."""

    entries: tuple[JSRAMStudyEntry, ...]


def jsram_main_memory_study(
    models: tuple[LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B),
    capacities: tuple[float, ...] = (4.19 * GB, 32 * GB, 64 * GB),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_per_spu: float = DEFAULT_BANDWIDTH_TBPS * TBPS,
) -> JSRAMStudyResult:
    """Sweep the blade JSRAM (shared L2) capacity and serve *weights + KV*
    from it whenever the whole footprint fits — the paper's closing outlook
    on "unusual SRAM capacity" leading to "new ways of mapping and memory
    management".

    The latencies are the ``jsram-residency`` scenario's: its reference
    blade serves everything from cryo-DRAM, and its system under test
    serves each kernel from the pool when that kernel's own working set
    fits.  The study gates on the whole footprint instead: where weights +
    KV exceed the pool, it counts the cryo-DRAM latency on both sides.
    """
    result = run_scenario(
        jsram_residency_scenario(
            models, capacities, batch, io_tokens, dram_bandwidth_per_spu / TBPS
        )
    )
    # The scenario's grid order: capacity outer, model inner.
    points = [(capacity, model) for capacity in capacities for model in models]
    entries = []
    for (capacity, model), latency, ref_latency in zip(
        points, result.series("latency"), result.series("ref_latency"), strict=True
    ):
        footprint = model.weight_bytes() + model.kv_cache_bytes(batch)
        fits = footprint <= capacity
        entries.append(
            JSRAMStudyEntry(
                model_name=model.name,
                jsram_capacity_bytes=capacity,
                footprint_bytes=footprint,
                fits=fits,
                latency_dram=ref_latency,
                latency_jsram=latency if fits else ref_latency,
            )
        )
    return JSRAMStudyResult(entries=tuple(entries))


__all__ = [
    "L2StudyEntry",
    "L2StudyResult",
    "l2_kv_cache_study",
    "JSRAMStudyEntry",
    "JSRAMStudyResult",
    "jsram_main_memory_study",
]
