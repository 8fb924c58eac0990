"""Regenerate every figure of the paper's evaluation (Sec. VI).

Each ``figN_*`` function reproduces the corresponding figure's data with the
paper's exact experimental setup and returns the series; the benchmark suite
asserts the paper's qualitative claims on them, and ``EXPERIMENTS.md``
records paper-vs-measured values.

The figures are expressed as declarative :mod:`repro.scenarios` specs (the
same specs registered for ``python -m repro run fig5`` etc.): each generator
builds its scenario from the registry's parameterized builders, executes it
through :func:`repro.scenarios.runner.run_scenario` — the one path that
routes every experiment through the sweep driver, the mapping cache and the
memoized timing engine — and reshapes the extracted series into the
figure-result dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.blade import build_blade
from repro.arch.config import gpu_config
from repro.arch.system import SystemSpec
from repro.core.report import InferenceReport, TrainingReport
from repro.parallel.mapper import map_inference
from repro.parallel.strategy import ParallelConfig
from repro.units import GB, TBPS
from repro.workloads.llm import (
    GPT3_175B,
    GPT3_18B,
    GPT3_76B,
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA2_7B,
    LLAMA_405B,
    LLAMA_70B,
    MOE_132B,
    LLMConfig,
)

#: The paper's fixed model-parallel setup for training (TP=8, PP=8, DP=1).
TRAINING_PARALLEL = ParallelConfig(
    tensor_parallel=8, pipeline_parallel=8, data_parallel=1
)

#: Default effective bandwidth per SPU used by Figs. 6–8 (16 TBps).
DEFAULT_SPU_BANDWIDTH = 16 * TBPS


def scd_system(dram_bandwidth_per_spu: float | None = None) -> SystemSpec:
    """The baseline 64-SPU blade, optionally with a swept DRAM bandwidth."""
    system = build_blade().system()
    if dram_bandwidth_per_spu is not None:
        system = system.with_dram_bandwidth(dram_bandwidth_per_spu)
    return system


# ---------------------------------------------------------------------------
# Fig. 5 — training throughput vs DRAM bandwidth per SPU
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig5Result:
    """Fig. 5 series: GPT3-76B training, B=128, TP=8/PP=8/DP=1, 64 SPUs."""

    bandwidths: tuple[float, ...]
    achieved_pflops_per_spu: tuple[float, ...]
    gemm_time_per_layer: tuple[float, ...]
    gemm_memory_bound_time: tuple[float, ...]
    gemm_compute_bound_time: tuple[float, ...]
    reports: tuple[TrainingReport, ...] = field(repr=False, default=())


def fig5_training_bandwidth_sweep(
    bandwidths_tbps: tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32, 64),
    batch: int = 128,
    model: LLMConfig = GPT3_76B,
) -> Fig5Result:
    """Reproduce Fig. 5 (+ inset): bandwidth sweep 0.5–64 TBps per SPU."""
    # Imported lazily: the registry's builders live above this module in the
    # import graph (repro.analysis.__init__ -> figures -> registry -> sweep).
    from repro.scenarios.registry import fig5_scenario
    from repro.scenarios.runner import run_scenario

    result = run_scenario(fig5_scenario(tuple(bandwidths_tbps), batch, model))
    return Fig5Result(
        bandwidths=tuple(bandwidths_tbps),
        achieved_pflops_per_spu=result.series("achieved_pflops_per_pu"),
        gemm_time_per_layer=result.series("gemm_time_per_layer"),
        gemm_memory_bound_time=result.series("gemm_memory_bound_time"),
        gemm_compute_bound_time=result.series("gemm_compute_bound_time"),
        reports=result.reports(),
    )


# ---------------------------------------------------------------------------
# Fig. 6 — training time per batch, SPU vs GPU, three GPT-3 sizes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig6Entry:
    """One model's SPU/GPU pair in Fig. 6."""

    model_name: str
    spu: TrainingReport
    gpu: TrainingReport

    @property
    def speedup(self) -> float:
        """GPU time / SPU time per batch."""
        return self.gpu.time_per_batch / self.spu.time_per_batch


@dataclass(frozen=True)
class Fig6Result:
    """Fig. 6 series: B=64, TP=8/PP=8/DP=1, 64 SPUs vs 64 H100s."""

    entries: tuple[Fig6Entry, ...]

    @property
    def speedups(self) -> tuple[float, ...]:
        """Per-model speedups (paper: 3.5×–4.4×)."""
        return tuple(entry.speedup for entry in self.entries)


def fig6_training_models(
    batch: int = 64,
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
    models: tuple[LLMConfig, ...] = (GPT3_18B, GPT3_76B, GPT3_175B),
) -> Fig6Result:
    """Reproduce Fig. 6 (+ inset): per-batch breakdown SPU vs GPU."""
    from repro.scenarios.registry import fig6_scenario
    from repro.scenarios.runner import run_scenario

    result = run_scenario(
        fig6_scenario(batch, dram_bandwidth_per_spu / TBPS, models)
    )
    # Axis values are zoo names, or inline LLMConfigs for custom models.
    return Fig6Result(
        entries=tuple(
            Fig6Entry(
                model_name=ref if isinstance(ref, str) else ref.name,
                spu=outcome.report,
                gpu=outcome.ref_report,
            )
            for ref, outcome in zip(
                result.axis("workload.model"), result.outcomes()
            )
        )
    )


# ---------------------------------------------------------------------------
# Fig. 7 — inference latency vs DRAM bandwidth (+ latency & batch insets)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig7Result:
    """Fig. 7 series: Llama-405B, B=8, I/O 200/200, bf16."""

    bandwidths: tuple[float, ...]
    latencies: tuple[float, ...]
    # Inset (a): DRAM latency sweep at 16 TBps.
    dram_latencies_ns: tuple[float, ...]
    latency_sweep_pflops_per_spu: tuple[float, ...]
    # Inset (b): batch sweep at 16 TBps plus the GPU reference.
    batches: tuple[int, ...]
    batch_latencies: tuple[float, ...]
    batch_pflops_per_spu: tuple[float, ...]
    gpu_latency: float
    gpu_pflops_per_pu: float

    @property
    def speedup_low_to_high(self) -> float:
        """Latency improvement from the lowest to highest bandwidth
        (paper: ~17× from 0.5 to 32 TBps)."""
        return self.latencies[0] / self.latencies[-1]


def fig7_inference(
    bandwidths_tbps: tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32),
    dram_latencies_ns: tuple[float, ...] = (10, 30, 50, 100, 150, 200),
    batches: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    model: LLMConfig = LLAMA_405B,
) -> Fig7Result:
    """Reproduce Fig. 7 and both insets (four scenarios, one result)."""
    from repro.scenarios.registry import (
        fig7_bandwidth_scenario,
        fig7_batch_scenario,
        fig7_gpu_scenario,
        fig7_latency_scenario,
    )
    from repro.scenarios.runner import run_scenario

    spu_bandwidth_tbps = DEFAULT_SPU_BANDWIDTH / TBPS
    bw_result = run_scenario(
        fig7_bandwidth_scenario(tuple(bandwidths_tbps), batch, io_tokens, model)
    )
    latency_result = run_scenario(
        fig7_latency_scenario(
            tuple(dram_latencies_ns), batch, io_tokens, model, spu_bandwidth_tbps
        )
    )
    batch_result = run_scenario(
        fig7_batch_scenario(tuple(batches), io_tokens, model, spu_bandwidth_tbps)
    )
    gpu_result = run_scenario(fig7_gpu_scenario(batch, io_tokens, model))

    return Fig7Result(
        bandwidths=tuple(bandwidths_tbps),
        latencies=bw_result.series("latency"),
        dram_latencies_ns=tuple(dram_latencies_ns),
        latency_sweep_pflops_per_spu=latency_result.series(
            "achieved_pflops_per_pu"
        ),
        batches=tuple(batches),
        batch_latencies=batch_result.series("latency"),
        batch_pflops_per_spu=batch_result.series("achieved_pflops_per_pu"),
        gpu_latency=gpu_result.series("latency")[0],
        gpu_pflops_per_pu=gpu_result.series("achieved_pflops_per_pu")[0],
    )


# ---------------------------------------------------------------------------
# Fig. 8 — inference speed-up across models and batch sizes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Fig8Result:
    """Fig. 8a/8b series (B=8 for 8a; batch sweep for 8b)."""

    model_names: tuple[str, ...]
    model_speedups: tuple[float, ...]
    batches: tuple[int, ...]
    batch_speedups: tuple[float, ...]
    kv_cache_bytes: tuple[float, ...]
    gpu_memory_capacity: float
    spu_reports: tuple[InferenceReport, ...] = field(repr=False, default=())
    gpu_reports: tuple[InferenceReport, ...] = field(repr=False, default=())


def fig8_inference_speedup(
    models: tuple[LLMConfig, ...] = (MOE_132B, LLAMA_70B, LLAMA_405B),
    batches: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
) -> Fig8Result:
    """Reproduce Fig. 8: per-model speed-ups and the Llama-405B batch sweep."""
    from repro.scenarios.registry import (
        fig8_batch_scenario,
        fig8_models_scenario,
    )
    from repro.scenarios.runner import run_scenario

    bandwidth_tbps = dram_bandwidth_per_spu / TBPS
    model_result = run_scenario(
        fig8_models_scenario(models, batch, io_tokens, bandwidth_tbps)
    )
    batch_result = run_scenario(
        fig8_batch_scenario(tuple(batches), io_tokens, LLAMA_405B, bandwidth_tbps)
    )
    return Fig8Result(
        model_names=tuple(model.name for model in models),
        model_speedups=model_result.series("speedup"),
        batches=tuple(batches),
        batch_speedups=batch_result.series("speedup"),
        kv_cache_bytes=batch_result.series("kv_cache_bytes"),
        gpu_memory_capacity=gpu_config(64).build().total_memory_capacity,
        spu_reports=model_result.reports(),
        gpu_reports=model_result.ref_reports(),
    )


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
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
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
    dram_bandwidth_per_spu: float = DEFAULT_SPU_BANDWIDTH,
) -> JSRAMStudyResult:
    """Sweep the blade JSRAM (shared L2) capacity and serve *weights + KV*
    from it whenever the whole footprint fits — the paper's closing outlook
    on "unusual SRAM capacity" leading to "new ways of mapping and memory
    management"."""
    from repro.core.model import Optimus

    dram_system = (
        build_blade(l2_policy="dram").system().with_dram_bandwidth(
            dram_bandwidth_per_spu
        )
    )
    entries: list[JSRAMStudyEntry] = []
    for capacity in capacities:
        jsram_system = (
            build_blade(l2_total_bytes=capacity, l2_policy="l2_kv_cache")
            .system()
            .with_dram_bandwidth(dram_bandwidth_per_spu)
        )
        for model in models:
            tp = min(model.n_heads, dram_system.n_accelerators)
            parallel = ParallelConfig(tensor_parallel=tp)

            def run(system: SystemSpec) -> float:
                mapped = map_inference(
                    model,
                    system.with_n(tp),
                    parallel=parallel,
                    batch=batch,
                    input_tokens=io_tokens[0],
                    output_tokens=io_tokens[1],
                )
                return Optimus(system.with_n(tp)).evaluate_inference(mapped).latency

            footprint = model.weight_bytes() + model.kv_cache_bytes(batch)
            fits = footprint <= capacity
            entries.append(
                JSRAMStudyEntry(
                    model_name=model.name,
                    jsram_capacity_bytes=capacity,
                    footprint_bytes=footprint,
                    fits=fits,
                    latency_dram=run(dram_system),
                    latency_jsram=run(jsram_system) if fits else run(dram_system),
                )
            )
    return JSRAMStudyResult(entries=tuple(entries))


__all__ = [
    "TRAINING_PARALLEL",
    "DEFAULT_SPU_BANDWIDTH",
    "scd_system",
    "Fig5Result",
    "fig5_training_bandwidth_sweep",
    "Fig6Entry",
    "Fig6Result",
    "fig6_training_models",
    "Fig7Result",
    "fig7_inference",
    "Fig8Result",
    "fig8_inference_speedup",
    "L2StudyEntry",
    "L2StudyResult",
    "l2_kv_cache_study",
    "JSRAMStudyEntry",
    "JSRAMStudyResult",
    "jsram_main_memory_study",
]
