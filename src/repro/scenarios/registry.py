"""The scenario registry: every paper experiment as a named, rerunnable spec.

This is the one way to a paper result.  The registry holds each
``*_scenario`` builder's default-argument spec — the paper's exact setup —
under a stable name.  ``python -m repro`` and the serving daemon run these
specs by name, and the examples and benchmarks read Figs. 5–8, the
tornado and the scaling and memory-policy studies from them.  A variant
(another sweep, model or batch) is the same builder called with other
arguments:

>>> from repro.scenarios import run_scenario
>>> result = run_scenario(fig5_scenario(bandwidths_tbps=(1, 16), batch=32))
>>> result.series("achieved_pflops_per_pu")

:meth:`~repro.scenarios.runner.ScenarioResult.outcomes` gives each
point's full reports.  Registering a scenario with :func:`register` makes
it listable, showable and runnable by name.
"""

from __future__ import annotations

from typing import Iterable

from repro.arch.config import SystemConfig, gpu_config, scd_blade_config
from repro.errors import ConfigError
from repro.scenarios.spec import Scenario, _model_ref
from repro.units import GB
from repro.workloads.llm import (
    GPT3_175B,
    GPT3_18B,
    GPT3_76B,
    LLAMA2_7B,
    LLAMA2_13B,
    LLAMA2_70B,
    LLAMA_405B,
    LLAMA_70B,
    MOE_132B,
    LLMConfig,
)

#: The paper's fixed training decomposition (TP=8, PP=8, DP=1).
_TRAINING_TP, _TRAINING_PP = 8, 8

#: Default effective DRAM bandwidth per SPU for the headline experiments.
DEFAULT_BANDWIDTH_TBPS = 16.0


def _model_refs(
    models: Iterable[str | LLMConfig],
) -> tuple[str | LLMConfig, ...]:
    """Model-axis values: zoo names where possible, inline configs kept."""
    return tuple(_model_ref(m) for m in models)


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------
def fig5_scenario(
    bandwidths_tbps: tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32, 64),
    batch: int = 128,
    model: str | LLMConfig = GPT3_76B,
) -> Scenario:
    """Fig. 5: training throughput vs DRAM bandwidth per SPU."""
    return (
        Scenario.builder(
            "fig5",
            "Fig. 5: GPT3-76B training vs DRAM bandwidth per SPU "
            "(B=128, TP=8/PP=8/DP=1, 64 SPUs)",
        )
        .training(model, batch=batch)
        .parallel(tensor_parallel=_TRAINING_TP, pipeline_parallel=_TRAINING_PP)
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": tuple(bandwidths_tbps)})
        .extracting(
            "achieved_pflops_per_pu",
            "gemm_time_per_layer",
            "gemm_memory_bound_time",
            "gemm_compute_bound_time",
        )
        .build()
    )


def fig6_scenario(
    batch: int = 64,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
    models: tuple[str | LLMConfig, ...] = (GPT3_18B, GPT3_76B, GPT3_175B),
) -> Scenario:
    """Fig. 6: training time per batch, SPU blade vs equal-count H100s."""
    return (
        Scenario.builder(
            "fig6",
            "Fig. 6: training time per batch, 64 SPUs vs 64 H100s "
            "(B=64, TP=8/PP=8/DP=1)",
        )
        .training(_model_ref(models[0]), batch=batch)
        .parallel(tensor_parallel=_TRAINING_TP, pipeline_parallel=_TRAINING_PP)
        .on(scd_blade_config(dram_bandwidth_tbps))
        .versus(gpu_config(64))
        .sweep_product(**{"workload.model": _model_refs(models)})
        .extracting(
            "time_per_batch",
            "ref_time_per_batch",
            "speedup",
            "achieved_pflops_per_pu",
        )
        .build()
    )


def fig7_bandwidth_scenario(
    bandwidths_tbps: tuple[float, ...] = (0.5, 1, 2, 4, 8, 16, 32),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    model: str | LLMConfig = LLAMA_405B,
) -> Scenario:
    """Fig. 7 main sweep: inference latency vs DRAM bandwidth per SPU."""
    return (
        Scenario.builder(
            "fig7-bandwidth",
            "Fig. 7: Llama-405B inference latency vs DRAM bandwidth per SPU "
            "(B=8, I/O 200/200)",
        )
        .inference(
            model, batch=batch, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(SystemConfig(kind="scd_blade"))
        .sweep_product(**{"system.dram_bandwidth_tbps": tuple(bandwidths_tbps)})
        .extracting("latency", "achieved_pflops_per_pu")
        .build()
    )


def fig7_latency_scenario(
    dram_latencies_ns: tuple[float, ...] = (10, 30, 50, 100, 150, 200),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    model: str | LLMConfig = LLAMA_405B,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Fig. 7 inset (a): inference throughput vs DRAM access latency."""
    return (
        Scenario.builder(
            "fig7-dram-latency",
            "Fig. 7 inset (a): Llama-405B inference vs DRAM latency "
            "(16 TBps per SPU)",
        )
        .inference(
            model, batch=batch, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(scd_blade_config(dram_bandwidth_tbps))
        .sweep_product(**{"system.dram_latency_ns": tuple(dram_latencies_ns)})
        .extracting("achieved_pflops_per_pu", "latency")
        .build()
    )


def fig7_batch_scenario(
    batches: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    io_tokens: tuple[int, int] = (200, 200),
    model: str | LLMConfig = LLAMA_405B,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Fig. 7 inset (b): inference latency/throughput vs batch size."""
    return (
        Scenario.builder(
            "fig7-batch",
            "Fig. 7 inset (b): Llama-405B inference vs batch size "
            "(16 TBps per SPU)",
        )
        .inference(
            model, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(scd_blade_config(dram_bandwidth_tbps))
        .sweep_product(**{"workload.batch": tuple(batches)})
        .extracting("latency", "achieved_pflops_per_pu")
        .build()
    )


def fig7_gpu_scenario(
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    model: str | LLMConfig = LLAMA_405B,
) -> Scenario:
    """Fig. 7 GPU reference point: same request on 64 H100s."""
    return (
        Scenario.builder(
            "fig7-gpu",
            "Fig. 7 reference: Llama-405B inference on 64 H100s (B=8)",
        )
        .inference(
            model, batch=batch, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(gpu_config(64))
        .extracting("latency", "achieved_pflops_per_pu")
        .build()
    )


def fig8_models_scenario(
    models: tuple[str | LLMConfig, ...] = (MOE_132B, LLAMA_70B, LLAMA_405B),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Fig. 8a: per-model single-blade inference speed-up vs 64 H100s."""
    return (
        Scenario.builder(
            "fig8-models",
            "Fig. 8a: inference speed-up vs 64 H100s across models (B=8)",
        )
        .inference(
            _model_ref(models[0]),
            batch=batch,
            input_tokens=io_tokens[0],
            output_tokens=io_tokens[1],
        )
        .on(scd_blade_config(dram_bandwidth_tbps))
        .versus(gpu_config(64))
        .sweep_product(**{"workload.model": _model_refs(models)})
        .extracting("speedup", "latency", "ref_latency")
        .build()
    )


def fig8_batch_scenario(
    batches: tuple[int, ...] = (4, 8, 16, 32, 64, 128),
    io_tokens: tuple[int, int] = (200, 200),
    model: str | LLMConfig = LLAMA_405B,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Fig. 8b: Llama-405B speed-up and KV-cache growth vs batch size."""
    return (
        Scenario.builder(
            "fig8-batch",
            "Fig. 8b: Llama-405B inference speed-up & KV cache vs batch",
        )
        .inference(
            model, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(scd_blade_config(dram_bandwidth_tbps))
        .versus(gpu_config(64))
        .sweep_product(**{"workload.batch": tuple(batches)})
        .extracting("speedup", "kv_cache_bytes", "latency", "ref_latency")
        .build()
    )


# ---------------------------------------------------------------------------
# Sensitivity tornado
# ---------------------------------------------------------------------------
#: (human name, dotted axis, low, high) — the calibrated knobs the
#: reproduction perturbs (README "Substitutions" #7/#8).  Ranges are
#: deliberately generous (~±2× around the calibration).
SENSITIVITY_KNOBS: tuple[tuple[str, str, float, float], ...] = (
    (
        "GPU low-AI stream efficiency",
        "ref_system.gpu_stream_low_ai",
        0.15,
        0.45,
    ),
    ("InfiniBand alpha (us)", "ref_system.gpu_ib_alpha_us", 0.2, 1.0),
    (
        "GPU kernel-launch overhead (us)",
        "ref_system.gpu_kernel_launch_overhead_us",
        0.0,
        1.0,
    ),
    (
        "SCD outstanding bytes (KiB)",
        "system.dram_outstanding_kib",
        256.0,
        2048.0,
    ),
)


def sensitivity_scenario(
    model: str | LLMConfig = LLAMA_405B,
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """The Fig. 8 speed-up tornado: each calibrated knob at its endpoints.

    An explicit grid whose first point leaves every knob at baseline and
    whose remaining points perturb exactly one knob to one endpoint
    (``None`` = untouched), so the whole tornado — baseline included — is
    one declarative sweep.
    """
    axes = tuple(axis for _, axis, _, _ in SENSITIVITY_KNOBS)
    points: list[dict[str, float | None]] = [dict.fromkeys(axes)]
    for _, axis, low, high in SENSITIVITY_KNOBS:
        for setting in (low, high):
            point: dict[str, float | None] = dict.fromkeys(axes)
            point[axis] = setting
            points.append(point)
    return (
        Scenario.builder(
            "sensitivity",
            "Sensitivity tornado: Fig. 8 inference speed-up under "
            "calibrated-knob perturbation",
        )
        .inference(
            model, batch=batch, input_tokens=io_tokens[0], output_tokens=io_tokens[1]
        )
        .on(scd_blade_config(dram_bandwidth_tbps))
        .versus(gpu_config(64))
        .sweep_explicit(points)
        .extracting("speedup")
        .build()
    )


# ---------------------------------------------------------------------------
# DSE, quickstart, scaling studies
# ---------------------------------------------------------------------------
def dse_scenario(
    model: str | LLMConfig = GPT3_76B,
    batch: int = 64,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
    max_candidates: int = 64,
) -> Scenario:
    """Strategy search: rank every valid (TP, PP, DP) on the blade."""
    return (
        Scenario.builder(
            "dse",
            "Design-space exploration: rank (TP, PP, DP) decompositions "
            "for GPT3-76B training on the blade",
        )
        .dse(model, batch=batch, max_candidates=max_candidates)
        .on(scd_blade_config(dram_bandwidth_tbps))
        .build()
    )


def quickstart_training_scenario() -> Scenario:
    """The quickstart's training comparison as a scenario."""
    return (
        Scenario.builder(
            "quickstart-training",
            "Quickstart: GPT3-76B training, SCD blade vs 64 H100s (B=64)",
        )
        .training(GPT3_76B, batch=64)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(scd_blade_config(DEFAULT_BANDWIDTH_TBPS))
        .versus(gpu_config(64))
        .extracting(
            "time_per_batch",
            "ref_time_per_batch",
            "speedup",
            "achieved_pflops_per_pu",
        )
        .build()
    )


def quickstart_inference_scenario() -> Scenario:
    """The quickstart's inference comparison as a scenario."""
    return (
        Scenario.builder(
            "quickstart-inference",
            "Quickstart: Llama-405B inference, SCD blade vs 64 H100s (B=8)",
        )
        .inference(LLAMA_405B, batch=8)
        .on(scd_blade_config(DEFAULT_BANDWIDTH_TBPS))
        .versus(gpu_config(64))
        .extracting("latency", "ref_latency", "speedup", "tokens_per_second")
        .build()
    )


def multi_blade_scaling_scenario(
    n_blades: tuple[int, ...] = (1, 2, 4, 8),
    batch_per_blade: int = 64,
    model: str | LLMConfig = GPT3_76B,
) -> Scenario:
    """Future-work study: DP across blades, batch scaled with blade count."""
    return (
        Scenario.builder(
            "multi-blade-scaling",
            "Future work: GPT3-76B training scaled across blades "
            "(DP per blade, batch grows with blades)",
        )
        .training(model, batch=batch_per_blade)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(
            SystemConfig(
                kind="multi_blade",
                n_blades=1,
                dram_bandwidth_tbps=DEFAULT_BANDWIDTH_TBPS,
            )
        )
        .sweep_zipped(
            **{
                "system.n_blades": tuple(n_blades),
                "parallel.data_parallel": tuple(n_blades),
                "workload.batch": tuple(batch_per_blade * n for n in n_blades),
            }
        )
        .extracting("time_per_batch", "tokens_per_second")
        .build()
    )


# ---------------------------------------------------------------------------
# Kernel-level memory-policy studies (Sec. VI closing + Sec. VII outlook)
# ---------------------------------------------------------------------------
def _model_tp(model: str | LLMConfig) -> int:
    """The largest blade tensor-parallel degree a model's head count allows.

    The llama2 family has fewer attention heads than the blade has SPUs, so
    the memory-policy studies run each model on a TP-sized subsystem
    (``system.n_accelerators`` + the mapper's pure-TP inference default) —
    a per-model pairing only an explicit grid can express.
    """
    llm = model if isinstance(model, LLMConfig) else _zoo_entry(model)
    return min(llm.n_heads, 64)


def l2_kv_cache_scenario(
    models: tuple[str | LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B, LLAMA2_70B),
    batch: int = 1,
    l2_capacity_bytes: float = 4.19 * GB,
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Sec. VI closing study: serving the KV cache out of the blade L2.

    The system under test enables ``l2_policy="l2_kv_cache"`` (the shared
    L2/JSRAM pool becomes a hierarchy level); the reference system is the
    identical blade under the paper's main-results ``"dram"`` policy, so the
    ``speedup`` extractor reads off the L2-residency gain directly.  Each
    model runs at the largest TP its head count allows, and each point is
    evaluated both at the baseline per-kernel dispatch overhead and with it
    zeroed.

    Every series is end to end, and the K/V GEMVs are a small share of a
    decode step: ``speedup`` reads 1.018–1.026× for Llama2-7B and -13B,
    and 1.0 for Llama2-70B, whose 10 GB cache does not fit.  The paper's
    "~2–4× depending on the software overhead of launching the kernels"
    is a gain of those kernels alone, which
    :func:`repro.analysis.figures.l2_kv_cache_study` times: 1.39× with the
    dispatch overhead, 2.75× without.
    """
    points = [
        {
            "workload.model": _model_ref(model),
            "system.n_accelerators": _model_tp(model),
            "ref_system.n_accelerators": _model_tp(model),
            "system.kernel_overhead_ns": overhead_ns,
            "ref_system.kernel_overhead_ns": overhead_ns,
        }
        for overhead_ns in (None, 0.0)
        for model in models
    ]
    return (
        Scenario.builder(
            "l2-kv-cache",
            "Sec. VI: llama2 decode with the KV cache served from the "
            "blade L2 vs cryo-DRAM (with/without kernel dispatch overhead)",
        )
        .inference(_model_ref(models[0]), batch=batch)
        .on(
            SystemConfig(
                kind="scd_blade",
                dram_bandwidth_tbps=dram_bandwidth_tbps,
                l2_total_bytes=l2_capacity_bytes,
                l2_policy="l2_kv_cache",
            )
        )
        .versus(
            SystemConfig(
                kind="scd_blade",
                dram_bandwidth_tbps=dram_bandwidth_tbps,
                l2_total_bytes=l2_capacity_bytes,
                l2_policy="dram",
            )
        )
        .sweep_explicit(points)
        .extracting("speedup", "latency", "ref_latency", "time_per_output_token")
        .build()
    )


def jsram_residency_scenario(
    models: tuple[str | LLMConfig, ...] = (LLAMA2_7B, LLAMA2_13B),
    capacities_bytes: tuple[float, ...] = (4.19 * GB, 32 * GB, 64 * GB),
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_tbps: float = DEFAULT_BANDWIDTH_TBPS,
) -> Scenario:
    """Sec. VII outlook: LLM inference out of a huge JSRAM pool.

    Sweeps the blade's shared JSRAM capacity under the ``"l2_kv_cache"``
    policy against the same blade serving everything from cryo-DRAM.  The
    pool serves each kernel whose own working set fits it, so ``speedup``
    counts partial residency too: at most 1.007× at the baseline 4.19 GB,
    and 1.755× for Llama2-13B at 32 GB, although its weights + KV at B=8
    (52.9 GB) do not fit.  A kernel served from the pool streams at torus
    bandwidth with nanosecond latency (the paper's "new ways of mapping and
    memory management");
    :func:`repro.analysis.figures.jsram_main_memory_study` credits the pool
    only where weights + KV fit it whole.
    """
    points = [
        {
            "workload.model": _model_ref(model),
            "system.l2_total_bytes": capacity,
            "system.n_accelerators": _model_tp(model),
            "ref_system.n_accelerators": _model_tp(model),
        }
        for capacity in capacities_bytes
        for model in models
    ]
    return (
        Scenario.builder(
            "jsram-residency",
            "Sec. VII outlook: llama2 inference served from a huge shared "
            "JSRAM pool (weights + KV resident) vs cryo-DRAM",
        )
        .inference(
            _model_ref(models[0]),
            batch=batch,
            input_tokens=io_tokens[0],
            output_tokens=io_tokens[1],
        )
        .on(
            SystemConfig(
                kind="scd_blade",
                dram_bandwidth_tbps=dram_bandwidth_tbps,
                l2_policy="l2_kv_cache",
            )
        )
        .versus(
            SystemConfig(
                kind="scd_blade",
                dram_bandwidth_tbps=dram_bandwidth_tbps,
                l2_policy="dram",
            )
        )
        .sweep_explicit(points)
        .extracting("speedup", "latency", "ref_latency")
        .build()
    )


def _zoo_entry(name: str) -> LLMConfig:
    from repro.workloads.llm import MODEL_ZOO

    return MODEL_ZOO[name]


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------
def table1_scenario() -> Scenario:
    """Table I: the technology-comparison table."""
    return (
        Scenario.builder("table1", "Table I: technology comparison")
        .table("technology")
        .build()
    )


def datalink_scenario() -> Scenario:
    """Fig. 2b: the 4K–77K main-memory datalink specification."""
    return (
        Scenario.builder("fig2b-datalink", "Fig. 2b: datalink specification")
        .table("datalink")
        .build()
    )


def blade_spec_scenario() -> Scenario:
    """Fig. 3c: the baseline blade specification."""
    return (
        Scenario.builder(
            "fig3c-blade-spec", "Fig. 3c: baseline blade specification"
        )
        .table("blade_spec")
        .build()
    )


def pcl_flow_scenario() -> Scenario:
    """Fig. 1 logic layer: the design database through the EDA flow."""
    return (
        Scenario.builder(
            "pcl-flow",
            "Fig. 1: PCL design database through the Starling-like EDA flow",
        )
        .table("pcl_flow")
        .build()
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the registry under its own name."""
    if scenario.name in REGISTRY and not replace:
        raise ConfigError(
            f"scenario {scenario.name!r} is already registered"
        )
    REGISTRY[scenario.name] = scenario
    return scenario


def get(name: str) -> Scenario:
    """Look a scenario up by name."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; registered: {sorted(REGISTRY)}"
        ) from None


for _scenario in (
    fig5_scenario(),
    fig6_scenario(),
    fig7_bandwidth_scenario(),
    fig7_latency_scenario(),
    fig7_batch_scenario(),
    fig7_gpu_scenario(),
    fig8_models_scenario(),
    fig8_batch_scenario(),
    sensitivity_scenario(),
    dse_scenario(),
    quickstart_training_scenario(),
    quickstart_inference_scenario(),
    multi_blade_scaling_scenario(),
    l2_kv_cache_scenario(),
    jsram_residency_scenario(),
    table1_scenario(),
    datalink_scenario(),
    blade_spec_scenario(),
    pcl_flow_scenario(),
):
    register(_scenario)
del _scenario


__all__ = [
    "DEFAULT_BANDWIDTH_TBPS",
    "SENSITIVITY_KNOBS",
    "REGISTRY",
    "register",
    "get",
    "fig5_scenario",
    "fig6_scenario",
    "fig7_bandwidth_scenario",
    "fig7_latency_scenario",
    "fig7_batch_scenario",
    "fig7_gpu_scenario",
    "fig8_models_scenario",
    "fig8_batch_scenario",
    "sensitivity_scenario",
    "dse_scenario",
    "quickstart_training_scenario",
    "quickstart_inference_scenario",
    "multi_blade_scaling_scenario",
    "l2_kv_cache_scenario",
    "jsram_residency_scenario",
    "table1_scenario",
    "datalink_scenario",
    "blade_spec_scenario",
    "pcl_flow_scenario",
]
