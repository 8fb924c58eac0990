"""Perf trajectory benchmark: op-program engine vs the seed's flat timing.

Times a reference Fig. 5 + Fig. 7 sweep two ways on the same machine in
the same process:

* **engine** — the production path: the five registry scenarios behind
  the two figures (``fig5``, ``fig7-bandwidth``, ``fig7-dram-latency``,
  ``fig7-batch``, ``fig7-gpu``) through :func:`run_scenario`, on
  run-length-encoded op programs with the shared memoized kernel-timing
  cache;
* **flat**   — the seed's behavior, reproduced via
  ``Optimus(use_programs=False, cache=NullTimingCache())``: every kernel of
  every layer replica timed one by one, nothing memoized.

Each path is timed by :func:`measure`: untimed warm-up passes, then
``n`` timed passes, with every engine memo emptied before each pass, so
every pass is a cold compute; it reports the median, p90 and IQR.  The
engine's one warm-up pass pays the imports a first compute makes
lazily, which a cold compute in a long-lived process does not pay again.

Asserts the two paths produce identical series (1e-9 relative) and that
the engine's median is ≥5× faster than the flat median, and gates the
engine median against the committed ``BENCH_baseline.json``: more than
2× its ``engine_seconds``, scaled up on a slower host by the flat median
over its ``flat_seed_seconds``, fails.  A direct run
(``PYTHONPATH=src python benchmarks/perf/bench_engine_speed.py``) runs
the test once and writes ``BENCH_engine.json`` at the repo root — the
repo's recorded perf trajectory; a pytest run writes the git-ignored
``.bench/BENCH_engine.json`` so a test run never dirties the tree.
Collected in the default pytest run via ``benchmarks/conftest.py``.
Serving latency is measured end to end by ``perfbench`` (its warm-serve
and mixed-serve workloads), not here.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Callable

import pytest

from repro.arch.blade import _assemble_blade, build_blade
from repro.arch.config import _build_system
from repro.arch.gpu import build_gpu_system
from repro.core.model import Optimus
from repro.core.timing_cache import NullTimingCache, default_timing_cache
from repro.parallel.mapper import (
    _layer_kernels,
    default_mapping_cache,
    map_inference,
    map_training,
)
from repro.parallel.pipeline import _replay_plan
from repro.parallel.strategy import ParallelConfig
from repro.scenarios.registry import (
    DEFAULT_BANDWIDTH_TBPS,
    fig5_scenario,
    fig7_bandwidth_scenario,
    fig7_batch_scenario,
    fig7_gpu_scenario,
    fig7_latency_scenario,
)
from repro.scenarios.runner import run_scenario
from repro.units import NS, TBPS
from repro.workloads.llm import GPT3_76B, LLAMA_405B

REPO_ROOT = Path(__file__).resolve().parents[2]
RESULT_PATH = REPO_ROOT / "BENCH_engine.json"
#: Where a pytest run writes its measurements (git-ignored).
TEST_RESULT_PATH = REPO_ROOT / ".bench" / "BENCH_engine.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: Committed-baseline regression tolerance (wall-clock is machine-noisy;
#: a genuine engine regression shows up as far more than 2×).
GATE_FACTOR = 2.0

#: Timed passes per path.  An engine pass takes tens of milliseconds, a
#: flat pass about a second.
ENGINE_PASSES = 7
FLAT_PASSES = 3

FIG5_BANDWIDTHS = (0.5, 1, 2, 4, 8, 16, 32, 64)
FIG7_BANDWIDTHS = (0.5, 1, 2, 4, 8, 16, 32)
FIG7_LATENCIES_NS = (10, 30, 50, 100, 150, 200)
FIG7_BATCHES = (4, 8, 16, 32, 64, 128)


def measure(fn: Callable[[], object], warmup: int, n: int) -> dict:
    """Wall time of ``fn()`` over ``n`` timed calls after ``warmup``
    untimed ones, every engine memo emptied before each call: the
    median, p90 and interquartile range in seconds, the samples, and the
    last call's value."""
    for _ in range(warmup):
        _empty_engine_memos()
        fn()
    samples = []
    for _ in range(n):
        _empty_engine_memos()
        t0 = time.perf_counter()
        value = fn()
        samples.append(time.perf_counter() - t0)
    q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": statistics.median(samples),
        "p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "iqr": q3 - q1,
        "samples": samples,
        "value": value,
    }


def _empty_engine_memos() -> None:
    """Empty every memo a cold compute fills, as in a fresh process."""
    default_timing_cache().clear()
    default_mapping_cache().clear()
    _layer_kernels.cache_clear()
    _replay_plan.cache_clear()
    _build_system.cache_clear()
    _assemble_blade.cache_clear()


def _engine_pass():
    """Fig. 5 and Fig. 7's registry scenarios, in the flat path's order."""
    return (
        run_scenario(fig5_scenario(FIG5_BANDWIDTHS)),
        run_scenario(fig7_bandwidth_scenario(FIG7_BANDWIDTHS)),
        run_scenario(fig7_latency_scenario(FIG7_LATENCIES_NS)),
        run_scenario(fig7_batch_scenario(FIG7_BATCHES)),
        run_scenario(fig7_gpu_scenario()),
    )


def _seed_optimus(system) -> Optimus:
    """An evaluator that reproduces the seed's flat, uncached timing walk."""
    return Optimus(system, cache=NullTimingCache(), use_programs=False)


def _blade_system(bandwidth: float):
    """The 64-SPU blade at one DRAM bandwidth per SPU (bytes/s)."""
    return build_blade().system().with_dram_bandwidth(bandwidth)


def _flat_fig5() -> list[float]:
    series = []
    for bw in FIG5_BANDWIDTHS:
        system = _blade_system(bw * TBPS)
        mapped = map_training(GPT3_76B, system, ParallelConfig(8, 8, 1), 128)
        report = _seed_optimus(system).evaluate_training(mapped)
        series.append(report.achieved_flops_per_pu / 1e15)
    return series


def _flat_fig7() -> dict[str, list[float]]:
    def infer(system, batch):
        return _seed_optimus(system).evaluate_inference(
            map_inference(system=system, model=LLAMA_405B, batch=batch,
                          input_tokens=200, output_tokens=200)
        )

    latencies = [
        infer(_blade_system(bw * TBPS), 8).latency for bw in FIG7_BANDWIDTHS
    ]
    base = _blade_system(DEFAULT_BANDWIDTH_TBPS * TBPS)
    latency_sweep = [
        infer(base.with_dram_latency(ns * NS), 8).achieved_flops_per_pu / 1e15
        for ns in FIG7_LATENCIES_NS
    ]
    batch_latencies = [infer(base, b).latency for b in FIG7_BATCHES]
    gpu_latency = infer(build_gpu_system(base.n_accelerators), 8).latency
    return {
        "latencies": latencies,
        "latency_sweep_pflops_per_spu": latency_sweep,
        "batch_latencies": batch_latencies,
        "gpu_latency": [gpu_latency],
    }


def _flat_pass():
    return _flat_fig5(), _flat_fig7()


def _max_rel_err(a, b) -> float:
    return max(
        abs(x - y) / max(abs(y), 1e-300) for x, y in zip(a, b, strict=True)
    )


def _result_path() -> Path:
    """``RESULT_PATH`` when this file was run as a script (which runs
    pytest on itself), else the git-ignored ``TEST_RESULT_PATH``."""
    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file and Path(main_file).resolve() == Path(__file__).resolve():
        return RESULT_PATH
    return TEST_RESULT_PATH


def _summary(timing: dict) -> dict:
    return {
        "median": round(timing["median"], 6),
        "p90": round(timing["p90"], 6),
        "iqr": round(timing["iqr"], 6),
        "n": len(timing["samples"]),
    }


def test_engine_speed_vs_seed_flat_timing():
    engine = measure(_engine_pass, warmup=1, n=ENGINE_PASSES)
    fig5, fig7_bandwidth, fig7_latency, fig7_batch, fig7_gpu = engine["value"]
    cache = default_timing_cache()
    cache_stats = {
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": round(cache.hit_rate, 4),
    }
    flat = measure(_flat_pass, warmup=0, n=FLAT_PASSES)
    flat5, flat7 = flat["value"]

    # Equivalence: the engine must reproduce the seed numbers exactly.
    errors = {
        "fig5.achieved_pflops_per_spu": _max_rel_err(
            fig5.series("achieved_pflops_per_pu"), flat5
        ),
        "fig7.latencies": _max_rel_err(
            fig7_bandwidth.series("latency"), flat7["latencies"]
        ),
        "fig7.latency_sweep_pflops_per_spu": _max_rel_err(
            fig7_latency.series("achieved_pflops_per_pu"),
            flat7["latency_sweep_pflops_per_spu"],
        ),
        "fig7.batch_latencies": _max_rel_err(
            fig7_batch.series("latency"), flat7["batch_latencies"]
        ),
        "fig7.gpu_latency": _max_rel_err(
            fig7_gpu.series("latency"), flat7["gpu_latency"]
        ),
    }
    max_rel_err = max(errors.values())
    engine_seconds, flat_seconds = engine["median"], flat["median"]
    speedup = flat_seconds / engine_seconds

    result = {
        "benchmark": "fig5 + fig7 reference sweep",
        "engine_seconds": round(engine_seconds, 6),
        "flat_seed_seconds": round(flat_seconds, 6),
        "speedup": round(speedup, 2),
        "engine": _summary(engine),
        "flat_seed": _summary(flat),
        "max_rel_err": max_rel_err,
        "series_rel_err": {k: float(v) for k, v in errors.items()},
        "timing_cache": cache_stats,
        "note": (
            "engine_seconds and flat_seed_seconds are medians of cold "
            "passes (every engine memo emptied before each), after one "
            "untimed engine pass that pays the lazy imports; "
            "flat_seed_seconds reproduces the pre-engine seed path "
            "(per-replica op walk, no memoization) in the same process; "
            "speedup is the ratio of the medians"
        ),
    }
    result_path = _result_path()
    result_path.parent.mkdir(parents=True, exist_ok=True)
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(
        f"\nengine {engine_seconds * 1e3:.1f} ms (median of "
        f"{ENGINE_PASSES}, IQR {engine['iqr'] * 1e3:.1f} ms) vs flat seed "
        f"{flat_seconds * 1e3:.1f} ms (median of {FLAT_PASSES}) -> "
        f"{speedup:.1f}x (cache hit rate {cache_stats['hit_rate']:.2%}), "
        f"max series rel err {max_rel_err:.2e}"
    )

    assert max_rel_err < 1e-9, errors
    assert speedup >= 5.0, (
        f"engine only {speedup:.1f}x faster than the seed flat path "
        f"({engine_seconds:.3f}s vs {flat_seconds:.3f}s)"
    )
    _gate_against_baseline(result)


def _gate_against_baseline(result: dict) -> None:
    """The tier-1 perf gate: fail on a >2× regression of the engine median
    vs the committed baseline (``benchmarks/perf/BENCH_baseline.json``).

    Wall-clock is machine-dependent, so the allowance is scaled by a
    host-speed factor measured *in this very process*: the seed flat-timing
    pass exercises the same Python/model code with no caching, so
    ``flat median / baseline flat`` says how much slower this host is
    than the machine that committed the baseline.  A slower host relaxes
    the gate proportionally; a faster host never tightens it below the
    committed absolute number.
    """
    assert BASELINE_PATH.is_file(), (
        f"missing committed perf baseline {BASELINE_PATH}; regenerate it "
        "from a trusted run's BENCH_engine.json"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    host_factor = max(
        1.0, result["flat_seed_seconds"] / baseline["flat_seed_seconds"]
    )
    measured = result["engine_seconds"]
    allowed = baseline["engine_seconds"] * GATE_FACTOR * host_factor
    assert measured <= allowed, (
        f"perf gate: engine_seconds regressed to {measured:.4f}s "
        f"(baseline {baseline['engine_seconds']:.4f}s x {GATE_FACTOR} gate x "
        f"{host_factor:.2f} host factor = allowed {allowed:.4f}s). "
        "If the slowdown is intentional, update "
        "benchmarks/perf/BENCH_baseline.json in the same commit."
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-s"]))
