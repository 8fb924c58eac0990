"""Experiment A2 — ablation over parallelization strategies (TP/PP/DP).

The paper fixes TP=8/PP=8/DP=1 for its training studies; this ablation runs
the mapper's full strategy search for GPT3-76B on the blade and on the GPU
cluster, verifying that (a) the search space is non-trivial, (b) the paper's
setup is competitive, and (c) extreme strategies (pure DP on a 76B model,
TP across slow fabrics) lose for the modelled reasons.
"""

from __future__ import annotations

from repro import scenarios
from repro.arch.gpu import build_gpu_system
from repro.core.optimizer import search_strategies
from repro.parallel.strategy import ParallelConfig
from repro.workloads.llm import GPT3_76B


def test_strategy_search_scd(run_once):
    # The registry's strategy search: GPT3-76B, B=64, the blade at 16 TBps.
    results = run_once(scenarios.get("dse").run).strategies

    print()
    for result in results[:6]:
        p = result.parallel
        print(
            f"  TP={p.tensor_parallel:2d} PP={p.pipeline_parallel:2d} "
            f"DP={p.data_parallel:2d}: {result.time_per_batch:.3f} s/batch"
        )

    assert len(results) >= 8  # non-trivial space on 64 units
    best = results[0].time_per_batch
    worst = results[-1].time_per_batch
    assert worst / best > 1.3  # strategy choice matters

    # The paper's TP=8/PP=8/DP=1 is within 25% of the best mapping.
    paper = next(r for r in results if r.parallel == ParallelConfig(8, 8, 1))
    assert paper.time_per_batch / best < 1.25


def test_strategy_search_gpu_prefers_intra_node_tp(run_once):
    """On the GPU cluster, TP should not want to span IB-connected nodes."""
    gpu = build_gpu_system(64)
    results = run_once(search_strategies, GPT3_76B, gpu, 64)
    best = results[0].parallel
    print(
        f"\n  best GPU mapping: TP={best.tensor_parallel} "
        f"PP={best.pipeline_parallel} DP={best.data_parallel}"
    )
    # NVSwitch nodes hold 8 GPUs; cross-node TP pays IB latency every layer.
    assert best.tensor_parallel <= 8

    tp64 = [
        r for r in results if r.parallel.tensor_parallel == 16
    ]
    if tp64:
        assert tp64[0].time_per_batch > results[0].time_per_batch
