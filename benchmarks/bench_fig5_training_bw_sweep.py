"""Experiment F5 — Fig. 5: training throughput vs DRAM bandwidth per SPU.

GPT3-76B training on 64 SPUs (TP=8/PP=8/DP=1, B=128, bf16), sweeping the
effective DRAM bandwidth per SPU from 0.5 to 64 TBps.

Paper claims asserted:
* achieved PFLOP/s/SPU grows monotonically with bandwidth,
* it saturates past ~16 TBps (modest improvement beyond),
* the inset's forward GEMM time flips from memory-bound-dominated at
  0.5 TBps to compute-bound-dominated at ≥16 TBps,
* residual memory-bound time (softmax/layer-norm class) persists at 64 TBps.
"""

from __future__ import annotations

from repro import scenarios


def test_fig5(run_once):
    fig5 = run_once(scenarios.get("fig5").run)
    bandwidths = fig5.axis("system.dram_bandwidth_tbps")
    achieved = fig5.series("achieved_pflops_per_pu")
    gemm_time = fig5.series("gemm_time_per_layer")
    gemm_memory_bound = fig5.series("gemm_memory_bound_time")

    print()
    print(f"{'BW/SPU':>9s} {'PF/SPU':>8s} {'GEMM ms':>8s} {'mem ms':>7s} {'comp ms':>8s}")
    for bw, pf, total, mem, comp in zip(
        bandwidths,
        achieved,
        gemm_time,
        gemm_memory_bound,
        fig5.series("gemm_compute_bound_time"),
    ):
        print(
            f"{bw:7.1f}TB {pf:8.3f} {total * 1e3:8.3f} {mem * 1e3:7.3f} "
            f"{comp * 1e3:8.3f}"
        )

    # Monotone growth with bandwidth.
    assert all(b >= a for a, b in zip(achieved, achieved[1:]))

    # Saturation: going 16 -> 64 TBps buys < 10%; going 0.5 -> 16 buys > 4x.
    i16 = bandwidths.index(16)
    assert achieved[-1] / achieved[i16] < 1.10
    assert achieved[i16] / achieved[0] > 4.0

    # Saturated throughput approaches the sustained MAC-array rate
    # (paper: ~2 PFLOP/s/SPU).  The model also charges softmax, layer norm
    # and the pipeline bubble explicitly, which puts the plateau near
    # ~1.5-1.6 PFLOP/s/SPU.
    assert 1.3 <= achieved[-1] <= 2.1

    # Inset: memory-bound fraction of GEMM time collapses with bandwidth.
    mem_frac = [m / t for m, t in zip(gemm_memory_bound, gemm_time)]
    assert mem_frac[0] > 0.9  # almost fully memory-bound at 0.5 TBps
    assert mem_frac[i16] < 0.15  # compute-bound-dominated at 16 TBps
    # The remaining memory-bound ops never fully vanish (softmax, LN, ...).
    assert gemm_memory_bound[-1] > 0.0

    # Inset absolute scale: ~1.5 ms/layer at 0.5 TBps, ~0.35 ms at 64 TBps.
    assert 1.0e-3 <= gemm_time[0] <= 2.2e-3
    assert 0.25e-3 <= gemm_time[-1] <= 0.5e-3
