#!/usr/bin/env python3
"""Training study: bandwidth sensitivity and GPU comparison (Figs. 5 & 6).

Runs the registered `fig5` and `fig6` scenarios (the same specs
`python -m repro run fig5` executes), reads the extracted series off the
results, and renders terminal plots: the cryo-DRAM bandwidth sweep shows the
memory-bound -> compute-bound crossover of the forward GEMMs, the model
comparison the 3.5-4.4x per-batch speed-up over 64 H100s.

Run:  python examples/llm_training_study.py
"""

from repro import scenarios


def bar(fraction: float, width: int = 32) -> str:
    """A crude text bar for terminal plots."""
    filled = round(max(0.0, min(1.0, fraction)) * width)
    return "#" * filled + "." * (width - filled)


def main() -> None:
    print("=== Fig. 5: GPT3-76B training, B=128, TP=8/PP=8/DP=1, 64 SPUs ===")
    fig5 = scenarios.get("fig5").run()
    bandwidths = fig5.axis("system.dram_bandwidth_tbps")
    pflops = fig5.series("achieved_pflops_per_pu")
    peak = max(pflops)
    print(f"{'BW/SPU':>8s} {'PFLOP/s/SPU':>12s}  throughput")
    for bw, pf in zip(bandwidths, pflops):
        print(f"{bw:6.1f}TB {pf:12.3f}  {bar(pf / peak)}")

    print("\nInset: forward GEMM time per layer (memory- vs compute-bound)")
    print(f"{'BW/SPU':>8s} {'total ms':>9s} {'mem-bound':>10s} {'comp-bound':>10s}")
    for bw, total, mem, comp in zip(
        bandwidths,
        fig5.series("gemm_time_per_layer"),
        fig5.series("gemm_memory_bound_time"),
        fig5.series("gemm_compute_bound_time"),
    ):
        print(
            f"{bw:6.1f}TB {total * 1e3:9.3f} {mem * 1e3:10.3f} "
            f"{comp * 1e3:10.3f}   mem {bar(mem / total, 20)}"
        )
    print(
        "\nTakeaway: throughput grows with bandwidth and saturates once the "
        "GEMMs turn compute-bound;\nonly softmax/layer-norm style kernels "
        "remain memory-bound at high bandwidth."
    )

    print("\n=== Fig. 6: training time per batch, SPU (16 TBps) vs H100 ===")
    fig6 = scenarios.get("fig6").run()
    print(
        f"{'model':12s} {'unit':5s} {'total s':>8s} {'compute':>8s} "
        f"{'comm':>8s} {'others':>8s} {'PF/unit':>8s}"
    )
    speedups = fig6.series("speedup")
    for model_name, outcome, speedup in zip(
        fig6.axis("workload.model"), fig6.outcomes(), speedups
    ):
        for label, report in (("SPU", outcome.report), ("GPU", outcome.ref_report)):
            parts = report.breakdown()
            print(
                f"{model_name:12s} {label:5s} "
                f"{report.time_per_batch:8.3f} {parts['compute']:8.3f} "
                f"{parts['communication']:8.3f} {parts['others']:8.3f} "
                f"{report.achieved_flops_per_pu / 1e15:8.2f}"
            )
        print(f"{'':12s} speed-up: {speedup:.2f}x")
    print(
        f"\nTakeaway: SCD is {min(speedups):.1f}-"
        f"{max(speedups):.1f}x faster per batch "
        "(paper: 3.5-4.4x), mostly from faster data movement."
    )


if __name__ == "__main__":
    main()
