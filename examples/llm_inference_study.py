#!/usr/bin/env python3
"""Inference study: bandwidth/latency/batch sensitivity + model speed-ups
(Figs. 7 & 8) and the Sec. VI L2 KV-cache analysis.

The figure data comes from the registered scenarios (`fig7-bandwidth`,
`fig7-dram-latency`, `fig7-batch`, `fig7-gpu`, `fig8-models`, `fig8-batch`)
— the same specs the `python -m repro` CLI runs — while the L2 study keeps
its kernel-level analysis from `repro.analysis.figures`.

Run:  python examples/llm_inference_study.py
"""

from repro import scenarios
from repro.analysis.figures import l2_kv_cache_study


def main() -> None:
    print("=== Fig. 7: Llama-405B inference, B=8, I/O 200/200, 64 SPUs ===")
    bw = scenarios.get("fig7-bandwidth").run()
    bandwidths = bw.axis("system.dram_bandwidth_tbps")
    latencies = bw.series("latency")
    print(f"{'BW/SPU':>8s} {'latency s':>10s}")
    for bandwidth, latency in zip(bandwidths, latencies):
        print(f"{bandwidth:6.1f}TB {latency:10.3f}")
    print(
        f"0.5 -> {bandwidths[-1]:.0f} TBps improves latency "
        f"{latencies[0] / latencies[-1]:.1f}x (paper: ~17x), saturating past "
        "~8 TBps at the DRAM-latency-bound limit."
    )

    print("\nInset (a): DRAM latency sweep at 16 TBps")
    lat = scenarios.get("fig7-dram-latency").run()
    for lat_ns, pf in zip(
        lat.axis("system.dram_latency_ns"), lat.series("achieved_pflops_per_pu")
    ):
        print(f"  {lat_ns:5.0f} ns -> {pf:.3f} PFLOP/s/SPU")

    gpu_ref = scenarios.get("fig7-gpu").run()
    print("\nInset (b): batch sweep at 16 TBps (GPU reference: "
          f"{gpu_ref.series('latency')[0]:.2f} s at B=8)")
    batch_sweep = scenarios.get("fig7-batch").run()
    for b, latency, pf in zip(
        batch_sweep.axis("workload.batch"),
        batch_sweep.series("latency"),
        batch_sweep.series("achieved_pflops_per_pu"),
    ):
        print(f"  B={b:4d}: latency {latency:6.3f} s, {pf:.3f} PFLOP/s/SPU")

    print("\n=== Fig. 8a: single-blade inference speed-up vs 64 H100s (B=8) ===")
    fig8a = scenarios.get("fig8-models").run()
    for name, speedup in zip(
        fig8a.axis("workload.model"), fig8a.series("speedup")
    ):
        print(f"  {name:14s} {speedup:5.1f}x   (paper: 8.9-10.6x band)")

    print("\n=== Fig. 8b: Llama-405B speed-up & KV cache vs batch ===")
    fig8b = scenarios.get("fig8-batch").run()
    cap = scenarios.get("fig8-batch").ref_system.build().total_memory_capacity
    print(f"  64-GPU memory capacity: {cap / 1e12:.2f} TB")
    for b, speedup, kv in zip(
        fig8b.axis("workload.batch"),
        fig8b.series("speedup"),
        fig8b.series("kv_cache_bytes"),
    ):
        print(
            f"  B={b:4d}: speed-up {speedup:5.1f}x, KV cache "
            f"{kv / 1e12:5.2f} TB ({kv / cap * 100:5.1f}% of GPU capacity)"
        )

    print("\n=== Sec. VI: fitting the KV cache in the blade L2 (~4.19 GB) ===")
    study = l2_kv_cache_study()
    for entry in study.entries:
        verdict = "fits" if entry.fits_l2 else "does NOT fit"
        print(
            f"  {entry.model_name:11s} KV {entry.kv_cache_bytes / 1e9:5.1f} GB "
            f"{verdict}; K/V GEMV speed-up "
            f"{entry.kv_gemm_speedup_with_overhead:.1f}x-"
            f"{entry.kv_gemm_speedup:.1f}x (paper estimate: 2-4x, "
            "depending on kernel-launch overhead)"
        )


if __name__ == "__main__":
    main()
