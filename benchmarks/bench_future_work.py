"""Experiments beyond the paper: its three declared future-work directions.

1. **Power breakdown** — device-level and wall-plug energy per training
   batch, SCD vs GPU, including the 4 K/77 K cooling tax.
2. **Multi-blade scaling** — "we expect the performance to scale with the
   number of blades".
3. **JSRAM as main memory** — "the impact of huge JSRAM capacity on LLM
   inference exploiting its massive bandwidth and negligible latency".
"""

from __future__ import annotations

from repro import scenarios
from repro.analysis.figures import jsram_main_memory_study
from repro.arch import build_blade, build_gpu_system
from repro.core.model import Optimus
from repro.parallel.mapper import map_training
from repro.parallel.strategy import ParallelConfig
from repro.power import gpu_power_model, scd_power_model
from repro.units import GB, TBPS
from repro.workloads.llm import GPT3_175B


def test_power_breakdown(run_once):
    def measure():
        blade = build_blade().system().with_dram_bandwidth(16 * TBPS)
        gpu = build_gpu_system(64)
        parallel = ParallelConfig(8, 8, 1)
        scd_report = Optimus(blade).evaluate_training(
            map_training(GPT3_175B, blade, parallel, 64)
        )
        gpu_report = Optimus(gpu).evaluate_training(
            map_training(GPT3_175B, gpu, parallel, 64)
        )
        scd_pm, gpu_pm = scd_power_model(blade), gpu_power_model(gpu)
        scd_e = scd_pm.training_energy(
            scd_report, *scd_pm.estimate_training_traffic(scd_report)
        )
        gpu_e = gpu_pm.training_energy(
            gpu_report, *gpu_pm.estimate_training_traffic(gpu_report)
        )
        return scd_e, gpu_e

    scd_e, gpu_e = run_once(measure)
    print(
        f"\n  GPT3-175B energy/batch: SCD {scd_e.total_device / 1e3:.2f} kJ device"
        f" / {scd_e.total_wall / 1e3:.1f} kJ wall | GPU "
        f"{gpu_e.total_device / 1e3:.1f} kJ device / {gpu_e.total_wall / 1e3:.1f} kJ wall"
    )
    device_gain = gpu_e.total_device / scd_e.total_device
    wall_gain = gpu_e.total_wall / scd_e.total_wall
    print(f"  device-level gain {device_gain:.0f}x, wall-plug gain {wall_gain:.1f}x")
    # Intro claims: ~100x lower on-chip power; a real (but much smaller)
    # advantage must survive the cryocooler tax.
    assert 30 <= device_gain <= 300
    assert wall_gain > 1.5


def test_multi_blade_scaling(run_once):
    result = run_once(scenarios.get("multi-blade-scaling").run)
    tokens = dict(
        zip(result.axis("system.n_blades"), result.series("tokens_per_second"))
    )
    print()
    for n_blades, tps in tokens.items():
        print(f"  {n_blades} blade(s): {tps:,.0f} tokens/s")
    # Near-linear data-parallel scaling across blades.
    assert tokens[2] / tokens[1] > 1.9
    assert tokens[4] / tokens[1] > 3.7


def test_jsram_main_memory(run_once):
    study = run_once(
        jsram_main_memory_study,
    )
    print()
    for entry in study.entries:
        print(
            f"  {entry.model_name:11s} @ {entry.jsram_capacity_bytes / 1e9:5.1f} GB JSRAM: "
            f"footprint {entry.footprint_bytes / 1e9:5.1f} GB fits={entry.fits} "
            f"speed-up {entry.speedup:.2f}x"
        )
    fitting = [e for e in study.entries if e.fits]
    assert fitting
    # Serving weights+KV from JSRAM at torus bandwidth beats cryo-DRAM.
    assert all(e.speedup > 1.3 for e in fitting)
    # Capacity gates the benefit: the 4.19 GB baseline pool fits nothing.
    baseline = [e for e in study.entries if e.jsram_capacity_bytes < 5 * GB]
    assert all(not e.fits for e in baseline)
