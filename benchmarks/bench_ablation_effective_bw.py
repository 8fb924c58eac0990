"""Experiment A1 — ablation of the effective-bandwidth (BDP) model.

README "Substitutions" #7 models limited memory-level parallelism:
``1/bw_eff = 1/bw + latency/outstanding_bytes``.  This ablation shows the
term is what produces the paper's two latency observations (Fig. 7):
saturation of the bandwidth sweep beyond ~8 TBps, and the steady
throughput degradation with DRAM latency.  Removing the limit
(``outstanding_bytes=None``) makes the sweep keep scaling and flattens the
latency sensitivity.
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.config import scd_blade_config
from repro.core.model import Optimus
from repro.memory.hierarchy import MemoryLevel
from repro.parallel.mapper import map_inference
from repro.workloads.llm import LLAMA_405B


def _system_with_outstanding(bandwidth_tbps: float, outstanding: float | None):
    system = scd_blade_config(bandwidth_tbps).build()
    accel = system.accelerator
    dram = accel.hierarchy["DRAM"]
    hierarchy = accel.hierarchy.replace_level(
        "DRAM", replace(dram, outstanding_bytes=outstanding)
    )
    return replace(system, accelerator=accel.with_hierarchy(hierarchy))


def _latency(system) -> float:
    return (
        Optimus(system)
        .evaluate_inference(map_inference(LLAMA_405B, system, batch=8))
        .latency
    )


def test_bdp_limit_creates_saturation(run_once):
    def sweep():
        rows = []
        for bw in (8, 16, 32, 64):
            with_limit = _latency(_system_with_outstanding(bw, 512 * 1024))
            without = _latency(_system_with_outstanding(bw, None))
            rows.append((bw, with_limit, without))
        return rows

    rows = run_once(sweep)
    print()
    print(f"{'BW':>4s} {'latency (BDP)':>14s} {'latency (no BDP)':>17s}")
    for bw, with_limit, without in rows:
        print(f"{bw:4d} {with_limit:14.3f} {without:17.3f}")

    # The BDP limit always costs time at these bandwidths.
    assert all(w > wo for _, w, wo in rows)
    # Stronger: the 32->64 TBps step keeps paying off without the limit but
    # flattens with it (the paper's "DRAM latency bound limit").
    gain_with = rows[-2][1] / rows[-1][1]
    gain_without = rows[-2][2] / rows[-1][2]
    assert gain_without > gain_with
    assert gain_with < 1.25


def test_bdp_limit_creates_latency_sensitivity(run_once):
    def sweep():
        base = _system_with_outstanding(16, 512 * 1024)
        free = _system_with_outstanding(16, None)
        return (
            _latency(base.with_dram_latency(10e-9)),
            _latency(base.with_dram_latency(200e-9)),
            _latency(free.with_dram_latency(10e-9)),
            _latency(free.with_dram_latency(200e-9)),
        )

    l10, l200, f10, f200 = run_once(sweep)
    print(f"\n  BDP:    10ns {l10:.3f}s -> 200ns {l200:.3f}s ({l200 / l10:.1f}x)")
    print(f"  no BDP: 10ns {f10:.3f}s -> 200ns {f200:.3f}s ({f200 / f10:.2f}x)")
    # With the limit, 200 ns costs several x; without it, latency is nearly
    # invisible (only the fixed per-kernel term remains).
    assert l200 / l10 > 3.0
    assert f200 / f10 < 1.2
