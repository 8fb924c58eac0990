#!/usr/bin/env python3
"""Design-space exploration beyond the paper's baseline.

Uses the library as a downstream architect would:

* rank parallelization strategies for GPT3-76B on the blade via the
  registered `dse` scenario (the paper's "we assess the most optimal
  mapping"),
* scale the blade (4x4 ... 10x10 SPUs; the paper caps at ~100 per blade),
* trade datalink wire count against achieved training throughput.

The custom grid studies run through the declarative ``repro.analysis.sweep``
driver.

Run:  python examples/design_space_exploration.py
"""

from repro import scenarios
from repro.analysis.figures import TRAINING_PARALLEL
from repro.analysis.sweep import SweepGrid, run_sweep
from repro.arch import build_blade
from repro.core import Optimus, search_strategies
from repro.core.optimizer import StrategyResult
from repro.parallel import map_training
from repro.units import TBPS
from repro.workloads import GPT3_76B


def strategy_search() -> None:
    """Rank (TP, PP, DP) decompositions for GPT3-76B on 64 SPUs."""
    result = scenarios.get("dse").run()
    print("=== Strategy search: GPT3-76B, B=64, 64 SPUs @16 TBps ===")
    print(f"{'TP':>3s} {'PP':>3s} {'DP':>3s} {'s/batch':>9s} {'PF/SPU':>7s}")
    for entry in result.strategies[:8]:
        p = entry.parallel
        print(
            f"{p.tensor_parallel:3d} {p.pipeline_parallel:3d} "
            f"{p.data_parallel:3d} {entry.time_per_batch:9.3f} "
            f"{entry.report.achieved_flops_per_pu / 1e15:7.2f}"
        )
    best = result.strategies[0].parallel
    print(
        f"best: TP={best.tensor_parallel} PP={best.pipeline_parallel} "
        f"DP={best.data_parallel} (paper's fixed setup is TP=8/PP=8/DP=1)"
    )


def _blade_scaling_point(side: int, batch: int) -> tuple[float, int, StrategyResult]:
    """One blade-scaling grid point: best strategy on a side×side blade."""
    blade = build_blade(nx=side, ny=side)
    system = blade.system().with_dram_bandwidth(16 * TBPS)
    # Let the mapper pick the best decomposition for this SPU count.
    best = search_strategies(GPT3_76B, system, batch=batch, max_candidates=12)[0]
    return blade.dram_bandwidth_per_spu, system.n_accelerators, best


def blade_scaling() -> None:
    """Scale the SPU array; DRAM and network BW scale with it (Sec. IV-C)."""
    print("\n=== Blade scaling: GPT3-76B training, B=128 ===")
    print(
        f"{'array':>7s} {'SPUs':>5s} {'TBps/SPU':>9s} {'TP/PP/DP':>9s} "
        f"{'s/batch':>9s} {'PF/SPU':>7s}"
    )
    sweep = run_sweep(
        _blade_scaling_point,
        SweepGrid.product(side=(4, 8, 10)),
        common={"batch": 128},
    )
    for point in sweep.points:
        side = point["side"]
        bw_per_spu, n_spus, best = point.value
        p = best.parallel
        print(
            f"{side}x{side:>4d} {n_spus:5d} "
            f"{bw_per_spu / 1e12:9.2f} "
            f"{p.tensor_parallel:3d}/{p.pipeline_parallel}/{p.data_parallel} "
            f"{best.time_per_batch:9.3f} "
            f"{best.report.achieved_flops_per_pu / 1e15:7.2f}"
        )


def _datalink_scaling_point(factor: float, batch: int) -> tuple[float, float]:
    """One datalink grid point: (bandwidth per SPU, seconds per batch)."""
    base_blade = build_blade()
    scaled = base_blade.datalink.scaled(factor)
    bw_per_spu = min(
        scaled.bidirectional_bandwidth,
        base_blade.dram.internal_bandwidth * factor,
    ) / base_blade.n_spus
    system = base_blade.system().with_dram_bandwidth(bw_per_spu)
    report = Optimus(system).evaluate_training(
        map_training(GPT3_76B, system, TRAINING_PARALLEL, batch=batch)
    )
    return bw_per_spu, report.time_per_batch


def datalink_scaling() -> None:
    """Scale datalink wires: the paper notes the 30 TBps baseline 'can be
    increased or decreased based on the power budget, metal layers, ...'."""
    print("\n=== Datalink scaling: GPT3-76B training, B=128, 8x8 blade ===")
    print(f"{'wires x':>8s} {'TBps/SPU':>9s} {'s/batch':>9s}")
    sweep = run_sweep(
        _datalink_scaling_point,
        SweepGrid.product(factor=(1.0, 4.0, 16.0, 34.0)),
        common={"batch": 128},
    )
    for point in sweep.points:
        bw_per_spu, time_per_batch = point.value
        print(f"{point['factor']:8.0f} {bw_per_spu / 1e12:9.2f} {time_per_batch:9.3f}")


def main() -> None:
    strategy_search()
    blade_scaling()
    datalink_scaling()


if __name__ == "__main__":
    main()
