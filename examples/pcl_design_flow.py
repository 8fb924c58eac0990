#!/usr/bin/env python3
"""Run the paper's design database through the Starling-like EDA flow.

Reproduces the logic-layer story of Fig. 1: every design is synthesized into
the PCL standard-cell library, converted to dual rail, legalized with
splitters, phase-balanced, placed — and then *functionally verified* by
simulating the final netlist against reference arithmetic.

The summary table is the same artifact the registered `pcl-flow` scenario
renders (`python -m repro run pcl-flow`); here the flow runs once and the
resulting netlists feed both the table and the verification.

The headline design is the bf16 MAC: its datapath lands near the paper's
"~8k JJs" (Sec. III), the per-MAC cost the SPU compute die is sized with.

Run:  python examples/pcl_design_flow.py
"""

import random

from repro.analysis.tables import PCL_FLOW_HEADERS, pcl_flow_table, render_columns
from repro.eda import designs, run_flow
from repro.pcl.simulate import simulate_bus


def verify_adder(report) -> str:
    """Check the 8-bit adder on random vectors through the final netlist."""
    rng = random.Random(1)
    for _ in range(20):
        a, b = rng.randrange(256), rng.randrange(256)
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["sum"] == a + b, (a, b, out)
    return "sum == a + b on 20 random vectors"


def verify_multiplier(report) -> str:
    """Check the 8-bit Wallace multiplier on random vectors."""
    rng = random.Random(2)
    for _ in range(20):
        a, b = rng.randrange(256), rng.randrange(256)
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["product"] == a * b, (a, b, out)
    return "product == a * b on 20 random vectors"


def verify_mac(report) -> str:
    """Check the carry-save bf16 MAC contract on random vectors."""
    widths = {
        "man_a": 8, "man_b": 8, "exp_a": 8, "exp_b": 8,
        "sign_a": 1, "sign_b": 1, "acc_s": 32, "acc_c": 32,
    }
    rng = random.Random(3)
    for _ in range(10):
        vals = {k: rng.randrange(1 << w) for k, w in widths.items()}
        out = simulate_bus(report.netlist, vals, widths)
        exp = vals["exp_a"] + vals["exp_b"]
        want = (
            vals["acc_s"] + vals["acc_c"]
            + ((vals["man_a"] * vals["man_b"]) << (exp & 0xF))
        ) % (1 << 32)
        got = (out["out_s"] + out["out_c"]) % (1 << 32)
        assert got == want, (vals, got, want)
    return "out_s + out_c == acc + (ma*mb << exp[3:0]) on 10 random vectors"


def main() -> None:
    reports = {
        name: run_flow(generator())
        for name, generator in designs.DESIGN_DATABASE.items()
    }
    print(render_columns(pcl_flow_table(reports), PCL_FLOW_HEADERS))

    print("\nFunctional verification of the legalized netlists:")
    print(f"  adder8     : {verify_adder(reports['adder8'])}")
    print(f"  multiplier8: {verify_multiplier(reports['multiplier8'])}")
    print(f"  mac_bf16   : {verify_mac(reports['mac_bf16'])}")

    mac = reports["mac_bf16"]
    print(
        f"\nbf16 MAC datapath: {mac.datapath_jj} JJ "
        f"(paper: ~8k JJ, the per-MAC cost that sizes the 2.45 PFLOP/s compute die)"
    )


if __name__ == "__main__":
    main()
