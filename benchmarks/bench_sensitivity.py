"""Experiment A4 — tornado sensitivity of the headline inference speed-up.

Perturbs every calibrated-but-unpublished parameter (README
"Substitutions" #7/#8) across generous ranges and asserts the paper's
qualitative conclusion — SCD inference is many times faster than the GPU
baseline — survives all of them.
"""

from __future__ import annotations

from repro.scenarios.registry import SENSITIVITY_KNOBS, sensitivity_scenario


def test_speedup_sensitivity(run_once):
    result = run_once(sensitivity_scenario(io_tokens=(100, 60)).run)
    # Grid layout: [baseline, knob1@low, knob1@high, knob2@low, ...].
    baseline, *perturbed = result.series("speedup")
    # One tornado bar per knob: (name, low, high, speed-up at low, at high).
    bars = [
        (name, low, high, perturbed[2 * i], perturbed[2 * i + 1])
        for i, (name, _, low, high) in enumerate(SENSITIVITY_KNOBS)
    ]
    # Widest bar first (the tornado ordering).
    bars.sort(key=lambda bar: abs(bar[4] - bar[3]), reverse=True)

    print(f"\n  baseline speed-up: {baseline:.1f}x")
    for name, low, high, at_low, at_high in bars:
        print(
            f"  {name:34s} [{low:g}, {high:g}] -> speed-up "
            f"{at_low:.1f}x .. {at_high:.1f}x"
        )

    # The paper's band at the baseline calibration.
    assert 8.0 <= baseline <= 12.0
    # Robustness: under EVERY perturbation the conclusion holds with margin.
    for name, _, _, at_low, at_high in bars:
        assert min(at_low, at_high) > 4.0, name
    # The memory-path knobs dominate (BDP budget / streaming efficiency),
    # as expected for a memory-bound workload; the communication and launch
    # knobs are second-order.
    swings = {name: abs(at_high - at_low) for name, _, _, at_low, at_high in bars}
    dominant = bars[0][0]
    assert "stream" in dominant or "outstanding" in dominant
    comm_knobs = [name for name in swings if "alpha" in name or "launch" in name]
    assert all(swings[name] < swings[dominant] for name in comm_knobs)
