"""Sensitivity of the headline results to the calibrated parameters.

The reproduction calibrates a handful of knobs the paper does not publish
(DESIGN.md substitutions #7 and #8): the GPU's low-intensity HBM streaming
efficiency, the collective α's, the kernel-dispatch overheads, and the SCD
bandwidth-delay-product budget.  An analytical-model result is only worth
quoting if it survives perturbation of those knobs, so this module sweeps
each one across a generous range and reports the induced swing of the
Fig. 8 inference speed-up (Llama-405B, B=8) — a tornado chart in data form.

The tornado is one declarative scenario
(:func:`repro.scenarios.registry.sensitivity_scenario`): an explicit grid
whose first point is the baseline and whose remaining points each perturb
exactly one knob (:data:`~repro.scenarios.registry.SENSITIVITY_KNOBS`) to
one endpoint.  This module reshapes the extracted ``speedup`` series into
the tornado entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scenarios.registry import SENSITIVITY_KNOBS, sensitivity_scenario
from repro.scenarios.runner import run_scenario
from repro.units import TBPS
from repro.workloads.llm import LLAMA_405B, LLMConfig


@dataclass(frozen=True)
class SensitivityEntry:
    """Speed-up swing induced by one parameter's perturbation range."""

    parameter: str
    low_setting: float
    high_setting: float
    speedup_at_low: float
    speedup_at_high: float
    baseline_speedup: float

    @property
    def swing(self) -> float:
        """Absolute speed-up range width across the perturbation."""
        return abs(self.speedup_at_high - self.speedup_at_low)

    @property
    def worst_case(self) -> float:
        """The least favourable speed-up in the range."""
        return min(self.speedup_at_low, self.speedup_at_high)


@dataclass(frozen=True)
class SensitivityResult:
    """All tornado bars plus the baseline."""

    baseline_speedup: float
    entries: tuple[SensitivityEntry, ...]

    def sorted_by_swing(self) -> list[SensitivityEntry]:
        """Widest bar first (the tornado ordering)."""
        return sorted(self.entries, key=lambda e: e.swing, reverse=True)


def inference_speedup_sensitivity(
    model: LLMConfig = LLAMA_405B,
    batch: int = 8,
    io_tokens: tuple[int, int] = (200, 200),
    dram_bandwidth_per_spu: float = 16 * TBPS,
) -> SensitivityResult:
    """Perturb each calibrated knob and measure the Fig. 8 speed-up swing."""
    scenario = sensitivity_scenario(
        model, batch, io_tokens, dram_bandwidth_per_spu / TBPS
    )
    result = run_scenario(scenario)
    speedups = result.series("speedup")

    # Grid layout (see sensitivity_scenario): [baseline,
    # knob1@low, knob1@high, knob2@low, knob2@high, ...].
    baseline = speedups[0]
    entries = []
    for i, (name, _, low, high) in enumerate(SENSITIVITY_KNOBS):
        entries.append(
            SensitivityEntry(
                parameter=name,
                low_setting=low,
                high_setting=high,
                speedup_at_low=speedups[1 + 2 * i],
                speedup_at_high=speedups[2 + 2 * i],
                baseline_speedup=baseline,
            )
        )
    return SensitivityResult(baseline_speedup=baseline, entries=tuple(entries))


__all__ = ["SensitivityEntry", "SensitivityResult", "inference_speedup_sensitivity"]
