"""The high-throughput compute die: a banked bf16 MAC array (paper Sec. III).

"A regular array of bf16 MAC units is used for a TPU-like high-throughput
compute core.  Our bf16 MAC consists of ~8k JJs. ... The peak floating point
(bf16) performance achieved is ~2.45 PetaFLOPs ... at 80 % utilization of the
MACs in a 144 mm² die footprint."

The die is sized bottom-up: JJ budget = device density × area; the MAC count
follows from the per-MAC junction cost (the paper's ~8k JJ,
:data:`PAPER_MAC_JJ`, by default; the EDA flow's synthesized MAC, which
:func:`mac_jj_from_flow` returns, lands within 7 % of it and can be passed
as ``mac_jj``) and the fraction of the die granted to the MAC array.  Note
the paper's "400k MACs" is inconsistent with both its own peak number and the
JJ budget (README "Substitutions" #3); the bottom-up count of ~41k MACs at
30 GHz × 2 ops reproduces the 2.45 PFLOP/s headline exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require_fraction, require_positive
from repro.tech.process import SCD_NBTIN, SCDProcess


#: Default per-MAC junction cost: the paper's "~8k JJs".  The EDA flow's
#: synthesized carry-save MAC lands at 8544 datapath JJs (see
#: ``repro.eda.designs.mac_bf16``), validating this figure.
PAPER_MAC_JJ = 8000.0


@dataclass(frozen=True)
class ComputeDie:
    """The SPU's high-throughput compute die."""

    process: SCDProcess = SCD_NBTIN
    area_mm2: float = 144.0
    mac_jj: float = PAPER_MAC_JJ
    #: Die fraction granted to the MAC array; the rest holds operand
    #: registers (HP JSRAM), accumulator resolution, and distribution.
    mac_array_fraction: float = 0.57
    utilization: float = 0.80
    ops_per_mac: int = 2

    def __post_init__(self) -> None:
        require_positive("area_mm2", self.area_mm2)
        require_positive("mac_jj", self.mac_jj)
        require_fraction("mac_array_fraction", self.mac_array_fraction)
        require_fraction("utilization", self.utilization)
        require_positive("ops_per_mac", self.ops_per_mac)

    @property
    def jj_budget(self) -> float:
        """Total junctions available on the die."""
        return self.process.devices_in_area(self.area_mm2)

    @property
    def mac_count(self) -> int:
        """Number of MAC units that fit the array budget (~41k baseline)."""
        return int(self.jj_budget * self.mac_array_fraction / self.mac_jj)

    @property
    def peak_flops(self) -> float:
        """Peak bf16 throughput, FLOP/s (~2.45 PFLOP/s baseline)."""
        return self.mac_count * self.process.operating_frequency * self.ops_per_mac

    @property
    def sustained_flops(self) -> float:
        """Peak × the paper's 80 % MAC utilization."""
        return self.peak_flops * self.utilization

    @property
    def power_watts(self) -> float:
        """Dynamic switching power of the MAC array at full rate.

        Each MAC switches ~its JJ count once per cycle at ``E = I_c·Φ₀`` per
        event — the 'fraction of the on-chip power' headline of the paper's
        intro (a few watts at 4 K for petaflops).
        """
        events_per_second = (
            self.mac_count * self.mac_jj * self.process.operating_frequency
        )
        return events_per_second * self.process.switching_energy


def mac_jj_from_flow() -> float:
    """Synthesize the design-database MAC and return its datapath JJ count.

    Slower than using :data:`PAPER_MAC_JJ` (runs the full EDA flow) but ties
    the architecture layer to the logic layer; used by the cross-layer tests.
    """
    from repro.eda.designs import mac_bf16
    from repro.eda.flow import run_flow

    return float(run_flow(mac_bf16()).datapath_jj)


__all__ = ["ComputeDie", "PAPER_MAC_JJ", "mac_jj_from_flow"]
