"""Bump/interposer accounting for the Fig. 3c packaging tables.

The paper derives its chip-to-chip and interposer bandwidths from bump
counts: "bump density 4 %, bump redundancy 40 % and bandwidth per wire at
30 Gbps (30 GHz operating frequency)".  For a 12×12 mm die with 10 µm bumps,
4 % area coverage gives ~73.3k bump sites; removing the 40 % redundancy
leaves the table's 4.40e4 usable bumps.  The reported 73.3 TBps then implies
an additional ~4/9 signal utilization (dual-rail pairs plus power/ground
share), which we expose as ``signal_fraction`` calibrated to the table
(README "Substitutions" #6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import require_fraction, require_positive
from repro.units import MM, UM


@dataclass(frozen=True)
class BumpField:
    """A bump array on a die or interposer edge-to-edge region."""

    name: str
    width: float = 12 * MM
    height: float = 12 * MM
    bump_pitch: float = 30 * UM
    bump_diameter: float = 10 * UM
    area_fraction: float = 0.04
    redundancy: float = 0.40
    signal_fraction: float = 4.0 / 9.0
    bit_rate_per_wire: float = 30e9  # 30 Gbit/s at the 30 GHz clock

    def __post_init__(self) -> None:
        require_positive("width", self.width)
        require_positive("height", self.height)
        require_positive("bump_pitch", self.bump_pitch)
        require_positive("bump_diameter", self.bump_diameter)
        require_fraction("area_fraction", self.area_fraction)
        require_fraction("redundancy", self.redundancy)
        require_fraction("signal_fraction", self.signal_fraction)
        require_positive("bit_rate_per_wire", self.bit_rate_per_wire)

    @property
    def area(self) -> float:
        """Field area, m²."""
        return self.width * self.height

    @property
    def area_mm2(self) -> float:
        """Field area, mm²."""
        return self.area / 1e-6

    @property
    def bump_area(self) -> float:
        """Single bump area, m²."""
        return math.pi * (self.bump_diameter / 2.0) ** 2

    @property
    def bump_sites(self) -> int:
        """Physical bump sites at the given area coverage."""
        return int(self.area * self.area_fraction / self.bump_area)

    @property
    def usable_bumps(self) -> int:
        """Bumps after redundancy (the Fig. 3c "Total bumps" column)."""
        return int(self.bump_sites * (1.0 - self.redundancy))

    @property
    def signal_wires(self) -> float:
        """Effective signal wires after dual-rail + power/ground allocation."""
        return self.usable_bumps * self.signal_fraction

    @property
    def bandwidth(self) -> float:
        """Total bandwidth, bytes/s (the Fig. 3c "Total bandwidth" column)."""
        return self.signal_wires * self.bit_rate_per_wire / 8.0

    @property
    def pitch_limited_sites(self) -> int:
        """Upper bound on sites from pitch alone (sanity check)."""
        per_row = int(self.width / self.bump_pitch)
        per_col = int(self.height / self.bump_pitch)
        return per_row * per_col


def chip_to_chip_link() -> BumpField:
    """Fig. 3c "Chip-to-Chip link (Intra Blade communication)": 12 mm die,
    4.40e4 bumps, 73.3 TBps."""
    return BumpField(name="chip-to-chip link")


def interposer_4k() -> BumpField:
    """Fig. 3c "Silicon 4K interposer": 120 mm, 4.40e6 bumps, 7.33 PBps."""
    return BumpField(name="silicon 4K interposer", width=120 * MM, height=120 * MM)


__all__ = ["BumpField", "chip_to_chip_link", "interposer_4k"]
