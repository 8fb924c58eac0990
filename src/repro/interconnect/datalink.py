"""The 4K↔77K main-memory datalink (paper Sec. III, Fig. 2).

A custom DC-coupled interface carries data between the 4 K compute domain and
the 77 K cryo-DRAM domain over Cu transmission lines across a glass bridge:
30 mm of Cu plus 30 mm of NbTiN per direction, with amplification and PHY
translation at both ends (100 mV drive at 77 K, 4 mV at 4 K).

Fig. 2b's baseline: 20,000 downlink wires (towards 4 K) and 10,000 uplink
wires, "1 Gbps" per wire, headline bandwidth 30 TBps bidirectional (20 down /
10 up).  Note the unit tension: 20,000 × 1 Gbit/s is 2.5 TByte/s, so the
headline only holds if the table's rate is read per-byte (or as an 8-lane
group).  We expose ``byte_rate_per_wire`` (default 1 GB/s) so the paper's
headline numbers are reproduced and the ambiguity is a visible parameter
(README "Substitutions" #5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import require_positive
from repro.units import GB, MM, NS, UM


@dataclass(frozen=True)
class DatalinkWireSpec:
    """One direction of the datalink (Fig. 2b rows)."""

    direction: str
    wire_width: float
    wire_thickness: float
    wire_pitch: float
    cu_length: float
    nbtin_length: float
    byte_rate_per_wire: float
    n_wires: int
    metal_layers: int

    def __post_init__(self) -> None:
        require_positive("wire_width", self.wire_width)
        require_positive("wire_thickness", self.wire_thickness)
        require_positive("wire_pitch", self.wire_pitch)
        require_positive("cu_length", self.cu_length)
        require_positive("nbtin_length", self.nbtin_length)
        require_positive("byte_rate_per_wire", self.byte_rate_per_wire)
        require_positive("n_wires", self.n_wires)
        require_positive("metal_layers", self.metal_layers)

    @property
    def bandwidth(self) -> float:
        """Aggregate bandwidth of this direction, bytes/s."""
        return self.n_wires * self.byte_rate_per_wire

    @property
    def total_length(self) -> float:
        """End-to-end wire length, metres."""
        return self.cu_length + self.nbtin_length

    @property
    def edge_width(self) -> float:
        """Interposer edge length consumed by this wire group, metres
        (single metal layer; divide across ``metal_layers``)."""
        return self.n_wires * self.wire_pitch / self.metal_layers


@dataclass(frozen=True)
class DatalinkSpec:
    """The full bidirectional 4K↔77K datalink."""

    downlink: DatalinkWireSpec
    uplink: DatalinkWireSpec
    #: One-way signalling latency (flight + PHY + clock recovery), seconds.
    latency: float = 5 * NS

    @property
    def downlink_bandwidth(self) -> float:
        """Towards 4 K (reads from cryo-DRAM), bytes/s."""
        return self.downlink.bandwidth

    @property
    def uplink_bandwidth(self) -> float:
        """Towards 77 K (writes to cryo-DRAM), bytes/s."""
        return self.uplink.bandwidth

    @property
    def bidirectional_bandwidth(self) -> float:
        """Headline combined bandwidth (paper: 30 TBps)."""
        return self.downlink_bandwidth + self.uplink_bandwidth

    def scaled(self, factor: float) -> "DatalinkSpec":
        """Scale wire counts by ``factor`` (the paper notes the link "can be
        increased or decreased based on the power budget, available metal
        layers, channel reach, reliability, noise & dispersion")."""
        require_positive("factor", factor)
        return DatalinkSpec(
            downlink=replace(
                self.downlink, n_wires=max(1, round(self.downlink.n_wires * factor))
            ),
            uplink=replace(
                self.uplink, n_wires=max(1, round(self.uplink.n_wires * factor))
            ),
            latency=self.latency,
        )


def baseline_datalink(byte_rate_per_wire: float = 1 * GB) -> DatalinkSpec:
    """Fig. 2b's baseline datalink: 20 TBps down / 10 TBps up."""
    downlink = DatalinkWireSpec(
        direction="downlink (towards 4K)",
        wire_width=6.2 * UM,
        wire_thickness=0.5 * UM,
        wire_pitch=30 * UM,
        cu_length=30 * MM,
        nbtin_length=30 * MM,
        byte_rate_per_wire=byte_rate_per_wire,
        n_wires=20_000,
        metal_layers=2,
    )
    uplink = DatalinkWireSpec(
        direction="uplink (towards 77K)",
        wire_width=62 * UM,
        wire_thickness=0.5 * UM,
        wire_pitch=90 * UM,
        cu_length=30 * MM,
        nbtin_length=30 * MM,
        byte_rate_per_wire=byte_rate_per_wire,
        n_wires=10_000,
        metal_layers=8,
    )
    return DatalinkSpec(downlink=downlink, uplink=uplink)


__all__ = ["DatalinkWireSpec", "DatalinkSpec", "baseline_datalink"]
