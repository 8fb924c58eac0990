"""The system abstraction consumed by the Optimus performance model.

An :class:`Accelerator` is one processing unit (an SPU or a GPU) as the
roofline sees it: peak compute, a memory hierarchy, a communication fabric
towards its peers, and software overheads.  A :class:`SystemSpec` is ``n``
identical accelerators.

Both are frozen dataclasses with ``with_*`` helpers so that parameter sweeps
(DRAM bandwidth/latency, fabric bandwidth) are cheap, explicit and
side-effect free — the idiom every figure generator uses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Union

from repro.errors import require_fraction, require_non_negative, require_positive
from repro.interconnect.collectives import Fabric, HierarchicalFabric
from repro.memory.hierarchy import MemoryHierarchy

AnyFabric = Union[Fabric, HierarchicalFabric]


@dataclass(frozen=True)
class StreamEfficiency:
    """Fraction of a memory level's bandwidth a kernel actually extracts.

    GPUs stream fat GEMMs near peak HBM bandwidth but extract far less on
    thin, low-arithmetic-intensity kernels (batch-8 GEMVs, element-wise ops)
    because of partial cache lines, strided weight shards under tensor
    parallelism, and occupancy limits.  The SCD design's banked JSRAM and
    wide cryo-DRAM datalink stream at near-full rate regardless — one of the
    paper's core claims ("SCD systems benefit more where the data transfer
    overhead is larger").

    Efficiency ramps smoothly from ``low_ai_efficiency`` (intensity → 0)
    towards ``high_ai_efficiency`` (intensity → ∞) with half-ramp scale
    ``ai_threshold``::

        eff(AI) = low + (high - low) · AI / (AI + ai_threshold)
    """

    low_ai_efficiency: float = 1.0
    high_ai_efficiency: float = 1.0
    ai_threshold: float = 64.0

    def __post_init__(self) -> None:
        require_fraction("low_ai_efficiency", self.low_ai_efficiency)
        require_fraction("high_ai_efficiency", self.high_ai_efficiency)
        require_positive("ai_threshold", self.ai_threshold)
        if self.low_ai_efficiency == 0.0 or self.high_ai_efficiency == 0.0:
            raise ValueError("stream efficiencies must be > 0")

    def factor(self, arithmetic_intensity: float) -> float:
        """Bandwidth fraction for a kernel of the given intensity."""
        if arithmetic_intensity == float("inf"):
            return self.high_ai_efficiency
        ramp = arithmetic_intensity / (arithmetic_intensity + self.ai_threshold)
        return self.low_ai_efficiency + (
            self.high_ai_efficiency - self.low_ai_efficiency
        ) * ramp


@dataclass(frozen=True)
class Accelerator:
    """One processing unit.

    Parameters
    ----------
    name:
        "SPU" or "H100".
    peak_flops:
        Peak throughput at the working precision, FLOP/s (the paper compares
        the headline sparse-capable numbers: 2.45 P for the SPU, 0.9895 P
        for the H100).
    compute_efficiency:
        Achievable fraction of peak on compute-bound kernels (the paper's
        80 % MAC utilization).
    hierarchy:
        Per-accelerator memory hierarchy, nearest level first, main memory
        last.
    memory_capacity_bytes:
        Main-memory capacity attributable to this accelerator (capacity
        checks for weights + optimizer state + KV cache).
    fabric:
        Communication fabric towards peer accelerators.
    kernel_overhead:
        Fixed software/dispatch overhead per kernel launch, seconds.
    """

    name: str
    peak_flops: float
    compute_efficiency: float
    hierarchy: MemoryHierarchy
    memory_capacity_bytes: float
    fabric: AnyFabric
    kernel_overhead: float = 0.0
    stream_efficiency: StreamEfficiency = StreamEfficiency()

    def __post_init__(self) -> None:
        require_positive("peak_flops", self.peak_flops)
        require_fraction("compute_efficiency", self.compute_efficiency)
        require_positive("memory_capacity_bytes", self.memory_capacity_bytes)
        require_non_negative("kernel_overhead", self.kernel_overhead)

    @property
    def sustained_flops(self) -> float:
        """Compute roof used by the roofline, FLOP/s."""
        return self.peak_flops * self.compute_efficiency

    @property
    def main_memory(self):
        """The farthest (main-memory) level of the hierarchy."""
        return self.hierarchy.last

    def ridge_intensity(self, level_name: str | None = None) -> float:
        """Roofline ridge point (FLOPs/byte) against a memory level."""
        level = (
            self.hierarchy.last if level_name is None else self.hierarchy[level_name]
        )
        return self.sustained_flops / level.effective_bandwidth

    # -- sweep helpers ------------------------------------------------------
    def with_dram_bandwidth(self, bandwidth: float) -> "Accelerator":
        """Copy with the main-memory nominal bandwidth replaced."""
        hierarchy = self.hierarchy.with_level_bandwidth(
            self.hierarchy.last.name, bandwidth
        )
        return replace(self, hierarchy=hierarchy)

    def with_dram_latency(self, latency: float) -> "Accelerator":
        """Copy with the main-memory access latency replaced."""
        hierarchy = self.hierarchy.with_level_latency(
            self.hierarchy.last.name, latency
        )
        return replace(self, hierarchy=hierarchy)

    def with_hierarchy(self, hierarchy: MemoryHierarchy) -> "Accelerator":
        """Copy with a different memory hierarchy (policy studies)."""
        return replace(self, hierarchy=hierarchy)


@dataclass(frozen=True)
class SystemSpec:
    """``n`` identical accelerators plus a name for reports."""

    name: str
    accelerator: Accelerator
    n_accelerators: int

    def __post_init__(self) -> None:
        require_positive("n_accelerators", self.n_accelerators)

    @property
    def total_peak_flops(self) -> float:
        """System peak, FLOP/s."""
        return self.n_accelerators * self.accelerator.peak_flops

    @property
    def total_memory_capacity(self) -> float:
        """System main-memory capacity, bytes (the paper's 64×80 GB bar)."""
        return self.n_accelerators * self.accelerator.memory_capacity_bytes

    @property
    def total_memory_bandwidth(self) -> float:
        """Aggregate nominal main-memory bandwidth, bytes/s."""
        return (
            self.n_accelerators * self.accelerator.hierarchy.last.bandwidth
        )

    # -- sweep helpers -----------------------------------------------------------
    def with_dram_bandwidth(self, bandwidth_per_accelerator: float) -> "SystemSpec":
        """Copy with per-accelerator main-memory bandwidth replaced."""
        return replace(
            self,
            accelerator=self.accelerator.with_dram_bandwidth(
                bandwidth_per_accelerator
            ),
        )

    def with_dram_latency(self, latency: float) -> "SystemSpec":
        """Copy with main-memory latency replaced."""
        return replace(
            self, accelerator=self.accelerator.with_dram_latency(latency)
        )

    def with_n(self, n_accelerators: int) -> "SystemSpec":
        """Copy with a different accelerator count."""
        return replace(self, n_accelerators=n_accelerators)


__all__ = ["Accelerator", "SystemSpec", "AnyFabric"]
