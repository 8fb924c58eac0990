"""The SCD Network Unit: blade-edge switch + shared-L2 stack (Sec. IV-A).

"The SNU is another vertical stack of dies with a base die serving as switch
for off-node or main-memory communications.  The JSRAM dies in each SNU
die-stack are composed of banked HD arrays and function as slices of the
shared and distributed L2 cache for all the high-throughput cores in the
blade.  These help in bridging the latency gap for off-blade communication."

Fig. 3c quotes 3.375 GB of shared L2 from "16 HD JSRAM stacks in SNU"; the
per-stack die count is derived from that capacity (the paper's stated
0.4 Mbit/mm² die density alone cannot produce it — README "Substitutions" #4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import require_positive
from repro.interconnect.switch import SwitchSpec
from repro.memory.cache import CacheSpec, l2_slice_spec
from repro.memory.jsram import JSRAMDie
from repro.units import GB, NS


@dataclass(frozen=True)
class SNUStack:
    """One SNU: base switch die plus an HD JSRAM L2 stack."""

    switch: SwitchSpec = field(default_factory=lambda: SwitchSpec(radix=8))
    l2_die: JSRAMDie = field(default_factory=JSRAMDie)
    l2_capacity_bytes: float = 3.375 * GB / 16  # one of 16 stacks
    #: Extra TSV length allows stacking blades vertically (Sec. IV-B).
    supports_blade_stacking: bool = True

    def __post_init__(self) -> None:
        require_positive("l2_capacity_bytes", self.l2_capacity_bytes)

    @property
    def n_l2_dies(self) -> int:
        """Dies needed for the stack's L2 slice (derived from capacity)."""
        return self.l2_die.dies_for_capacity(self.l2_capacity_bytes)

    @property
    def total_jj(self) -> float:
        """Junction estimate: switch + L2 arrays."""
        return self.switch.total_jj + self.n_l2_dies * self.l2_die.jj_count


def build_snu_group(
    total_l2_bytes: float = 3.375 * GB,
    n_stacks: int = 16,
) -> list[SNUStack]:
    """The blade's SNU population: ``n_stacks`` stacks sharing the L2.

    The stacks are equal and frozen, so the list repeats one of them."""
    require_positive("total_l2_bytes", total_l2_bytes)
    require_positive("n_stacks", n_stacks)
    return [SNUStack(l2_capacity_bytes=total_l2_bytes / n_stacks)] * n_stacks


def build_snu(l2_capacity_bytes: float = 3.375 * GB / 16) -> SNUStack:
    """A single SNU stack with the given L2 slice capacity."""
    return SNUStack(l2_capacity_bytes=l2_capacity_bytes)


def shared_l2_spec(
    total_l2_bytes: float = 3.375 * GB,
    n_spus: int = 64,
    bandwidth_per_spu: float = 18.3e12,
    network_latency: float = 10 * NS,
) -> CacheSpec:
    """The shared-L2 view of one SPU (full capacity at link bandwidth)."""
    return l2_slice_spec(
        total_capacity_bytes=total_l2_bytes,
        n_sharers=n_spus,
        bandwidth_per_sharer=bandwidth_per_spu,
        network_latency=network_latency,
    )


__all__ = ["SNUStack", "build_snu", "build_snu_group", "shared_l2_spec"]
