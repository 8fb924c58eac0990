"""The SCD blade: 8×8 SPUs on a torus + SNUs + cryo-DRAM (Sec. IV, Fig. 3).

``build_blade()`` assembles the baseline of Fig. 3c bottom-up from the
substrate models and exposes:

* ``system()``      — the :class:`SystemSpec` the performance model consumes;
* ``spec_rows()``   — the Fig. 3c "System specifications for SCD blade" table,
  each row *derived* from the component models (the bench asserts them
  against the paper's values).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.arch.spu import SPUStack, build_spu
from repro.arch.snu import SNUStack, build_snu_group, shared_l2_spec
from repro.arch.system import Accelerator, StreamEfficiency, SystemSpec
from repro.errors import require_positive
from repro.interconnect.collectives import CollectiveAlgorithm, Fabric
from repro.interconnect.datalink import DatalinkSpec, baseline_datalink
from repro.interconnect.packaging import BumpField, chip_to_chip_link
from repro.interconnect.topology import Torus2D
from repro.memory.cache import require_l2_policy
from repro.memory.dram import CryoDRAMBlock
from repro.memory.hierarchy import MemoryHierarchy, MemoryLevel
from repro.units import GB, KIB, NS


@dataclass(frozen=True)
class SCDBlade:
    """The full blade: SPU array, SNU stacks, cryo-DRAM, datalink, torus."""

    spu: SPUStack
    snus: tuple[SNUStack, ...]
    torus: Torus2D
    dram: CryoDRAMBlock
    datalink: DatalinkSpec
    chip_link: BumpField
    #: Total intra-blade reduction latency target (Fig. 3c: 60 ns).
    reduction_latency: float = 60 * NS
    #: Bytes in flight per SPU towards cryo-DRAM (BDP limit; DESIGN.md #7).
    dram_outstanding_bytes: float = 512 * KIB
    #: Main-memory policy: "dram" (paper main results) or "l2_kv_cache"
    #: (Sec. VI study — the blade L2 becomes a hierarchy level).
    l2_policy: str = "dram"

    def __post_init__(self) -> None:
        require_l2_policy(self.l2_policy)

    # -- derived quantities (Fig. 3c rows) -----------------------------------
    @property
    def n_spus(self) -> int:
        """SPU count (baseline 8×8 = 64; "maximum ~100 per blade, limited by
        interposer stitching")."""
        return self.torus.n_nodes

    @property
    def peak_flops_per_spu(self) -> float:
        """Fig. 3c "Peak compute throughput per SPU" (~2.45 PFLOP/s)."""
        return self.spu.peak_flops

    @property
    def l1_capacity_bytes(self) -> float:
        """Fig. 3c "SPU L1 D-cache capacity (Private)" (~24 MB)."""
        return self.spu.l1_dcache.capacity_bytes

    @property
    def l2_capacity_bytes(self) -> float:
        """Fig. 3c "Shared L2 Cache capacity" (3.375 GB baseline)."""
        return sum(snu.l2_capacity_bytes for snu in self.snus)

    @property
    def main_memory_bandwidth(self) -> float:
        """Fig. 3c "Bi-directional Main Memory bandwidth" (30 TBps):
        the min of datalink and DRAM-internal bandwidth."""
        return min(self.datalink.bidirectional_bandwidth, self.dram.internal_bandwidth)

    @property
    def dram_bandwidth_per_spu(self) -> float:
        """Fig. 3c "Avg. Main Memory bandwidth per SPU" (~0.47 TBps)."""
        return self.main_memory_bandwidth / self.n_spus

    @property
    def dram_latency(self) -> float:
        """Fig. 3c "Avg. Cryo-DRAM access latency" (30 ns)."""
        return self.dram.access_latency

    @property
    def spu_link_bandwidth(self) -> float:
        """Fig. 3c "Max SPU-to-SPU bandwidth" (~73 TBps, bump-limited)."""
        return self.chip_link.bandwidth

    @property
    def memory_capacity_per_spu(self) -> float:
        """Share of the 2 TB cryo-DRAM per SPU."""
        return self.dram.capacity_bytes / self.n_spus

    # -- fabric ----------------------------------------------------------------
    def fabric(self) -> Fabric:
        """The torus collective fabric.

        The per-step latency is set so a full-blade all-reduce's latency term
        equals the Fig. 3c 60 ns reduction primitive; injection bandwidth is
        one torus port (the bump-limited SPU-SPU bandwidth spans 4 ports).
        """
        steps = 2 * ((self.torus.nx - 1) + (self.torus.ny - 1))
        alpha = self.reduction_latency / max(steps, 1)
        return Fabric(
            name="SCD torus",
            alpha=alpha,
            bandwidth=self.spu_link_bandwidth / 4.0,
            algorithm=CollectiveAlgorithm.TORUS_2D,
            torus_shape=(self.torus.nx, self.torus.ny),
        )

    # -- hierarchy ----------------------------------------------------------------
    def hierarchy(self) -> MemoryHierarchy:
        """Per-SPU memory hierarchy under the configured policy.

        The paper's main results use private L1 + cryo-DRAM; the blade L2
        exists architecturally but is only enlisted as a kernel-serving level
        in the Sec. VI KV-cache study (``l2_policy="l2_kv_cache"``).
        """
        l1 = self.spu.l1_dcache
        levels = [
            MemoryLevel(
                name="L1",
                capacity_bytes=l1.capacity_bytes,
                bandwidth=l1.bandwidth,
                latency=l1.latency,
                outstanding_bytes=None,
            )
        ]
        if self.l2_policy == "l2_kv_cache":
            l2 = shared_l2_spec(
                total_l2_bytes=self.l2_capacity_bytes,
                n_spus=self.n_spus,
                bandwidth_per_spu=self.spu_link_bandwidth / 4.0,
            )
            levels.append(
                MemoryLevel(
                    name="L2",
                    capacity_bytes=l2.capacity_bytes,
                    bandwidth=l2.bandwidth,
                    latency=l2.latency,
                    outstanding_bytes=None,
                )
            )
        levels.append(
            MemoryLevel(
                name="DRAM",
                capacity_bytes=self.memory_capacity_per_spu,
                bandwidth=self.dram_bandwidth_per_spu,
                latency=self.dram_latency,
                outstanding_bytes=self.dram_outstanding_bytes,
            )
        )
        return MemoryHierarchy(levels=tuple(levels))

    def accelerator(self) -> Accelerator:
        """One SPU as the performance model sees it."""
        return Accelerator(
            name="SPU",
            peak_flops=self.spu.peak_flops,
            compute_efficiency=self.spu.compute.utilization,
            hierarchy=self.hierarchy(),
            memory_capacity_bytes=self.memory_capacity_per_spu,
            fabric=self.fabric(),
            kernel_overhead=50 * NS,
            stream_efficiency=StreamEfficiency(
                low_ai_efficiency=0.95, high_ai_efficiency=0.95
            ),
        )

    def system(self) -> SystemSpec:
        """The blade as a system of ``n_spus`` SPUs.

        Built on the first call and kept, since the blade and its parts
        are frozen: a kept blade (:func:`build_blade`) hands every recipe
        the same system to apply its DRAM overrides to."""
        system = self.__dict__.get("_system")
        if system is None:
            system = SystemSpec(
                name="SCD blade",
                accelerator=self.accelerator(),
                n_accelerators=self.n_spus,
            )
            object.__setattr__(self, "_system", system)
        return system

    # -- reporting ---------------------------------------------------------------
    def spec_rows(self) -> list[tuple[str, str]]:
        """The Fig. 3c baseline table, derived bottom-up."""
        return [
            (
                "Peak compute throughput per SPU",
                f"{self.peak_flops_per_spu / 1e15:.2f} PFLOPs (Sparse)",
            ),
            ("No. of SPUs", f"{self.n_spus} ({self.torus.nx} x {self.torus.ny})"),
            (
                "SPU L1 D-cache capacity (Private)",
                f"{self.l1_capacity_bytes / 1e6:.0f} MB "
                f"({self.spu.n_l1_dies} HD JSRAM stacks in SPU)",
            ),
            (
                "Shared L2 Cache capacity",
                f"{self.l2_capacity_bytes / 1e9:.3f} GB "
                f"({len(self.snus)} HD JSRAM stacks in SNU)",
            ),
            (
                "Avg. Main Memory bandwidth per SPU",
                f"~{self.dram_bandwidth_per_spu / 1e12:.2f} TBps "
                f"({self.main_memory_bandwidth / 1e12:.0f} TBps for {self.n_spus} SPUs)",
            ),
            ("Cryo-DRAM capacity", f"{self.dram.capacity_bytes / 1e12:.0f} TB"),
            (
                "Bi-directional Main Memory bandwidth",
                f"{self.main_memory_bandwidth / 1e12:.0f} TBps",
            ),
            (
                "Avg. Cryo-DRAM access latency (RD/WR)",
                f"{self.dram_latency / 1e-9:.0f} ns",
            ),
            (
                "Intra-blade reduction latency",
                f"{self.reduction_latency / 1e-9:.0f} ns",
            ),
            (
                "Max SPU-to-SPU bandwidth",
                f"~{self.spu_link_bandwidth / 1e12:.0f} TBps",
            ),
        ]


def build_blade(
    nx: int = 8,
    ny: int = 8,
    l2_total_bytes: float = 3.375 * GB,
    n_snu_stacks: int = 16,
    l2_policy: str = "dram",
) -> SCDBlade:
    """Assemble the baseline blade of Fig. 3c.

    A blade and all its parts are frozen, so the last few blades built are
    kept by their arguments (value *and* type, as the system memo keys):
    each is assembled, and its parts validated, once.  Callers derive
    variants with ``dataclasses.replace``, which leaves the kept blade as
    it is."""
    return _assemble_blade(nx, ny, l2_total_bytes, n_snu_stacks, l2_policy)


#: Blades kept.  A sweep varies the DRAM knobs far more often than the
#: array shape or the L2 pool, which are all a blade depends on.
_BLADES = 16


@functools.lru_cache(maxsize=_BLADES, typed=True)
def _assemble_blade(
    nx: int, ny: int, l2_total_bytes: float, n_snu_stacks: int, l2_policy: str
) -> SCDBlade:
    """The blade of these :func:`build_blade` arguments."""
    require_positive("nx", nx)
    require_positive("ny", ny)
    return SCDBlade(
        spu=build_spu(),
        snus=tuple(build_snu_group(l2_total_bytes, n_snu_stacks)),
        torus=Torus2D(nx=nx, ny=ny),
        dram=CryoDRAMBlock(),
        datalink=baseline_datalink(),
        chip_link=chip_to_chip_link(),
        l2_policy=l2_policy,
    )


__all__ = ["SCDBlade", "build_blade"]
