"""The contemporary GPU baseline: H100 SXM + DGX-class cluster (Sec. VI).

The paper compares the SCD blade against "equivalent number of GPUs (H100s:
peak throughput of 0.9895 PFLOPs, DRAM bandwidth of 3.35 TBps)".  This module
encodes those headline numbers plus the surrounding system: 80 GB HBM3,
50 MB L2, NVLink/NVSwitch inside an 8-GPU node and InfiniBand NDR across
nodes.

Calibration notes (README "Substitutions" #8): collective α values and the
low-intensity stream efficiency are set to public NCCL-/GEMV-class numbers;
together they land the paper's 3.5–4.4× training and 9–11× inference
speed-up bands.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.system import Accelerator, StreamEfficiency, SystemSpec
from repro.errors import require_positive
from repro.interconnect.collectives import (
    CollectiveAlgorithm,
    Fabric,
    HierarchicalFabric,
)
from repro.memory.hierarchy import MemoryHierarchy, MemoryLevel
from repro.units import GB, MB, NS, PFLOPS, TBPS, US


@dataclass(frozen=True)
class H100Specs:
    """H100 SXM parameters used by the baseline."""

    #: Paper's headline: bf16 tensor-core peak with sparsity.
    peak_flops: float = 0.9895 * PFLOPS
    hbm_bandwidth: float = 3.35 * TBPS
    hbm_capacity: float = 80 * GB
    hbm_latency: float = 450 * NS
    l2_capacity: float = 50 * MB
    l2_bandwidth: float = 6 * TBPS
    l2_latency: float = 150 * NS
    l1_capacity: float = 25 * MB  # aggregate SMEM/L1 across SMs
    l1_bandwidth: float = 20 * TBPS
    l1_latency: float = 30 * NS
    nvlink_bandwidth: float = 450e9  # unidirectional per GPU
    nvlink_alpha: float = 0.8 * US
    ib_bandwidth: float = 50e9  # 400 Gb/s NDR per GPU
    ib_alpha: float = 0.45 * US
    gpus_per_node: int = 8
    #: Per-kernel dispatch overhead with CUDA-graph-captured decode loops.
    kernel_launch_overhead: float = 0.2e-6
    compute_efficiency: float = 0.80
    #: HBM streaming efficiency: fat GEMMs vs thin GEMV-class kernels
    #: (batch-8 decode GEMVs on TP-sharded weight slivers extract a fraction
    #: of peak HBM bandwidth).
    stream_high_ai: float = 0.85
    stream_low_ai: float = 0.22


#: Default spec instance.
H100_SPECS = H100Specs()


def h100_hierarchy(specs: H100Specs = H100_SPECS) -> MemoryHierarchy:
    """SMEM/L1 → L2 → HBM.  HBM has no BDP limit: the GPU's deep
    memory-level parallelism hides DRAM latency (unlike the swept SCD
    datalink path, latency-hiding is what GPUs are built for)."""
    return MemoryHierarchy.of(
        MemoryLevel(
            name="L1",
            capacity_bytes=specs.l1_capacity,
            bandwidth=specs.l1_bandwidth,
            latency=specs.l1_latency,
            outstanding_bytes=None,
        ),
        MemoryLevel(
            name="L2",
            capacity_bytes=specs.l2_capacity,
            bandwidth=specs.l2_bandwidth,
            latency=specs.l2_latency,
            outstanding_bytes=None,
        ),
        MemoryLevel(
            name="DRAM",
            capacity_bytes=specs.hbm_capacity,
            bandwidth=specs.hbm_bandwidth,
            latency=specs.hbm_latency,
            outstanding_bytes=None,
        ),
    )


def h100_fabric(specs: H100Specs = H100_SPECS) -> HierarchicalFabric:
    """NVSwitch (in-network reduction) inside a node, IB ring across nodes."""
    nvlink = Fabric(
        name="NVLink/NVSwitch",
        alpha=specs.nvlink_alpha,
        bandwidth=specs.nvlink_bandwidth,
        algorithm=CollectiveAlgorithm.SWITCH_REDUCTION,
    )
    infiniband = Fabric(
        name="InfiniBand NDR",
        alpha=specs.ib_alpha,
        bandwidth=specs.ib_bandwidth,
        algorithm=CollectiveAlgorithm.RING,
    )
    return HierarchicalFabric(
        intra=nvlink, inter=infiniband, group_size=specs.gpus_per_node
    )


def h100_accelerator(specs: H100Specs = H100_SPECS) -> Accelerator:
    """One H100 as the performance model sees it."""
    return Accelerator(
        name="H100",
        peak_flops=specs.peak_flops,
        compute_efficiency=specs.compute_efficiency,
        hierarchy=h100_hierarchy(specs),
        memory_capacity_bytes=specs.hbm_capacity,
        fabric=h100_fabric(specs),
        kernel_overhead=specs.kernel_launch_overhead,
        stream_efficiency=StreamEfficiency(
            low_ai_efficiency=specs.stream_low_ai,
            high_ai_efficiency=specs.stream_high_ai,
        ),
    )


def build_gpu_system(
    n_gpus: int = 64, specs: H100Specs = H100_SPECS
) -> SystemSpec:
    """A cluster of ``n_gpus`` H100s (8 per NVSwitch node, IB between)."""
    require_positive("n_gpus", n_gpus)
    return SystemSpec(
        name=f"{n_gpus}x H100",
        accelerator=h100_accelerator(specs),
        n_accelerators=n_gpus,
    )


__all__ = ["H100Specs", "H100_SPECS", "h100_hierarchy", "h100_fabric", "h100_accelerator", "build_gpu_system"]
