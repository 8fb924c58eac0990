"""Interconnect substrate: switches, topology, packaging, datalink, collectives.

Covers the paper's network story: the hierarchical MUX-crossbar switch
(Fig. 3b), the shape of the 2D-torus intra-blade network of SPUs, the
bump-limited chip-to-chip and interposer links (Fig. 3c tables), the 4K↔77K
main-memory datalink (Fig. 2), and α–β communication-time models for the
collectives the LLM parallelization strategies issue (all-reduce, all-gather,
all-to-all, point-to-point).
"""

from repro.interconnect.switch import SwitchSpec
from repro.interconnect.topology import Torus2D
from repro.interconnect.datalink import DatalinkSpec, DatalinkWireSpec, baseline_datalink
from repro.interconnect.packaging import BumpField, chip_to_chip_link, interposer_4k
from repro.interconnect.collectives import (
    CollectiveAlgorithm,
    Fabric,
    HierarchicalFabric,
    all_gather_time,
    all_reduce_time,
    all_to_all_time,
    point_to_point_time,
    reduce_scatter_time,
)

__all__ = [
    "SwitchSpec",
    "Torus2D",
    "DatalinkSpec",
    "DatalinkWireSpec",
    "baseline_datalink",
    "BumpField",
    "chip_to_chip_link",
    "interposer_4k",
    "CollectiveAlgorithm",
    "Fabric",
    "HierarchicalFabric",
    "all_reduce_time",
    "all_gather_time",
    "reduce_scatter_time",
    "all_to_all_time",
    "point_to_point_time",
]
