"""α–β communication-time models for the collectives LLM parallelism issues.

Tensor parallelism inserts all-reduces, pipeline parallelism point-to-point
activations, data parallelism gradient all-reduces, and MoE expert routing
all-to-alls.  Each is modelled in the classic α–β (latency–bandwidth) style
on a :class:`Fabric`, with per-algorithm step counts:

* ``RING``              — bandwidth-optimal, 2(p−1) latency steps
* ``TREE``              — 2·log₂(p) steps, good for small messages
* ``SWITCH_REDUCTION``  — in-network reduction (NVSwitch-SHARP class): one
  traversal of the volume plus a constant number of latency steps
* ``TORUS_2D``          — per-dimension ring reduce-scatter/all-gather on the
  SCD blade's torus; latency steps follow the ring circumferences and the
  paper's 60 ns intra-blade reduction primitive

A :class:`HierarchicalFabric` composes two levels (e.g. NVLink inside a DGX
node, InfiniBand across nodes) with the standard reduce-scatter →
inter-all-reduce → all-gather decomposition.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.errors import require_non_negative, require_positive


class CollectiveAlgorithm(enum.Enum):
    """All-reduce algorithm families."""

    RING = "ring"
    TREE = "tree"
    SWITCH_REDUCTION = "switch_reduction"
    TORUS_2D = "torus_2d"


@dataclass(frozen=True)
class Fabric:
    """A homogeneous communication domain.

    Parameters
    ----------
    name:
        Identifier ("NVLink", "InfiniBand", "SCD torus").
    alpha:
        Per-step latency, seconds (software + switch + flight for one hop or
        message exchange).
    bandwidth:
        Per-participant injection bandwidth, bytes/s.
    algorithm:
        Default all-reduce algorithm on this fabric.
    torus_shape:
        Required for ``TORUS_2D``: the (nx, ny) shape the participants form.
    """

    name: str
    alpha: float
    bandwidth: float
    algorithm: CollectiveAlgorithm = CollectiveAlgorithm.RING
    torus_shape: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        require_non_negative(f"{self.name} alpha", self.alpha)
        require_positive(f"{self.name} bandwidth", self.bandwidth)


def _check(n_bytes: float, participants: int) -> bool:
    """Validate arguments; returns True when the collective is trivial."""
    require_non_negative("n_bytes", n_bytes)
    require_positive("participants", participants)
    return participants == 1 or n_bytes == 0.0


def _torus_dims(fabric: Fabric, participants: int) -> tuple[int, int]:
    """Resolve the torus shape for TORUS_2D collectives."""
    if fabric.torus_shape is not None:
        nx, ny = fabric.torus_shape
        if nx * ny < participants:
            raise ValueError(
                f"torus {nx}x{ny} too small for {participants} participants"
            )
        return nx, ny
    side = max(1, round(math.sqrt(participants)))
    while participants % side:
        side -= 1
    return side, participants // side


def all_reduce_time(fabric: Fabric, n_bytes: float, participants: int) -> float:
    """Time for an all-reduce of ``n_bytes`` per participant, seconds."""
    if _check(n_bytes, participants):
        return 0.0
    p = participants
    volume = n_bytes / fabric.bandwidth
    if fabric.algorithm is CollectiveAlgorithm.RING:
        return 2 * (p - 1) * fabric.alpha + 2 * (p - 1) / p * volume
    if fabric.algorithm is CollectiveAlgorithm.TREE:
        steps = 2 * math.ceil(math.log2(p))
        return steps * fabric.alpha + steps * volume
    if fabric.algorithm is CollectiveAlgorithm.SWITCH_REDUCTION:
        # In-network reduction: each rank sends its buffer once and receives
        # the reduced buffer once; the switch pipeline adds a few steps.
        return 2 * fabric.alpha + volume
    if fabric.algorithm is CollectiveAlgorithm.TORUS_2D:
        nx, ny = _torus_dims(fabric, p)
        # Per-dimension ring reduce-scatter + all-gather; the volume term
        # stays bandwidth-optimal (2·(p−1)/p·n/bw across both dimensions).
        latency_steps = 2 * ((nx - 1) + (ny - 1))
        return latency_steps * fabric.alpha + 2 * (p - 1) / p * volume
    raise ValueError(f"unknown algorithm {fabric.algorithm}")


def reduce_scatter_time(fabric: Fabric, n_bytes: float, participants: int) -> float:
    """Reduce-scatter of an ``n_bytes`` buffer (each rank keeps n/p), seconds."""
    if _check(n_bytes, participants):
        return 0.0
    p = participants
    volume = n_bytes / fabric.bandwidth
    if fabric.algorithm is CollectiveAlgorithm.SWITCH_REDUCTION:
        return fabric.alpha + volume / p * (p - 1) / max(p - 1, 1)
    steps = (
        2 * ((_torus_dims(fabric, p)[0] - 1) + (_torus_dims(fabric, p)[1] - 1)) // 2
        if fabric.algorithm is CollectiveAlgorithm.TORUS_2D
        else (p - 1)
    )
    return steps * fabric.alpha + (p - 1) / p * volume


def all_gather_time(fabric: Fabric, n_bytes: float, participants: int) -> float:
    """All-gather where each rank ends with ``n_bytes`` total (p shards of n/p)."""
    if _check(n_bytes, participants):
        return 0.0
    p = participants
    volume = n_bytes / fabric.bandwidth
    if fabric.algorithm is CollectiveAlgorithm.SWITCH_REDUCTION:
        return fabric.alpha + (p - 1) / p * volume
    steps = (
        2 * ((_torus_dims(fabric, p)[0] - 1) + (_torus_dims(fabric, p)[1] - 1)) // 2
        if fabric.algorithm is CollectiveAlgorithm.TORUS_2D
        else (p - 1)
    )
    return steps * fabric.alpha + (p - 1) / p * volume


def all_to_all_time(fabric: Fabric, n_bytes: float, participants: int) -> float:
    """All-to-all where each rank sends ``n_bytes`` split across all peers."""
    if _check(n_bytes, participants):
        return 0.0
    p = participants
    volume = n_bytes * (p - 1) / p / fabric.bandwidth
    return (p - 1) * fabric.alpha + volume


def point_to_point_time(fabric: Fabric, n_bytes: float, hops: int = 1) -> float:
    """Single transfer of ``n_bytes`` across ``hops`` fabric hops."""
    require_non_negative("n_bytes", n_bytes)
    require_positive("hops", hops)
    if n_bytes == 0.0:
        return 0.0
    return hops * fabric.alpha + n_bytes / fabric.bandwidth


@dataclass(frozen=True)
class HierarchicalFabric:
    """Two-level fabric: a fast intra-group level under a slower inter-group one.

    All-reduce decomposes as intra-group reduce-scatter → inter-group
    all-reduce on the shard → intra-group all-gather (the standard NCCL
    hierarchical scheme for NVLink + InfiniBand clusters).
    """

    intra: Fabric
    inter: Fabric
    group_size: int

    def __post_init__(self) -> None:
        require_positive("group_size", self.group_size)

    def groups(self, participants: int) -> int:
        """Number of groups spanned by ``participants``."""
        return math.ceil(participants / self.group_size)

    def all_reduce_time(self, n_bytes: float, participants: int) -> float:
        """Hierarchical all-reduce time, seconds."""
        if _check(n_bytes, participants):
            return 0.0
        if participants <= self.group_size:
            return all_reduce_time(self.intra, n_bytes, participants)
        groups = self.groups(participants)
        local = self.group_size
        shard = n_bytes / local
        return (
            reduce_scatter_time(self.intra, n_bytes, local)
            + all_reduce_time(self.inter, shard, groups)
            + all_gather_time(self.intra, n_bytes, local)
        )

    def all_gather_time(self, n_bytes: float, participants: int) -> float:
        """Hierarchical all-gather time, seconds."""
        if _check(n_bytes, participants):
            return 0.0
        if participants <= self.group_size:
            return all_gather_time(self.intra, n_bytes, participants)
        groups = self.groups(participants)
        return all_gather_time(self.inter, n_bytes, groups) + all_gather_time(
            self.intra, n_bytes, self.group_size
        )

    def all_to_all_time(self, n_bytes: float, participants: int) -> float:
        """Hierarchical all-to-all: bottlenecked by the inter-group fabric."""
        if _check(n_bytes, participants):
            return 0.0
        if participants <= self.group_size:
            return all_to_all_time(self.intra, n_bytes, participants)
        groups = self.groups(participants)
        inter_bytes = n_bytes * (groups - 1) / groups
        return all_to_all_time(self.intra, n_bytes / groups, self.group_size) + (
            (groups - 1) * self.inter.alpha + inter_bytes / self.inter.bandwidth
        )

    def point_to_point_time(self, n_bytes: float, cross_group: bool = True) -> float:
        """Single transfer; crosses the inter fabric when ``cross_group``."""
        fabric = self.inter if cross_group else self.intra
        return point_to_point_time(fabric, n_bytes)


__all__ = [
    "CollectiveAlgorithm",
    "Fabric",
    "HierarchicalFabric",
    "all_reduce_time",
    "reduce_scatter_time",
    "all_gather_time",
    "all_to_all_time",
    "point_to_point_time",
]
