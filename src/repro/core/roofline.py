"""Hierarchical roofline: time one compute kernel on one accelerator.

For a kernel with ``F`` FLOPs and ``B`` bytes whose working set is served by
memory level ``ℓ``::

    t_compute = F / (peak · efficiency)
    t_memory  = latency(ℓ) + B / (bw_eff(ℓ) · stream_factor(AI))
    t         = max(t_compute, t_memory) + kernel_overhead

The kernel is *compute-bound* when ``t_compute ≥ t_memory`` and
*memory-bound at level ℓ* otherwise — the classification behind the paper's
Fig. 5 inset and the "crossover ≥ 16 TBps" observation.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from repro.arch.system import Accelerator
from repro.workloads.operators import ComputeKernel


class Boundedness(enum.Enum):
    """What limits a kernel's execution time."""

    COMPUTE = "compute"
    MEMORY = "memory"


_COMPUTE = Boundedness.COMPUTE
_MEMORY = Boundedness.MEMORY
_INF = float("inf")


class KernelTiming(NamedTuple):
    """Timing verdict for one kernel."""

    kernel: ComputeKernel
    time: float
    compute_time: float
    memory_time: float
    level_name: str
    bound: Boundedness

    @property
    def is_memory_bound(self) -> bool:
        """Convenience flag."""
        return self.bound is _MEMORY


#: Builds a :class:`KernelTiming` from its six fields in one C call (the
#: named tuple's own ``__new__`` is a Python function).
_new_timing = tuple.__new__


class Roofline(NamedTuple):
    """The accelerator values the roofline reads, resolved once.

    ``levels`` holds ``(capacity_bytes, latency, effective_bandwidth,
    name)`` per memory level, nearest first; the stream-efficiency ramp
    is ``low + span · AI / (AI + threshold)``.
    """

    sustained_flops: float
    levels: tuple[tuple[float, float, float, str], ...]
    stream_low: float
    stream_span: float
    stream_high: float
    stream_threshold: float
    kernel_overhead: float


def resolve_roofline(accel: Accelerator) -> Roofline:
    """The roofline values of ``accel``, each computed as the
    :class:`Accelerator` properties compute it."""
    stream = accel.stream_efficiency
    return Roofline(
        sustained_flops=accel.sustained_flops,
        levels=tuple(
            (level.capacity_bytes, level.latency, level.effective_bandwidth, level.name)
            for level in accel.hierarchy
        ),
        stream_low=stream.low_ai_efficiency,
        stream_span=stream.high_ai_efficiency - stream.low_ai_efficiency,
        stream_high=stream.high_ai_efficiency,
        stream_threshold=stream.ai_threshold,
        kernel_overhead=accel.kernel_overhead,
    )


def time_compute_kernel(
    kernel: ComputeKernel, accel: Accelerator, roofline: Roofline | None = None
) -> KernelTiming:
    """Apply the hierarchical roofline to ``kernel`` on ``accel``.

    ``roofline`` is ``accel``'s :func:`resolve_roofline`, passed by callers
    that time many kernels on one accelerator; it is resolved here when
    omitted.
    """
    if roofline is None:
        roofline = resolve_roofline(accel)
    flops = kernel.flops
    compute_time = flops / roofline.sustained_flops if flops > 0 else 0.0

    # The nearest level that holds the kernel's placement bytes; anything
    # larger than the last level still streams from it.
    placement = max(kernel.working_set_bytes, kernel.resident_set_bytes)
    for capacity, latency, bandwidth, level_name in roofline.levels:
        if placement <= capacity:
            break
    total_bytes = kernel.bytes_read + kernel.bytes_written
    if total_bytes > 0:
        intensity = flops / total_bytes
        if intensity == _INF:  # infinite flops: the ramp's limit, as in
            stream_factor = roofline.stream_high  # StreamEfficiency.factor
        else:
            stream_factor = roofline.stream_low + roofline.stream_span * (
                intensity / (intensity + roofline.stream_threshold)
            )
        memory_time = latency + total_bytes / (bandwidth * stream_factor)
    else:
        memory_time = 0.0

    bound = _COMPUTE if compute_time >= memory_time else _MEMORY
    elapsed = max(compute_time, memory_time) + roofline.kernel_overhead
    return _new_timing(
        KernelTiming,
        (kernel, elapsed, compute_time, memory_time, level_name, bound),
    )


__all__ = [
    "Boundedness",
    "KernelTiming",
    "Roofline",
    "resolve_roofline",
    "time_compute_kernel",
]
