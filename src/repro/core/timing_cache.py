"""Memoized timing: the caches behind the op-program engine.

Kernel timings (:func:`repro.core.roofline.time_compute_kernel`,
:func:`repro.core.comm_perf.time_comm_kernel`) are pure functions of
``(kernel, accelerator-or-fabric)`` — both frozen, hashable dataclasses — so
their results can be memoized and shared across pipeline stages, decode
samples and whole sweep points.  A Fig. 5-style sweep pays for each unique
kernel once per accelerator configuration instead of once per layer
replica per call.

Per accelerator, one LRU entry holds three things:

* its kernel timings (``ComputeKernel → KernelTiming``);
* its program timings (``OpProgram → _OpListTiming`` of
  :class:`repro.core.model.Optimus`): a program that was already timed on
  this accelerator — an interior pipeline stage equal to its neighbours,
  a strategy re-mapped to the same stages, a repeated evaluation — is not
  walked again;
* its :class:`~repro.core.roofline.Roofline`, the accelerator values every
  kernel-timing miss reads, resolved once.

Collective timings are kept per fabric (two accelerators that differ only
in DRAM parameters share them).

Keying is by *value* (dataclass equality), not identity: two separately
built but identical accelerators share one entry, while any changed
parameter (a swept DRAM bandwidth, a zeroed kernel overhead) hashes to a new
configuration and misses — the invalidation rule sweeps rely on.

The process-wide default cache (:func:`default_timing_cache`) is what
:class:`repro.core.model.Optimus` binds when no explicit cache is given.
:class:`NullTimingCache` memoizes nothing — no kernel, collective or
program timing — so the seed's flat path (``use_programs=False``) stays
the reference the engine is checked against, and the perf benchmarks use
it to reproduce the seed's cost.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.arch.system import Accelerator, AnyFabric
from repro.core.comm_perf import CommTiming, time_comm_kernel
from repro.core.roofline import (
    KernelTiming,
    Roofline,
    resolve_roofline,
    time_compute_kernel,
)
from repro.errors import require_positive
from repro.workloads.operators import CommKernel, ComputeKernel


class BoundTimings:
    """A cache view bound to one accelerator (and its fabric).

    Resolving the per-configuration memos once at bind time keeps the hot
    path to a single dict lookup: the accelerator's (nested) hash is not
    recomputed per op.  The timing engine reads ``compute``, ``comm`` and
    ``programs`` directly and calls :meth:`compute_miss` /
    :meth:`comm_miss` for what they lack.
    """

    __slots__ = (
        "_cache",
        "accelerator",
        "fabric",
        "roofline",
        "compute",
        "comm",
        "programs",
    )

    def __init__(
        self,
        cache: "KernelTimingCache",
        accelerator: Accelerator,
        compute: dict[ComputeKernel, KernelTiming],
        comm: dict[CommKernel, CommTiming],
        programs: dict[Any, Any],
        roofline: Roofline,
    ) -> None:
        self._cache = cache
        self.accelerator = accelerator
        self.fabric = accelerator.fabric
        self.roofline = roofline
        self.compute = compute
        self.comm = comm
        self.programs = programs

    def time_compute(self, kernel: ComputeKernel) -> KernelTiming:
        """Memoized :func:`time_compute_kernel` on the bound accelerator."""
        timing = self.compute.get(kernel)
        if timing is None:
            return self.compute_miss(kernel)
        self._cache.hits += 1
        return timing

    def compute_miss(self, kernel: ComputeKernel) -> KernelTiming:
        """Time a kernel the memo lacks, keep it and count the miss."""
        timing = time_compute_kernel(kernel, self.accelerator, self.roofline)
        self.compute[kernel] = timing
        self._cache.misses += 1
        return timing

    def time_comm(self, kernel: CommKernel) -> CommTiming:
        """Memoized :func:`time_comm_kernel` on the bound fabric."""
        timing = self.comm.get(kernel)
        if timing is None:
            return self.comm_miss(kernel)
        self._cache.hits += 1
        return timing

    def comm_miss(self, kernel: CommKernel) -> CommTiming:
        """Time a collective the memo lacks, keep it and count the miss."""
        timing = time_comm_kernel(kernel, self.fabric)
        self.comm[kernel] = timing
        self._cache.misses += 1
        return timing


class KernelTimingCache:
    """Timing memo keyed on (kernel or program, configuration) value.

    Kernel and program timings and the resolved roofline are kept per
    :class:`Accelerator`; collective timings per fabric.  Both tables are
    kept in LRU order and evicted beyond ``max_configs`` distinct
    configurations, so unbounded sweeps do not grow memory without limit:
    an accelerator's program timings leave with it.

    Eviction detaches, it does not invalidate: a :class:`BoundTimings`
    view created before its configuration was evicted keeps memoizing into
    its (now private) memos — results stay correct, but sharing with
    later binds of the same configuration ends and ``n_configs`` /
    ``n_entries`` no longer account for the detached entries.  Size
    ``max_configs`` to the working set of live configurations (one per
    concurrently-live ``Optimus``).

    ``hits`` / ``misses`` count kernel and collective lookups; a program
    answered by its memo looks up no kernel.  Binding is safe to share
    between threads: the LRU bookkeeping runs under a lock.
    """

    def __init__(self, max_configs: int = 64) -> None:
        require_positive("max_configs", max_configs)
        self.max_configs = max_configs
        self._lock = threading.Lock()
        self._accelerators: OrderedDict[
            Accelerator, tuple[dict, dict, Roofline]
        ] = OrderedDict()
        self._comm: OrderedDict[
            AnyFabric, dict[CommKernel, CommTiming]
        ] = OrderedDict()
        self.hits = 0
        self.misses = 0

    # -- binding -----------------------------------------------------------
    def bind(self, accelerator: Accelerator) -> BoundTimings:
        """Bound view for ``accelerator`` (creating its memos on demand)."""
        compute, programs, roofline = self._sub(
            self._accelerators,
            accelerator,
            lambda: ({}, {}, resolve_roofline(accelerator)),
        )
        comm = self._sub(self._comm, accelerator.fabric, dict)
        return BoundTimings(self, accelerator, compute, comm, programs, roofline)

    def _sub(self, table: OrderedDict, key, make: Callable[[], Any]):
        with self._lock:
            entry = table.get(key)
            if entry is None:
                entry = table[key] = make()
            else:
                table.move_to_end(key)
            while len(table) > self.max_configs:
                table.popitem(last=False)
            return entry

    # -- direct lookups ----------------------------------------------------
    def time_compute(
        self, kernel: ComputeKernel, accelerator: Accelerator
    ) -> KernelTiming:
        """One-off memoized compute-kernel timing."""
        return self.bind(accelerator).time_compute(kernel)

    # -- introspection -----------------------------------------------------
    @property
    def n_configs(self) -> int:
        """Distinct accelerator configurations currently cached."""
        return len(self._accelerators)

    @property
    def n_entries(self) -> int:
        """Total memoized timings (kernels, collectives and programs)."""
        with self._lock:
            return sum(
                len(compute) + len(programs)
                for compute, programs, _ in self._accelerators.values()
            ) + sum(len(sub) for sub in self._comm.values())

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def clear(self) -> None:
        """Drop all memoized timings and reset counters."""
        with self._lock:
            self._accelerators.clear()
            self._comm.clear()
            self.hits = 0
            self.misses = 0


class _Unkept(dict):
    """A memo that keeps nothing: every lookup misses."""

    def __setitem__(self, key, value) -> None:
        pass


class NullTimingCache(KernelTimingCache):
    """A cache that never memoizes — every lookup recomputes (seed behavior)."""

    def __init__(self) -> None:
        super().__init__(max_configs=1)

    def bind(self, accelerator: Accelerator) -> BoundTimings:
        return BoundTimings(
            self,
            accelerator,
            _Unkept(),
            _Unkept(),
            _Unkept(),
            resolve_roofline(accelerator),
        )


#: Process-wide default shared by every Optimus instance (and thus every
#: sweep point evaluated in this process).
_DEFAULT_CACHE = KernelTimingCache()


def default_timing_cache() -> KernelTimingCache:
    """The process-wide shared timing cache."""
    return _DEFAULT_CACHE


__all__ = [
    "BoundTimings",
    "KernelTimingCache",
    "NullTimingCache",
    "default_timing_cache",
]
