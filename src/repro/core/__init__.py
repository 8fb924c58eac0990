"""Optimus: the paper's analytical performance-modeling framework (Sec. V).

"At its core, Optimus relies on a hierarchical roofline model for a single
accelerator to determine if a given kernel in the task graph is compute or
memory (on-chip/off-chip) bound.  For compute-bound kernels the execution
time is primarily determined by the compute throughput, while for
memory-bound kernels it is dominated by the data transfer time from the
respective memory level."

* :mod:`roofline`     — per-kernel timing + boundedness classification;
* :mod:`comm_perf`    — collective timing on the system fabric;
* :mod:`timing_cache` — memoized kernel timings shared across stages,
  decode samples and sweep points;
* :mod:`model`        — end-to-end training/inference evaluation (Optimus);
* :mod:`report`       — result structures with the paper's breakdowns;
* :mod:`optimizer`    — parallelization-strategy search.
"""

from repro.core.roofline import Boundedness, KernelTiming, time_compute_kernel
from repro.core.comm_perf import time_comm_kernel
from repro.core.timing_cache import (
    KernelTimingCache,
    NullTimingCache,
    default_timing_cache,
)
from repro.core.model import Optimus
from repro.core.report import InferenceReport, TrainingReport
from repro.core.optimizer import StrategyResult, search_strategies

__all__ = [
    "Boundedness",
    "KernelTiming",
    "time_compute_kernel",
    "time_comm_kernel",
    "KernelTimingCache",
    "NullTimingCache",
    "default_timing_cache",
    "Optimus",
    "TrainingReport",
    "InferenceReport",
    "StrategyResult",
    "search_strategies",
]
