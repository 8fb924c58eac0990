"""Pipeline-parallel schedule model: non-interleaved 1F1B (PipeDream-flush).

The schedule Megatron-LM uses and the paper's "pipeline bubble" term comes
from: each stage performs ``p - s`` warm-up forwards, then alternates one
forward / one backward, then drains.  For uniform stages the total is the
classic ``(m + p - 1)(t_f + t_b)``, i.e. bubble fraction ``(p-1)/(m+p-1)``.

``simulate_1f1b`` is an exact evaluation of the schedule's dependency
graph, so non-uniform stages (unequal layer counts, embedding and LM-head
stages) and point-to-point latencies are handled without approximation.
The graph depends only on the stage and microbatch counts, so its
topological order is built once per ``(p, m)`` pair and replayed in a
single pass for every set of stage times.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MappingError, require_non_negative, require_positive

#: ``(p, m)`` pairs whose replay order is kept.  A sweep uses a few dozen;
#: an order costs 9 bytes per operation (2·p·m operations).
_ORDER_MEMO_PAIRS = 64

# Operation kinds of a replay order.  The first and last stages are split
# out because their forward / backward has no upstream / downstream input.
_BWD, _FWD, _BWD_LAST, _FWD_FIRST = range(4)


@dataclass(frozen=True)
class PipelineTiming:
    """Result of a pipeline-schedule evaluation."""

    total_time: float
    bubble_time: float
    n_stages: int
    n_microbatches: int
    stage_busy_times: tuple[float, ...]

    @property
    def bubble_fraction(self) -> float:
        """Fraction of the schedule the bottleneck stage idles."""
        if self.total_time == 0:
            return 0.0
        return self.bubble_time / self.total_time


def analytic_1f1b(
    fwd_time: float, bwd_time: float, n_stages: int, n_microbatches: int, p2p_time: float = 0.0
) -> float:
    """Closed-form 1F1B total for uniform stages (used to cross-check the
    simulator): ``(m + p - 1)(t_f + t_b) + 2(p - 1)·δ``."""
    require_positive("n_stages", n_stages)
    require_positive("n_microbatches", n_microbatches)
    return (n_microbatches + n_stages - 1) * (fwd_time + bwd_time) + 2 * (
        n_stages - 1
    ) * p2p_time


@functools.lru_cache(maxsize=_ORDER_MEMO_PAIRS)
def _replay_order(p: int, m: int) -> tuple[bytes, array, array]:
    """A topological order of the 1F1B dependency graph of ``p`` stages and
    ``m`` microbatches, as ``(kinds, stages, slots)`` with one entry per
    operation and ``slot = stage * m + microbatch``.

    Each stage runs its program in order: ``min(m, p - s)`` warm-up
    forwards, then alternating backward / forward.  Across stages,
    F(s, j) waits for F(s-1, j) and B(s, j) for B(s+1, j); B(s, j) follows
    F(s, j) in the stage's own program.  The order is the one an
    event-driven sweep finds: visit the stages in turn, running each as
    far as its inputs allow, until every operation has run.
    """
    programs = []
    for s in range(p):
        warmup = min(m, p - s)
        program = [(False, j) for j in range(warmup)]
        for j in range(m):
            program.append((True, j))
            if warmup + j < m:
                program.append((False, warmup + j))
        programs.append(program)

    # Each stage runs its forwards, and its backwards, in microbatch order,
    # so "F(s, j) has run" is ``forwards_run[s] > j``.
    forwards_run = [0] * p
    backwards_run = [0] * p
    pointer = [0] * p
    kinds, stages, slots = bytearray(), array("i"), array("i")
    while len(kinds) < 2 * p * m:
        before = len(kinds)
        for s, program in enumerate(programs):
            k = pointer[s]
            while k < len(program):
                backward, j = program[k]
                if backward:
                    if s < p - 1:
                        if backwards_run[s + 1] <= j:
                            break
                        kinds.append(_BWD)
                    else:
                        kinds.append(_BWD_LAST)
                    backwards_run[s] += 1
                else:
                    if s > 0:
                        if forwards_run[s - 1] <= j:
                            break
                        kinds.append(_FWD)
                    else:
                        kinds.append(_FWD_FIRST)
                    forwards_run[s] += 1
                stages.append(s)
                slots.append(s * m + j)
                k += 1
            pointer[s] = k
        if len(kinds) == before:
            raise MappingError("1F1B schedule deadlocked (internal error)")
    return bytes(kinds), stages, slots


def simulate_1f1b(
    stage_fwd_times: Sequence[float],
    stage_bwd_times: Sequence[float],
    n_microbatches: int,
    p2p_time: float = 0.0,
) -> PipelineTiming:
    """Exact evaluation of the non-interleaved 1F1B schedule.

    Every operation starts when both its stage is free and its input has
    arrived (``max``), and ends one stage time later; operations are
    evaluated in a memoized topological order of the dependency graph.

    Parameters
    ----------
    stage_fwd_times / stage_bwd_times:
        Per-stage forward/backward time of one microbatch, seconds.
    n_microbatches:
        Microbatches per step (``m``).
    p2p_time:
        Activation/gradient hand-off time between adjacent stages.
    """
    p = len(stage_fwd_times)
    if p == 0 or len(stage_bwd_times) != p:
        raise MappingError("stage time lists must be non-empty and equal length")
    require_positive("n_microbatches", n_microbatches)
    require_non_negative("p2p_time", p2p_time)
    m = n_microbatches

    kinds, stages, slots = _replay_order(p, m)
    fwd_end = [0.0] * (p * m)
    bwd_end = [0.0] * (p * m)
    stage_time = [0.0] * p
    # ``ready if ready > t else t`` is ``max(t, ready)`` without the call.
    for kind, s, i in zip(kinds, stages, slots):
        t = stage_time[s]
        if kind == _BWD:
            ready = fwd_end[i]
            downstream = bwd_end[i + m] + p2p_time
            if downstream > ready:
                ready = downstream
            t = bwd_end[i] = (ready if ready > t else t) + stage_bwd_times[s]
        elif kind == _FWD:
            ready = fwd_end[i - m] + p2p_time
            t = fwd_end[i] = (ready if ready > t else t) + stage_fwd_times[s]
        elif kind == _BWD_LAST:
            ready = fwd_end[i]
            t = bwd_end[i] = (ready if ready > t else t) + stage_bwd_times[s]
        else:
            ready = 0.0
            t = fwd_end[i] = (ready if ready > t else t) + stage_fwd_times[s]
        stage_time[s] = t

    total = max(stage_time)
    busy = tuple(
        m * (stage_fwd_times[s] + stage_bwd_times[s]) for s in range(p)
    )
    bubble = total - max(busy)
    return PipelineTiming(
        total_time=total,
        bubble_time=max(0.0, bubble),
        n_stages=p,
        n_microbatches=m,
        stage_busy_times=busy,
    )


__all__ = ["PipelineTiming", "simulate_1f1b", "analytic_1f1b"]
