"""Pipeline-parallel schedule model: non-interleaved 1F1B (PipeDream-flush).

The schedule Megatron-LM uses and the paper's "pipeline bubble" term comes
from: each stage performs ``p - s`` warm-up forwards, then alternates one
forward / one backward, then drains.  For uniform stages the total is the
classic ``(m + p - 1)(t_f + t_b)``, i.e. bubble fraction ``(p-1)/(m+p-1)``.

``simulate_1f1b`` is an exact evaluation of the schedule's dependency
graph, so non-uniform stages (unequal layer counts, embedding and LM-head
stages) and point-to-point latencies are handled without approximation.
The graph depends only on the stage and microbatch counts, so a replay
plan (a topological order in which each operation has one input) is built
once per ``(p, m)`` pair and replayed in a single pass for every set of
stage times, one ``max`` and one add per operation.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass
from typing import Sequence

from repro.errors import MappingError, require_non_negative, require_positive

#: ``(p, m)`` pairs whose replay plan is kept.  A sweep uses a few dozen;
#: a plan costs 6 bytes per operation (2·p·m operations) for the pipelines
#: the model builds.
_PLAN_MEMO_PAIRS = 64

_NEG_INF = float("-inf")


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


def _compact(values: list[int], bound: int) -> array:
    """``values``, each below ``bound``, in the narrowest unsigned array
    that holds them."""
    return array("B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "L", values)


@functools.lru_cache(maxsize=_PLAN_MEMO_PAIRS)
def _replay_plan(p: int, m: int) -> tuple[array, array, array, array]:
    """The 1F1B dependency graph of ``p`` stages and ``m`` microbatches as
    a replay plan ``(stages, durations, sources, ends)``: one entry per
    operation, in a topological order.

    An operation runs on stage ``stages[k]`` for ``durations[k]`` (an index
    into the forward times followed by the backward times), once the end
    time in slot ``sources[k]`` plus the hand-off has passed, and its end
    goes to slot ``ends[k]``.  Slots ``s·m + j`` hold the forward ends,
    ``p·m + s·m + j`` the backward ends, and slot ``2·p·m`` holds −∞: the
    input of the first stage's forwards and the last stage's backwards,
    which nothing upstream feeds.

    Each stage runs its program in order: ``min(m, p - s)`` warm-up
    forwards, then alternating backward / forward.  Across stages,
    F(s, j) waits for F(s-1, j) and B(s, j) for B(s+1, j).  B(s, j) also
    follows F(s, j), but within its own stage's program: the stage's clock
    already covers it, so the plan gives each operation one input.  The
    order is the one an event-driven sweep finds: visit the stages in turn,
    running each as far as its inputs allow, until every operation has run.
    """
    programs = []
    for s in range(p):
        warmup = min(m, p - s)
        program = [(s, False, j) for j in range(warmup)]
        for j in range(m):
            program.append((s, True, j))
            if warmup + j < m:
                program.append((s, False, warmup + j))
        programs.append(program)

    # Each stage runs its forwards, and its backwards, in microbatch order,
    # so "F(s, j) has run" is ``forwards_run[s] > j``.
    forwards_run = [0] * p
    backwards_run = [0] * p
    pointer = [0] * p
    order: list[tuple[int, bool, int]] = []
    while len(order) < 2 * p * m:
        before = len(order)
        for s, program in enumerate(programs):
            k = pointer[s]
            while k < len(program):
                op = program[k]
                _, backward, j = op
                if backward:
                    if s < p - 1 and backwards_run[s + 1] <= j:
                        break
                    backwards_run[s] += 1
                else:
                    if s > 0 and forwards_run[s - 1] <= j:
                        break
                    forwards_run[s] += 1
                order.append(op)
                k += 1
            pointer[s] = k
        if len(order) == before:
            raise MappingError("1F1B schedule deadlocked (internal error)")

    pm, last = p * m, p - 1
    unfed = 2 * pm
    return (
        _compact([s for s, _, _ in order], p),
        _compact([p + s if backward else s for s, backward, _ in order], 2 * p),
        _compact(
            [
                (unfed if s == last else pm + (s + 1) * m + j)
                if backward
                else (unfed if s == 0 else (s - 1) * m + j)
                for s, backward, j in order
            ],
            unfed + 1,
        ),
        _compact(
            [pm * backward + s * m + j for s, backward, j in order], unfed + 1
        ),
    )


def simulate_1f1b(
    stage_fwd_times: Sequence[float],
    stage_bwd_times: Sequence[float],
    n_microbatches: int,
    p2p_time: float = 0.0,
) -> PipelineTiming:
    """Exact evaluation of the non-interleaved 1F1B schedule.

    Every operation starts when both its stage is free and its input has
    arrived (``max``), and ends one stage time later; operations are
    evaluated in the memoized replay plan of the dependency graph.

    Parameters
    ----------
    stage_fwd_times / stage_bwd_times:
        Per-stage forward/backward time of one microbatch, seconds
        (non-negative: a stage's clock never runs backwards).
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

    stages, durations, sources, ends = _replay_plan(p, m)
    duration = [*stage_fwd_times, *stage_bwd_times]
    end = [0.0] * (2 * p * m)
    end.append(_NEG_INF)
    stage_time = [0.0] * p
    # ``ready if ready > t else t`` is ``max(t, ready)`` without the call.
    for s, d, source, slot in zip(stages, durations, sources, ends):
        ready = end[source] + p2p_time
        t = stage_time[s]
        stage_time[s] = end[slot] = (ready if ready > t else t) + duration[d]

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
