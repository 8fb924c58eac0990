"""1F1B pipeline-schedule tests: simulator vs closed form, bubble laws,
and bit-exact agreement with an event-driven reference simulator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.parallel.pipeline import (
    _FWD,
    _FWD_FIRST,
    PipelineTiming,
    _replay_order,
    analytic_1f1b,
    simulate_1f1b,
)

times = st.floats(min_value=1e-5, max_value=1e-2)


def event_driven_1f1b(stage_fwd_times, stage_bwd_times, m, p2p_time=0.0):
    """Reference: the event-driven simulator ``simulate_1f1b`` replaced.

    Sweeps the stages repeatedly, running each one's program as far as its
    inputs allow, until every operation has run.  Returns ``(total,
    bubble, busy)`` exactly as the replaying simulator computes them.
    """
    p = len(stage_fwd_times)
    sequences = []
    for s in range(p):
        warmup = min(m, p - s)
        seq = [("F", j) for j in range(warmup)]
        next_fwd = warmup
        for j in range(m):
            seq.append(("B", j))
            if next_fwd < m:
                seq.append(("F", next_fwd))
                next_fwd += 1
        sequences.append(seq)

    fwd_end = [[None] * m for _ in range(p)]
    bwd_end = [[None] * m for _ in range(p)]
    stage_time = [0.0] * p
    pointer = [0] * p
    remaining = sum(len(seq) for seq in sequences)
    while remaining:
        progressed = False
        for s in range(p):
            while pointer[s] < len(sequences[s]):
                kind, j = sequences[s][pointer[s]]
                if kind == "F":
                    if s == 0:
                        ready = 0.0
                    else:
                        upstream = fwd_end[s - 1][j]
                        if upstream is None:
                            break
                        ready = upstream + p2p_time
                    start = max(stage_time[s], ready)
                    fwd_end[s][j] = start + stage_fwd_times[s]
                    stage_time[s] = fwd_end[s][j]
                else:
                    own_fwd = fwd_end[s][j]
                    if own_fwd is None:
                        break
                    if s == p - 1:
                        ready = own_fwd
                    else:
                        downstream = bwd_end[s + 1][j]
                        if downstream is None:
                            break
                        ready = max(own_fwd, downstream + p2p_time)
                    start = max(stage_time[s], ready)
                    bwd_end[s][j] = start + stage_bwd_times[s]
                    stage_time[s] = bwd_end[s][j]
                pointer[s] += 1
                remaining -= 1
                progressed = True
        assert progressed, "reference schedule deadlocked"

    total = max(stage_time)
    busy = tuple(m * (stage_fwd_times[s] + stage_bwd_times[s]) for s in range(p))
    return total, max(0.0, total - max(busy)), busy


class TestAgainstEventDrivenReference:
    """The replay does the reference's float operations on the same
    operands, so every number must match exactly, not approximately."""

    @staticmethod
    def assert_exact(fwd, bwd, m, p2p):
        result = simulate_1f1b(fwd, bwd, m, p2p)
        total, bubble, busy = event_driven_1f1b(fwd, bwd, m, p2p)
        assert result.total_time == total
        assert result.bubble_time == bubble
        assert result.stage_busy_times == busy
        assert (result.n_stages, result.n_microbatches) == (len(fwd), m)

    def test_seeded_random_non_uniform_stages(self):
        rng = random.Random(20240611)
        for _ in range(250):
            p = rng.randint(1, 40)
            m = rng.randint(1, 130)
            fwd = [rng.uniform(1e-6, 1e-2) * rng.choice((0.1, 1, 10)) for _ in range(p)]
            bwd = [rng.uniform(1e-6, 2e-2) for _ in range(p)]
            p2p = rng.choice((0.0, rng.uniform(0, 1e-4), rng.uniform(0, 1e-1)))
            self.assert_exact(fwd, bwd, m, p2p)

    @pytest.mark.parametrize(
        "p, m", [(1, 1), (1, 7), (2, 1), (5, 3), (5, 5), (8, 64), (40, 130)]
    )
    def test_edge_shapes(self, p, m):
        rng = random.Random(p * 1000 + m)
        fwd = [rng.uniform(1e-4, 1e-3) for _ in range(p)]
        bwd = [rng.uniform(1e-4, 2e-3) for _ in range(p)]
        self.assert_exact(fwd, bwd, m, 0.0)
        self.assert_exact(fwd, bwd, m, 3e-5)
        self.assert_exact([1e-3] * p, [2e-3] * p, m, 1e-4)

    @pytest.mark.parametrize("p, m", [(1, 3), (4, 2), (4, 9), (9, 17)])
    def test_order_is_topological(self, p, m):
        kinds, stages, slots = _replay_order(p, m)
        assert len(kinds) == len(stages) == len(slots) == 2 * p * m
        seen_fwd, seen_bwd = set(), set()
        for kind, s, slot in zip(kinds, stages, slots):
            j = slot - s * m
            assert 0 <= j < m
            if kind in (_FWD, _FWD_FIRST):
                assert s == 0 or (s - 1, j) in seen_fwd
                assert all((s, i) in seen_fwd for i in range(j))
                seen_fwd.add((s, j))
            else:
                assert (s, j) in seen_fwd
                assert s == p - 1 or (s + 1, j) in seen_bwd
                assert all((s, i) in seen_bwd for i in range(j))
                seen_bwd.add((s, j))
        assert len(seen_fwd) == len(seen_bwd) == p * m


class TestAgainstClosedForm:
    @given(times, times, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_uniform_stages_match_formula(self, f, b, p, m):
        result = simulate_1f1b([f] * p, [b] * p, m, p2p_time=0.0)
        assert result.total_time == pytest.approx(
            analytic_1f1b(f, b, p, m, 0.0), rel=1e-9
        )

    def test_single_stage_no_bubble(self):
        result = simulate_1f1b([1e-3], [2e-3], 16)
        assert result.total_time == pytest.approx(16 * 3e-3)
        assert result.bubble_time == pytest.approx(0.0, abs=1e-12)

    def test_paper_bubble_fraction(self):
        # Bubble fraction = (p-1)/(m+p-1) for uniform 1F1B.
        p, m = 8, 64
        result = simulate_1f1b([1e-3] * p, [2e-3] * p, m)
        assert result.bubble_fraction == pytest.approx((p - 1) / (m + p - 1))


class TestProperties:
    @given(times, times, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=32))
    @settings(max_examples=30, deadline=None)
    def test_total_at_least_busy(self, f, b, p, m):
        result = simulate_1f1b([f] * p, [b] * p, m)
        assert result.total_time >= max(result.stage_busy_times) - 1e-15

    @given(st.integers(min_value=2, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_more_microbatches_amortize_bubble(self, p):
        few = simulate_1f1b([1e-3] * p, [2e-3] * p, 4)
        many = simulate_1f1b([1e-3] * p, [2e-3] * p, 64)
        assert many.bubble_fraction < few.bubble_fraction

    def test_bottleneck_stage_dominates(self):
        slow = [1e-3, 5e-3, 1e-3, 1e-3]
        result = simulate_1f1b(slow, [t * 2 for t in slow], 32)
        # Total approaches m x bottleneck (fwd+bwd) as m grows.
        assert result.total_time >= 32 * (5e-3 + 10e-3)

    def test_p2p_adds_latency(self):
        without = simulate_1f1b([1e-3] * 4, [2e-3] * 4, 8, p2p_time=0.0)
        with_p2p = simulate_1f1b([1e-3] * 4, [2e-3] * 4, 8, p2p_time=1e-4)
        assert with_p2p.total_time > without.total_time

    def test_non_uniform_stages_supported(self):
        # Uneven 60-layer split: stage times differ; simulator must not
        # deadlock and must respect dependencies.
        fwd = [8e-4, 8e-4, 7e-4, 7e-4]
        bwd = [1.6e-3, 1.6e-3, 1.4e-3, 1.4e-3]
        result = simulate_1f1b(fwd, bwd, 16)
        assert result.total_time > 16 * (8e-4 + 1.6e-3)

    def test_m_less_than_p(self):
        result = simulate_1f1b([1e-3] * 8, [2e-3] * 8, 2)
        assert result.total_time > 0
        assert result.n_microbatches == 2


class TestValidation:
    def test_empty_stages_rejected(self):
        with pytest.raises(MappingError):
            simulate_1f1b([], [], 4)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(MappingError):
            simulate_1f1b([1e-3], [1e-3, 2e-3], 4)

    def test_timing_dataclass(self):
        result = simulate_1f1b([1e-3] * 2, [2e-3] * 2, 4)
        assert isinstance(result, PipelineTiming)
        assert result.n_stages == 2
