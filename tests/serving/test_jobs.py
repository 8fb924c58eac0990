"""Unit tests for the async job engine (:mod:`repro.serving.jobs`).

The manager is exercised with injected compute callables (gated by
events, or failing on demand) so every lifecycle edge — coalescing,
queue bounds, failure classification, terminal retention — is pinned
deterministically, without real scenario computes or sockets.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.scenarios import get
from repro.scenarios.store import ResultStore, stored_from_payload
from repro.serving.jobs import (
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobManager,
    QueueFullError,
)

SCENARIO = get("table1")


def fake_result(scenario, digest="0" * 64):
    return stored_from_payload(
        scenario, {"raw": {}, "text": "fake", "csv": None}, digest
    )


class GatedCompute:
    """A compute that blocks until released, counting its calls."""

    def __init__(self):
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, scenario):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(10), "gated compute never released"
        return fake_result(scenario)


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def make_manager(store, compute, **kwargs):
    return JobManager(store, compute=compute, **kwargs)


class TestLifecycle:
    def test_submit_runs_to_done(self, store):
        manager = make_manager(store, fake_result)
        try:
            snapshot = manager.submit(SCENARIO, "a" * 64)
            assert snapshot["status"] in (QUEUED, RUNNING)
            assert snapshot["coalesced_onto_existing"] is False
            assert manager.wait("a" * 64, timeout=10)
            done = manager.describe("a" * 64)
            assert done["status"] == DONE
            assert done["result_url"] == "/results/" + "a" * 64
            assert done["wall_time_s"] is not None
            assert done["queue_wait_s"] is not None
            assert done["error"] is None
            assert manager.counters.done == 1
        finally:
            manager.shutdown()

    def test_snapshot_reports_queue_position(self, store):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=1, max_queue=8)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)  # worker busy on job A
            b = manager.submit(SCENARIO, "b" * 64)
            c = manager.submit(SCENARIO, "c" * 64)
            assert b["queue_position"] == 1
            assert c["queue_position"] == 2
            running = manager.describe("a" * 64)
            assert running["status"] == RUNNING
            assert running["queue_position"] is None
            assert running["running_s"] >= 0
        finally:
            compute.release.set()
            manager.shutdown()

    def test_wait_on_unknown_digest_is_false(self, store):
        manager = make_manager(store, fake_result)
        assert manager.wait("f" * 64, timeout=0.01) is False

    def test_describe_unknown_digest_is_none(self, store):
        manager = make_manager(store, fake_result)
        assert manager.describe("f" * 64) is None


class TestCoalescing:
    def test_duplicate_submissions_share_one_compute(self, store):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=2)
        try:
            first = manager.submit(SCENARIO, "a" * 64)
            assert first["coalesced_onto_existing"] is False
            assert compute.started.wait(10)
            for _ in range(5):
                again = manager.submit(SCENARIO, "a" * 64)
                assert again["coalesced_onto_existing"] is True
            compute.release.set()
            assert manager.wait("a" * 64, timeout=10)
            assert compute.calls == 1
            assert manager.counters.submitted == 1
            assert manager.counters.coalesced == 5
            assert manager.describe("a" * 64)["coalesced"] == 5
        finally:
            compute.release.set()
            manager.shutdown()

    def test_resubmission_after_failure_starts_fresh(self, store):
        attempts = []

        def flaky(scenario):
            attempts.append(1)
            if len(attempts) == 1:
                raise ConfigError("first attempt fails")
            return fake_result(scenario)

        manager = make_manager(store, flaky)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            assert manager.describe("a" * 64)["status"] == FAILED
            # Failures are not cached: a new submission gets a new job.
            retry = manager.submit(SCENARIO, "a" * 64)
            assert retry["coalesced_onto_existing"] is False
            assert manager.wait("a" * 64, timeout=10)
            assert manager.describe("a" * 64)["status"] == DONE
            assert len(attempts) == 2
        finally:
            manager.shutdown()


class TestQueueBounds:
    def test_full_queue_rejects_with_retry_after(self, store):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=1, max_queue=2)
        try:
            manager.submit(SCENARIO, "a" * 64)  # running
            assert compute.started.wait(10)
            manager.submit(SCENARIO, "b" * 64)  # queued 1/2
            manager.submit(SCENARIO, "c" * 64)  # queued 2/2
            with pytest.raises(QueueFullError) as err:
                manager.submit(SCENARIO, "d" * 64)
            assert err.value.retry_after_s >= 1
            assert err.value.max_queue == 2
            assert manager.counters.rejected == 1
            # Coalescing onto an in-flight job still works at capacity.
            assert (
                manager.submit(SCENARIO, "b" * 64)[
                    "coalesced_onto_existing"
                ]
                is True
            )
        finally:
            compute.release.set()
            manager.shutdown()

    def test_submit_many_is_all_or_nothing(self, store):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=1, max_queue=2)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)
            # Three new digests cannot fit a queue of two: nothing lands.
            with pytest.raises(QueueFullError):
                manager.submit_many(
                    [
                        (SCENARIO, "b" * 64, "registry"),
                        (SCENARIO, "c" * 64, "registry"),
                        (SCENARIO, "d" * 64, "registry"),
                    ]
                )
            assert manager.describe("b" * 64) is None
            assert manager.stats()["queued"] == 0
            # Two fit exactly; in-batch duplicates coalesce, not occupy.
            snapshots = manager.submit_many(
                [
                    (SCENARIO, "b" * 64, "registry"),
                    (SCENARIO, "c" * 64, "registry"),
                    (SCENARIO, "b" * 64, "registry"),
                ]
            )
            assert set(snapshots) == {"b" * 64, "c" * 64}
            assert manager.counters.coalesced == 1
        finally:
            compute.release.set()
            manager.shutdown()


class TestFailureClassification:
    def test_registry_config_error_is_compute_failed(self, store):
        def boom(scenario):
            raise ConfigError("recipe bug in the registry spec")

        manager = make_manager(store, boom)
        try:
            manager.submit(SCENARIO, "a" * 64, origin="registry")
            assert manager.wait("a" * 64, timeout=10)
            snapshot = manager.describe("a" * 64)
            assert snapshot["status"] == FAILED
            assert snapshot["error"]["error"] == "compute-failed"
            assert "recipe bug" in snapshot["error"]["detail"]
        finally:
            manager.shutdown()

    def test_inline_config_error_is_invalid_scenario(self, store):
        def boom(scenario):
            raise ConfigError("bad client spec")

        manager = make_manager(store, boom)
        try:
            manager.submit(SCENARIO, "a" * 64, origin="inline")
            assert manager.wait("a" * 64, timeout=10)
            assert (
                manager.describe("a" * 64)["error"]["error"]
                == "invalid-scenario"
            )
        finally:
            manager.shutdown()

    def test_unexpected_exception_never_leaks_details(self, store):
        def boom(scenario):
            raise RuntimeError("secret internal state")

        manager = make_manager(store, boom)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            error = manager.describe("a" * 64)["error"]
            assert error == {
                "error": "internal",
                "detail": "unexpected RuntimeError",
            }
            assert manager.counters.failed == 1
        finally:
            manager.shutdown()


class TestRetentionAndStats:
    def test_terminal_jobs_are_retained_then_evicted_fifo(self, store):
        manager = make_manager(store, fake_result, retention=2)
        try:
            for prefix in "abcd":
                digest = prefix * 64
                manager.submit(SCENARIO, digest)
                assert manager.wait(digest, timeout=10)
            # Only the two most recent terminal jobs survive.
            assert manager.describe("a" * 64) is None
            assert manager.describe("b" * 64) is None
            assert manager.describe("c" * 64)["status"] == DONE
            assert manager.describe("d" * 64)["status"] == DONE
        finally:
            manager.shutdown()

    def test_stats_block_shape(self, store):
        manager = make_manager(store, fake_result, n_workers=3, max_queue=7)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert manager.wait("a" * 64, timeout=10)
            stats = manager.stats()
            assert stats["workers"] == 3
            assert stats["max_queue"] == 7
            assert stats["submitted"] == 1
            assert stats["done"] == 1
            assert stats["failed"] == 0
            assert stats["queued"] == 0
            assert stats["retained_done"] == 1
            assert stats["retry_after_s"] >= 1
        finally:
            manager.shutdown()

    def test_list_jobs_orders_live_before_terminal(self, store):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=1)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)
            manager.submit(SCENARIO, "b" * 64)
            listed = manager.list_jobs()
            statuses = {job["digest"]: job["status"] for job in listed}
            assert statuses["a" * 64] == RUNNING
            assert statuses["b" * 64] == QUEUED
        finally:
            compute.release.set()
            manager.shutdown()

    def test_shutdown_is_idempotent_and_joins_workers(self, store):
        manager = make_manager(store, fake_result)
        manager.submit(SCENARIO, "a" * 64)
        assert manager.wait("a" * 64, timeout=10)
        manager.shutdown()
        manager.shutdown()
        assert all(not t.is_alive() for t in manager._threads)

    def test_shutdown_fails_queued_jobs_instead_of_stranding_waiters(
        self, store
    ):
        compute = GatedCompute()
        manager = make_manager(store, compute, n_workers=1)
        try:
            manager.submit(SCENARIO, "a" * 64)
            assert compute.started.wait(10)  # the only worker is busy
            outcomes = []
            waiter = threading.Thread(
                target=lambda: outcomes.append(
                    manager.run([(SCENARIO, "b" * 64, "registry")])
                )
            )
            waiter.start()
            deadline = time.monotonic() + 10
            while manager.stats()["queued"] < 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            manager.shutdown(timeout=0.1)
            waiter.join(timeout=10)
            assert not waiter.is_alive()
            assert outcomes == [
                {"b" * 64: {"error": "internal", "detail": "shutdown"}}
            ]
            assert manager.describe("b" * 64)["status"] == FAILED
        finally:
            compute.release.set()
            manager.shutdown()

    def test_knob_validation(self, store):
        with pytest.raises(ConfigError):
            JobManager(store, n_workers=0)
        with pytest.raises(ConfigError):
            JobManager(store, max_queue=0)
        with pytest.raises(ConfigError):
            JobManager(store, retention=-1)


class TestRunHandsResultsToWaiters:
    def test_run_returns_results_and_errors_per_digest(self, store):
        def compute(scenario):
            if scenario.name == "broken":
                raise ConfigError("broken spec")
            return fake_result(scenario)

        broken = dataclasses.replace(SCENARIO, name="broken")
        manager = make_manager(store, compute)
        try:
            outcomes = manager.run(
                [
                    (SCENARIO, "a" * 64, "registry"),
                    (broken, "b" * 64, "inline"),
                    (SCENARIO, "a" * 64, "registry"),
                ]
            )
            assert outcomes["a" * 64].text == "fake"
            assert outcomes["b" * 64] == {
                "error": "invalid-scenario",
                "detail": "broken spec",
            }
            assert manager.counters.coalesced == 1
            # The retained terminal jobs hold no result.
            assert manager._terminal["a" * 64].future is None
        finally:
            manager.shutdown()

    def test_many_waiters_each_get_their_own_result(self, store):
        """Threads blocking in run() on a few shared digests, with a tiny
        switch interval: every waiter is answered with its own digest's
        result, and no submission is lost or left in flight."""
        scenarios = [
            dataclasses.replace(SCENARIO, name=f"contended-{i}")
            for i in range(4)
        ]
        digests = [store.digest(scenario) for scenario in scenarios]

        def compute(scenario):
            return fake_result(scenario, store.digest(scenario))

        manager = make_manager(store, compute, n_workers=2)
        n_threads, rounds = 8, 25
        wrong = []

        def waiter(seed):
            rng = random.Random(seed)
            for _ in range(rounds):
                index = rng.randrange(len(scenarios))
                digest = digests[index]
                outcome = manager.run([(scenarios[index], digest, "registry")])
                if outcome[digest].digest != digest:
                    wrong.append(digest)

        threads = [
            threading.Thread(target=waiter, args=(seed,))
            for seed in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            manager.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        counters = manager.counters
        assert counters.submitted + counters.coalesced == n_threads * rounds
        assert counters.done == counters.submitted
        assert counters.failed == counters.rejected == 0
        assert manager.stats()["queued"] == manager.stats()["running"] == 0
