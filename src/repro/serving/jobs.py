"""Async job engine for cold scenario computes (the ``/jobs`` layer).

:class:`JobManager` turns a cold ``POST /run`` from a blocking compute
into a *job*: submissions are digest-keyed, so N concurrent requests for
one uncomputed digest coalesce onto a single queued computation; a
bounded FIFO queue feeds a small pool of worker threads, each computing
in this process; and a full queue rejects new work loudly — the
serving layer translates :class:`QueueFullError` into a structured
``429`` with ``Retry-After`` instead of piling handler threads behind
one lock.

Job lifecycle (one digest, one job)::

    submit() ──► queued ──► running ──► done    (result in the store)
                                   └──► failed  (structured error kept)

:meth:`JobManager.run` is the same submission for a caller that needs
the result in hand (``?wait=1``): it blocks until the job is terminal,
and the worker hands it the :class:`StoredResult` without keeping one.

Terminal jobs are retained (the newest :data:`DEFAULT_RETENTION`,
FIFO-evicted) so ``GET /jobs/<digest>`` can answer "done, result at
/results/<digest>" or "failed, here is why" long after the worker moved
on; a *re*-submission of a failed digest starts a fresh job (failures
are not cached).
Everything the manager reports is a plain-data snapshot taken under the
manager lock — callers never touch live :class:`Job` state.

The worker pool starts lazily on first submit and runs daemon threads;
:meth:`JobManager.shutdown` wakes and joins them (jobs still queued are
failed, a job mid-compute finishes first).  Compute failures are
classified by the spec's *origin*: an inline (client-supplied) spec that
blows up mid-compute is the client's error (``invalid-scenario``); a
registry spec is server-owned, so the same failure is ``compute-failed``
— a server-side defect, never blamed on the request.  No traceback ever
enters a snapshot.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigError, ReproError
from repro.scenarios.spec import Scenario
from repro.scenarios.store import ResultStore, StoredResult, run_cached

#: Job lifecycle states (the ``status`` field of every snapshot).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED)

#: Default worker-thread pool size.  More threads would only oversubscribe
#: the GIL (the closed-form evaluation path is pure Python).
DEFAULT_JOB_WORKERS = 2

#: Default bound on *queued* (not yet running) jobs: beyond it,
#: submissions are rejected with :class:`QueueFullError`.
DEFAULT_MAX_QUEUE = 64

#: How many terminal (done/failed) jobs are retained for status queries.
DEFAULT_RETENTION = 512

#: ``Retry-After`` ceiling: even a pathological backlog estimate never
#: tells a client to go away for more than a minute.
MAX_RETRY_AFTER_S = 60


class QueueFullError(Exception):
    """The job queue is at capacity — serve a 429, not another thread.

    ``retry_after_s`` is the manager's backlog estimate (queue depth ×
    recent average compute time / workers), the value the serving layer
    puts in the ``Retry-After`` header.
    """

    def __init__(self, depth: int, max_queue: int, retry_after_s: int):
        super().__init__(
            f"job queue is full ({depth}/{max_queue} queued); retry in "
            f"~{retry_after_s}s"
        )
        self.depth = depth
        self.max_queue = max_queue
        self.retry_after_s = retry_after_s


@dataclass
class Job:
    """One digest's computation, from submission to terminal state.

    Mutable state is only ever touched under the manager lock; external
    consumers get plain-dict snapshots.
    """

    digest: str
    scenario: Scenario
    #: ``"registry"`` (server-owned spec) or ``"inline"`` (client-sent) —
    #: decides whose fault a mid-compute ReproError is.
    origin: str
    state: str = QUEUED
    created_unix: float = field(default_factory=time.time)
    submitted_monotonic: float = field(default_factory=time.monotonic)
    started_monotonic: float | None = None
    queue_wait_s: float | None = None
    wall_time_s: float | None = None
    #: Structured failure ({"error": slug, "detail": text}); never a
    #: traceback.
    error: dict[str, str] | None = None
    #: The stored entry's provenance stamp (plain dict), once done.
    provenance: dict[str, Any] | None = None
    #: Whether the compute turned out warm (a store race won elsewhere).
    from_cache: bool = False
    #: How many duplicate submissions coalesced onto this job.
    coalesced: int = 0
    #: Resolves to the :class:`StoredResult` (a failed job: its ``error``)
    #: for whoever blocks on the job; dropped once the job is terminal, so
    #: a retained job never pins a result payload.
    future: "Future | None" = field(default_factory=Future)


@dataclass
class JobCounters:
    """Process-lifetime job traffic (the ``/stats`` ``jobs`` block)."""

    submitted: int = 0
    coalesced: int = 0
    rejected: int = 0
    done: int = 0
    failed: int = 0


class JobManager:
    """Bounded, digest-coalescing job queue over one result store.

    Parameters
    ----------
    store:
        The :class:`ResultStore` computed results land in (the same one
        the serving layer reads warm entries from).
    n_workers:
        Worker-thread pool size (started lazily on first submit).
    max_queue:
        Bound on queued jobs; beyond it :meth:`submit` raises
        :class:`QueueFullError`.
    compute:
        Override the compute callable (tests inject slow/failing
        computes); defaults to ``run_cached(scenario, store)``.
    on_terminal:
        Optional callback invoked once per job reaching a terminal state,
        under the lock and before any waiter wakes — the serving layer
        bumps its ``computed``/``served_from_store`` counters here.
    """

    def __init__(
        self,
        store: ResultStore,
        *,
        n_workers: int = DEFAULT_JOB_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        compute: "Callable[[Scenario], StoredResult] | None" = None,
        on_terminal: "Callable[[Job], None] | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if max_queue < 1:
            raise ConfigError(f"max_queue must be >= 1, got {max_queue}")
        self.store = store
        self.n_workers = n_workers
        self.max_queue = max_queue
        self._compute = compute or (
            lambda scenario: run_cached(scenario, self.store)
        )
        self._on_terminal = on_terminal
        self.counters = JobCounters()
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()  # queued digests, FIFO
        self._jobs: dict[str, Job] = {}  # in-flight: queued + running
        self._terminal: OrderedDict[str, Job] = OrderedDict()
        self._threads: list[threading.Thread] = []
        #: EMA of completed compute wall times, feeding Retry-After.
        self._avg_wall_s: float | None = None
        self._shutdown = False

    # -- submission ---------------------------------------------------------
    def submit(
        self, scenario: Scenario, digest: str, *, origin: str = "registry"
    ) -> dict[str, Any]:
        """Enqueue one digest (or coalesce onto its in-flight job).

        Returns a snapshot of the job serving this digest; the
        ``"coalesced_onto_existing"`` key says whether this submission
        created the job or joined one already in flight.  Raises
        :class:`QueueFullError` when the queue is at capacity.
        """
        with self._cond:
            snapshots = self._submit_locked([(scenario, digest, origin)])
        return snapshots[digest]

    def submit_many(
        self, specs: "list[tuple[Scenario, str, str]]"
    ) -> dict[str, dict[str, Any]]:
        """Enqueue a batch of ``(scenario, digest, origin)`` atomically.

        Capacity is checked for the whole batch up front: either every
        genuinely-new digest is enqueued or none is (a partial batch
        admission would leave the client guessing which half ran).
        Duplicate digests within the batch, and digests already in
        flight, coalesce exactly like single submissions.
        """
        with self._cond:
            return self._submit_locked(specs)

    def run(
        self, specs: "list[tuple[Scenario, str, str]]"
    ) -> "dict[str, StoredResult | dict[str, str]]":
        """Submit like :meth:`submit_many`, then block until every job is
        terminal.

        Returns, per digest, the job's :class:`StoredResult` — or, for a
        failed job, its structured ``{"error", "detail"}``.  Raises
        :class:`QueueFullError` exactly as :meth:`submit_many` does.
        """
        with self._cond:
            self._submit_locked(specs)
            futures = {
                digest: self._jobs[digest].future for _, digest, _ in specs
            }
        return {digest: future.result() for digest, future in futures.items()}

    def _submit_locked(
        self, specs: "list[tuple[Scenario, str, str]]"
    ) -> dict[str, dict[str, Any]]:
        needed = len(
            {digest for _, digest, _ in specs if digest not in self._jobs}
        )
        if len(self._queue) + needed > self.max_queue:
            self.counters.rejected += 1
            raise QueueFullError(
                len(self._queue), self.max_queue, self._retry_after_locked()
            )
        snapshots: dict[str, dict[str, Any]] = {}
        for scenario, digest, origin in specs:
            job = self._jobs.get(digest)
            if job is not None:
                job.coalesced += 1
                self.counters.coalesced += 1
                snapshots[digest] = self._snapshot_locked(
                    job, coalesced_onto_existing=True
                )
                continue
            # A retained terminal job for this digest is superseded: a
            # resubmission after failure (or after store eviction) gets a
            # fresh run, and status queries must see the new job.
            self._terminal.pop(digest, None)
            job = Job(digest=digest, scenario=scenario, origin=origin)
            self._jobs[digest] = job
            self._queue.append(digest)
            self.counters.submitted += 1
            self._ensure_workers_locked()
            self._cond.notify()
            snapshots[digest] = self._snapshot_locked(
                job, coalesced_onto_existing=False
            )
        return snapshots

    # -- queries ------------------------------------------------------------
    def describe(self, digest: str) -> dict[str, Any] | None:
        """Snapshot of the job serving ``digest`` (in-flight or retained
        terminal), or ``None``."""
        with self._cond:
            job = self._jobs.get(digest) or self._terminal.get(digest)
            if job is None:
                return None
            return self._snapshot_locked(job)

    def list_jobs(self, max_terminal: int = 32) -> list[dict[str, Any]]:
        """Snapshots of every in-flight job plus the most recent terminal
        ones (newest first, capped)."""
        with self._cond:
            live = [
                self._snapshot_locked(self._jobs[digest])
                for digest in self._queue
            ]
            live += [
                self._snapshot_locked(job)
                for job in self._jobs.values()
                if job.state == RUNNING
            ]
            recent = [
                self._snapshot_locked(job)
                for job in list(self._terminal.values())[-max_terminal:]
            ][::-1]
        return live + recent

    def stats(self) -> dict[str, Any]:
        """The ``/stats`` ``jobs`` block: config, per-state gauges and
        lifetime counters."""
        with self._cond:
            terminal_done = sum(
                1 for job in self._terminal.values() if job.state == DONE
            )
            return {
                "workers": self.n_workers,
                "max_queue": self.max_queue,
                "queued": len(self._queue),
                # In flight = queued + running.
                "running": len(self._jobs) - len(self._queue),
                "retained_done": terminal_done,
                "retained_failed": len(self._terminal) - terminal_done,
                "submitted": self.counters.submitted,
                "coalesced": self.counters.coalesced,
                "rejected": self.counters.rejected,
                "done": self.counters.done,
                "failed": self.counters.failed,
                "avg_wall_s": self._avg_wall_s,
                "retry_after_s": self._retry_after_locked(),
            }

    def _retry_after_locked(self) -> int:
        # Depth × recent average wall time / workers, floored at 1 s; an
        # empty history (no completions yet) assumes 1 s per job.
        per_job = self._avg_wall_s if self._avg_wall_s else 1.0
        estimate = (len(self._queue) + 1) * per_job / self.n_workers
        return max(1, min(MAX_RETRY_AFTER_S, math.ceil(estimate)))

    def _snapshot_locked(
        self, job: Job, *, coalesced_onto_existing: bool | None = None
    ) -> dict[str, Any]:
        now = time.monotonic()
        position = None
        if job.state == QUEUED:
            try:
                position = self._queue.index(job.digest) + 1
            except ValueError:  # popped between state check and here
                position = None
        snapshot: dict[str, Any] = {
            "digest": job.digest,
            "name": job.scenario.name,
            "origin": job.origin,
            "status": job.state,
            "queue_position": position,
            "created_unix": job.created_unix,
            "queue_wait_s": (
                job.queue_wait_s
                if job.queue_wait_s is not None
                else now - job.submitted_monotonic
            ),
            "wall_time_s": job.wall_time_s,
            "coalesced": job.coalesced,
            "error": dict(job.error) if job.error else None,
            "provenance": job.provenance,
            "from_cache": job.from_cache,
        }
        if job.state == RUNNING and job.started_monotonic is not None:
            snapshot["running_s"] = now - job.started_monotonic
        if job.state == DONE:
            snapshot["result_url"] = f"/results/{job.digest}"
        if coalesced_onto_existing is not None:
            snapshot["coalesced_onto_existing"] = coalesced_onto_existing
        return snapshot

    # -- worker pool --------------------------------------------------------
    def _ensure_workers_locked(self) -> None:
        while len(self._threads) < self.n_workers:
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-job-worker-{len(self._threads)}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._cond.wait()
                if self._shutdown:
                    return
                digest = self._queue.popleft()
                job = self._jobs[digest]
                now = time.monotonic()
                job.state = RUNNING
                job.started_monotonic = now
                job.queue_wait_s = now - job.submitted_monotonic
            error: dict[str, str] | None = None
            result: StoredResult | None = None
            try:
                result = self._compute(job.scenario)
            except ReproError as exc:
                # Whose spec was it?  An inline spec that only blows up
                # once computed (a bad value, a decomposition that cannot
                # be mapped) is still the client's bad request; a registry
                # spec failing is a server-side defect.
                slug = (
                    "invalid-scenario"
                    if job.origin == "inline"
                    else "compute-failed"
                )
                error = {"error": slug, "detail": str(exc)}
            except Exception as exc:  # noqa: BLE001 — no-traceback contract
                error = {
                    "error": "internal",
                    "detail": f"unexpected {type(exc).__name__}",
                }
            self._finish(job, result, error)

    def _finish(
        self,
        job: Job,
        result: StoredResult | None,
        error: dict[str, str] | None,
    ) -> None:
        with self._cond:
            job.wall_time_s = (
                time.monotonic() - job.started_monotonic
                if job.started_monotonic is not None
                else None
            )
            if error is None and result is not None:
                job.state = DONE
                job.from_cache = result.from_cache
                job.provenance = (
                    result.provenance.to_dict() if result.provenance else None
                )
                self.counters.done += 1
                if job.wall_time_s is not None and not result.from_cache:
                    # EMA over genuinely-computed jobs only; warm races
                    # would drag the backlog estimate toward zero.
                    self._avg_wall_s = (
                        job.wall_time_s
                        if self._avg_wall_s is None
                        else 0.7 * self._avg_wall_s + 0.3 * job.wall_time_s
                    )
            else:
                job.state = FAILED
                job.error = error or {
                    "error": "internal",
                    "detail": "compute returned nothing",
                }
                self.counters.failed += 1
            self._jobs.pop(job.digest, None)
            self._terminal[job.digest] = job
            while len(self._terminal) > DEFAULT_RETENTION:
                self._terminal.popitem(last=False)
            future, job.future = job.future, None
            if self._on_terminal is not None:
                try:
                    self._on_terminal(job)
                except Exception:  # noqa: BLE001 — a stats hook must not
                    pass  # kill the worker loop
        future.set_result(result if job.state == DONE else dict(job.error))

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the worker pool (idempotent).

        Jobs still queued fail, so nothing blocks on them forever; a job
        mid-compute finishes (its thread is joined with ``timeout``).
        """
        with self._cond:
            self._shutdown = True
            self._cond.notify_all()
            threads = list(self._threads)
            abandoned = [self._jobs[digest] for digest in self._queue]
            self._queue.clear()
        for job in abandoned:
            self._finish(job, None, {"error": "internal", "detail": "shutdown"})
        for thread in threads:
            thread.join(timeout=timeout)


__all__ = [
    "DEFAULT_JOB_WORKERS",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_RETENTION",
    "DONE",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobCounters",
    "JobManager",
    "QUEUED",
    "QueueFullError",
    "RUNNING",
]
