"""Open-loop HTTP load generator over raw keep-alive sockets.

One process, at most two threads, one keep-alive connection per thread.
Requests arrive pre-encoded; a thread sleeps until each request is due,
sends its bytes and reads the reply.  Latency is timed from when the
request was *due*, not from when it was sent, so a stall charges every
request queued behind it (coordinated omission, Tene, "How NOT to
Measure Latency"); how late the generator itself ran is recorded too.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Sequence

from common import median, now

#: A phase whose generator falls further behind than this is abandoned:
#: the rest of its requests count as failed, and the run stays bounded.
MAX_LATE_S = 2.0

#: Client-side poll interval of the cold stream (``GET /jobs/<digest>``).
POLL_INTERVAL_S = 0.005


@dataclass
class Reply:
    status: int
    headers: dict[str, str]
    body: bytes


class Connection:
    """One keep-alive HTTP/1.1 connection with a minimal reply parser."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self.sock.close()

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def exchange(self, payload: bytes) -> Reply:
        self.sock.sendall(payload)
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = self._buf[:end].decode("latin-1").split("\r\n")
        self._buf = self._buf[end + 4 :]
        status = int(head[0].split(" ", 2)[1])
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        while len(self._buf) < length:
            self._fill()
        body, self._buf = self._buf[:length], self._buf[length:]
        return Reply(status, headers, body)


@dataclass
class Sample:
    """One request of an open-loop stream."""

    index: int
    template: int
    due: float
    sent: float
    done: float
    status: int
    gzip: bool
    etag: str
    body_hash: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class StreamResult:
    samples: list[Sample] = field(default_factory=list)
    #: (template, body hash) -> (status, etag, gzip, body) of the first
    #: reply of each distinct shape, kept for the byte-identity check.
    first_bodies: dict = field(default_factory=dict)
    #: Requests never sent (the phase was abandoned) or whose exchange
    #: raised (connection error).
    unsent: int = 0
    errors: int = 0


def body_digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def run_stream(
    conn: Connection,
    schedule: Sequence[tuple[float, int, bytes]],
    t0: float,
    result: StreamResult,
) -> None:
    """Send ``(due offset, template id, payload)`` items at their due
    times (open loop) and record every reply."""
    for index, (offset, template, payload) in enumerate(schedule):
        due = t0 + offset
        wait = due - now()
        if wait > 0:
            time.sleep(wait)
        sent = now()
        if sent - due > MAX_LATE_S:
            result.unsent += len(schedule) - index
            return
        try:
            reply = conn.exchange(payload)
        except OSError:
            result.errors += 1
            result.unsent += len(schedule) - index - 1
            return
        done = now()
        sample = Sample(
            index=index,
            template=template,
            due=due,
            sent=sent,
            done=done,
            status=reply.status,
            gzip=reply.headers.get("content-encoding") == "gzip",
            etag=reply.headers.get("etag", ""),
            body_hash=body_digest(reply.body),
        )
        result.samples.append(sample)
        key = (template, sample.body_hash)
        if key not in result.first_bodies:
            result.first_bodies[key] = (
                sample.status,
                sample.etag,
                sample.gzip,
                reply.body,
            )


@dataclass
class ColdOutcome:
    """One mixed-serve cold operation's trip: submission to result bytes."""

    op_index: int
    due: float
    done: float | None = None
    status: str = "pending"  # pending | done | failed
    polls: int = 0
    coalesced: bool = False
    requests: list[tuple[float, float]] = field(default_factory=list)
    body: bytes = b""
    #: The job snapshot the 303 carried (queue wait, compute wall time).
    job: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return (self.done or self.due) - self.due


def run_cold_stream(
    conn: Connection,
    ops: Sequence,
    offsets: Sequence[float],
    t0: float,
    deadline: float,
    outcomes: list[ColdOutcome],
) -> None:
    """Drive cold ops on one connection: POST (202) → poll ``/jobs`` until
    303 → GET the result; ``?wait=1`` ops finish in their POST.  New ops
    are submitted on their open-loop schedule while earlier ones poll;
    submissions stop at ``deadline`` and in-flight ops are then drained
    (bounded by :data:`MAX_LATE_S`)."""
    active: list[tuple[float, ColdOutcome]] = []  # (next poll time, op)
    next_op = 0
    drain_until = deadline + MAX_LATE_S

    def exchange(outcome: ColdOutcome, payload: bytes) -> Reply:
        sent = now()
        reply = conn.exchange(payload)
        outcome.requests.append((sent, now()))
        return reply

    def fail(outcome: ColdOutcome) -> None:
        outcome.status = "failed"
        outcome.done = now()

    while True:
        due_new = t0 + offsets[next_op] if next_op < len(ops) else None
        if due_new is not None and due_new >= deadline:
            due_new = None
        next_poll = min(active, key=lambda item: item[0]) if active else None
        if due_new is None and next_poll is None:
            return
        if now() > drain_until:
            for _, outcome in active:
                fail(outcome)
            return
        if next_poll is None or (due_new is not None and due_new <= next_poll[0]):
            wait = due_new - now()
            if wait > 0:
                time.sleep(wait)
            op = ops[next_op]
            outcome = ColdOutcome(op_index=next_op, due=due_new)
            outcomes.append(outcome)
            next_op += 1
            try:
                reply = exchange(outcome, op.post)
            except OSError:
                fail(outcome)
                return
            if reply.status == 200:
                outcome.status, outcome.done, outcome.body = "done", now(), reply.body
            elif reply.status == 202:
                outcome.coalesced = bool(json.loads(reply.body).get("coalesced"))
                active.append((now() + POLL_INTERVAL_S, outcome))
            else:
                fail(outcome)
            continue
        poll_at, outcome = next_poll
        active.remove(next_poll)
        wait = poll_at - now()
        if wait > 0:
            time.sleep(wait)
        op = ops[outcome.op_index]
        try:
            reply = exchange(outcome, op.poll)
            outcome.polls += 1
            if reply.status == 200 and json.loads(reply.body).get("status") != "failed":
                active.append((now() + POLL_INTERVAL_S, outcome))
                continue
            if reply.status != 303:
                fail(outcome)
                continue
            outcome.job = json.loads(reply.body)
            reply = exchange(outcome, op.fetch)
        except OSError:
            fail(outcome)
            return
        if reply.status == 200:
            outcome.status, outcome.done, outcome.body = "done", now(), reply.body
        else:
            fail(outcome)


def fixed_rate_offsets(rate: float, duration: float) -> list[float]:
    """Evenly spaced due offsets for ``rate`` requests/s over ``duration``."""
    return [i / rate for i in range(int(rate * duration))]


def growing_backlog(samples: Sequence[Sample]) -> bool:
    """Whether latency trends upward across the phase: the median of its
    last quarter (by due time) more than doubles that of its first, by
    more than 5 ms.  A phase like that has no steady state to report."""
    if len(samples) < 40:
        return False
    ordered = sorted(samples, key=lambda sample: sample.due)
    quarter = len(ordered) // 4
    first = median([s.latency for s in ordered[:quarter]])
    last = median([s.latency for s in ordered[-quarter:]])
    return last - first > max(0.005, first)


def run_phase(
    conns: Sequence[Connection],
    schedules: Sequence[Sequence[tuple[float, int, bytes]]],
    start_delay: float = 0.05,
) -> list[StreamResult]:
    """Run one open-loop stream per connection, all sharing one t0."""
    t0 = now() + start_delay
    results = [StreamResult() for _ in conns]
    threads = [
        threading.Thread(target=run_stream, args=(conn, schedule, t0, result))
        for conn, schedule, result in zip(conns, schedules, results)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
