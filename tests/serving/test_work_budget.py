"""Work budget of the warm serving path: counts, not timings.

A fixed warm mix is replayed in-process through ``ServingApp.handle`` and
``Response.body_bytes`` on a ``mem://,file://`` store whose file tier was
filled by another store (as a daemon finds it): fig5, fig7-gpu, dse and
table1, each over ``POST /run`` by name and inline, ``GET /results``,
``…/csv`` (where the scenario has one), ``…/text`` and both
``If-None-Match`` revalidations.  After one untimed pass has promoted
every entry and filled every memo, each route's requests run under
cProfile, which counts per request:

* ``python_calls`` — every call cProfile sees, C builtins included;
* ``json_encoder_calls`` / ``json_decoder_calls`` — calls into
  ``json/encoder.py`` and ``json/decoder.py`` (an ``indent`` sends the
  encoder down its pure-Python path, one call per emitted chunk);
* ``backend_reads`` — reads of the store's tiers, mem and file together.

The ``wire`` row replays the same requests, as HTTP/1.1 bytes, through
the daemon's request handler over one loopback keep-alive connection and
counts per request every Python call of the handler (the app's included)
and the calls into ``email/``.  Each route's requests are written, and
have all arrived, before the handler reads the first of them, so every
socket read returns the same bytes on every run.

Calls are summed per function label by ``tests/call_counts.py``, so the
calls of every dataclass-generated method count, whichever class it
belongs to.  These counts repeat exactly from run to run, where timings
on a shared host do not, so a count that rises by more than 1% over its
pin in ``tests/data/work_budget.json`` fails and names the ten functions
whose call counts grew most.  A count that falls passes; re-pin it so
that the saving is on record (the pins are per Python minor version)::

    PYTHONPATH=src:tests python tests/serving/test_work_budget.py
"""

from __future__ import annotations

import cProfile
import gc
import json
import socket
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.scenarios import get
from repro.scenarios.store import ResultStore, run_cached
from repro.serving.app import ServingApp
from repro.serving.server import _Handler

from call_counts import calls_per_function, calls_per_label  # tests/

BUDGET = Path(__file__).resolve().parents[1] / "data" / "work_budget.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
MIX = ("fig5", "fig7-gpu", "dse", "table1")
#: Profiled replays of each route's requests (after one untimed pass).
PASSES = 5
#: How far a count may rise over its pin before the budget fails.
TOLERANCE = 0.01
COUNTS = (
    "python_calls",
    "json_encoder_calls",
    "json_decoder_calls",
    "backend_reads",
)


def _json_calls(calls: Counter, module: str) -> int:
    prefix = f"json/{module}.py:"
    return sum(n for key, n in calls.items() if key.startswith(prefix))


def warm_requests(app: ServingApp) -> dict[str, list[tuple]]:
    """Route name -> the mix's requests on it, as ``handle`` arguments."""
    routes: dict[str, list[tuple]] = {}
    for name in MIX:
        by_name = json.dumps({"scenario": name}).encode()
        inline = json.dumps({"scenario": get(name).to_dict()}).encode()
        reply = json.loads(app.handle("POST", "/run", by_name).body_bytes())
        digest = reply["digest"]
        etag = {"If-None-Match": f'"{digest}"'}
        requests = {
            "POST /run by name": ("POST", "/run", by_name, {}),
            "POST /run inline": ("POST", "/run", inline, {}),
            "GET /results": ("GET", f"/results/{digest}", b"", {}),
            "GET /results/text": ("GET", f"/results/{digest}/text", b"", {}),
            "POST /run 304": ("POST", "/run", by_name, etag),
            "GET /results 304": ("GET", f"/results/{digest}", b"", etag),
        }
        if reply["artifacts"]["csv"] is not None:
            requests["GET /results/csv"] = (
                "GET", f"/results/{digest}/csv", b"", {},
            )
        for route, request in requests.items():
            routes.setdefault(route, []).append(request)
    return routes


def _profiled_calls(profiler: cProfile.Profile) -> Counter[str]:
    """Calls per function (``file:function``) of a finished profile."""
    return calls_per_function(calls_per_label(profiler))


def wire_request(request: tuple, op: int) -> bytes:
    """A ``handle`` request as the HTTP/1.1 bytes a benchmark client
    sends: ``Host`` and ``X-Bench-Op`` first, a body framed by
    ``Content-Length``."""
    method, path, body, headers = request
    lines = [f"{method} {path} HTTP/1.1", "Host: budget", f"X-Bench-Op: w{op}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    if method == "POST":
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def reply_statuses(stream: bytes) -> list[int]:
    """The status of every reply in a keep-alive reply stream."""
    statuses = []
    while stream:
        head, _, stream = stream.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.lower() == "content-length":
                length = int(value)
        statuses.append(int(lines[0].split()[1]))
        stream = stream[length:]
    return statuses


def replay_wire(
    app: ServingApp, routes: dict[str, list[tuple]]
) -> tuple[dict[str, float], Counter[str]]:
    """Replay ``routes`` through ``_Handler`` over one loopback keep-alive
    connection, once unprofiled and then :data:`PASSES` times under
    cProfile: the per-request counts and the calls per function.

    The handler runs on this thread one request at a time while a second
    thread drains the replies.  All of a route's request bytes have
    arrived before the handler reads the first of them.  The handler's
    clock stands still for the replay: the ``Date`` header is memoized
    for one wall-clock second, so a replay that crossed a second would
    count one more miss of the memo.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    client = socket.create_connection(listener.getsockname()[:2])
    conn, address = listener.accept()
    listener.close()
    replies = bytearray()

    def drain() -> None:
        while chunk := client.recv(1 << 16):
            replies.extend(chunk)

    drainer = threading.Thread(target=drain, daemon=True)
    drainer.start()
    # The stdlib's constructor would serve the whole connection; set the
    # handler up by hand and step it one request at a time instead.
    handler = _Handler.__new__(_Handler)
    handler.request, handler.client_address = conn, address
    handler.server = SimpleNamespace(app=app, quiet=True)
    handler.setup()
    sent = 0

    def write(batch: list[tuple]) -> None:
        """Write ``batch`` and wait until all of it has arrived."""
        nonlocal sent
        wire = b"".join(wire_request(r, op) for op, r in enumerate(batch))
        client.sendall(wire)
        sent += len(batch)
        while len(conn.recv(len(wire), socket.MSG_PEEK)) < len(wire):
            time.sleep(0.001)

    functions: Counter[str] = Counter()
    clock = time.time
    # A builtin, as time.time is, so cProfile counts each call the same.
    time.time = float(clock()).conjugate  # the handler's time.time
    try:
        for requests in routes.values():  # an unprofiled pass first
            write(requests)
            for _ in requests:
                handler.handle_one_request()
        for _, requests in sorted(routes.items()):
            batch = requests * PASSES
            write(batch)
            gc.collect()
            gc.disable()
            profiler = cProfile.Profile()
            profiler.enable()
            for _ in batch:
                handler.handle_one_request()
            profiler.disable()
            gc.enable()
            functions.update(_profiled_calls(profiler))
    finally:
        time.time = clock
        handler.finish()
        conn.close()
        drainer.join(timeout=30)
        client.close()
    statuses = reply_statuses(bytes(replies))
    assert len(statuses) == sent and set(statuses) <= {200, 304}, statuses
    n = PASSES * sum(len(requests) for requests in routes.values())
    email = sum(c for key, c in functions.items() if key.startswith("email/"))
    counts = {
        "python_calls": round(sum(functions.values()) / n, 2),
        "email_calls": round(email / n, 2),
    }
    return counts, functions


def measure(directory: Path) -> dict:
    """The counts of one replay of the mix over a store in ``directory``:
    in-process through the app, then through the handler."""
    producer = ResultStore(f"file://{directory}")
    for name in MIX:
        run_cached(get(name), producer)
    app = ServingApp(f"mem://,file://{directory}")
    totals: dict[str, Counter[str]] = {}
    functions: Counter[str] = Counter()
    try:
        routes = warm_requests(app)
        for requests in routes.values():  # promote, fill the memos
            for request in requests:
                assert app.handle(*request).status in (200, 304)
        tiers = app.store.backend.tiers
        gc.collect()
        gc.disable()  # no finalizer may run inside a profiled request
        try:
            for route, requests in sorted(routes.items()):
                reads = sum(tier.counters.reads for tier in tiers)
                profiler = cProfile.Profile()
                profiler.enable()
                for _ in range(PASSES):
                    for request in requests:
                        app.handle(*request).body_bytes()
                profiler.disable()
                calls = _profiled_calls(profiler)
                functions.update(calls)
                totals[route] = Counter(
                    requests=PASSES * len(requests),
                    python_calls=sum(calls.values()),
                    json_encoder_calls=_json_calls(calls, "encoder"),
                    json_decoder_calls=_json_calls(calls, "decoder"),
                    backend_reads=sum(t.counters.reads for t in tiers) - reads,
                )
        finally:
            gc.enable()
        wire, wire_functions = replay_wire(app, routes)
    finally:
        app.close()

    def per_request(counts: Counter[str]) -> dict[str, float]:
        n = counts["requests"]
        return {key: round(counts[key] / n, 2) for key in COUNTS}

    return {
        "mix": per_request(sum(totals.values(), Counter())),
        "routes": {route: per_request(c) for route, c in totals.items()},
        "functions": dict(sorted(functions.items())),
        "wire": wire,
        "wire_functions": dict(sorted(wire_functions.items())),
    }


def rises(pinned: dict, measured: dict) -> list[str]:
    """Every pinned count the measurement exceeds by more than 1%."""
    measured_rows = dict(measured["routes"], wire=measured["wire"])
    found = []
    for route, counts in dict(pinned["routes"], wire=pinned["wire"]).items():
        for count, limit in counts.items():
            value = measured_rows.get(route, {}).get(count)
            if value is None or value > limit * (1 + TOLERANCE) + 1e-9:
                found.append(f"{route}: {count} {limit} -> {value}")
    return found


def _grew_most(pinned: dict, measured: dict) -> list[str]:
    """The ten functions whose call counts grew most over their pins."""
    growth = Counter(measured)
    growth.subtract(pinned)
    return [f"{key} +{n}" for key, n in growth.most_common(10) if n > 0]


def test_warm_path_stays_within_its_work_budget(tmp_path):
    pins = json.loads(BUDGET.read_text())
    if PYTHON not in pins:
        pytest.skip(
            f"no work budget pinned for Python {PYTHON}; pin one with "
            "`PYTHONPATH=src:tests python tests/serving/test_work_budget.py`"
        )
    pinned = pins[PYTHON]
    measured = measure(tmp_path)
    found = rises(pinned, measured)
    assert not found, (
        "warm work budget exceeded:\n  " + "\n  ".join(found)
        + "\nfunctions whose call counts grew most (app replay):\n  "
        + "\n  ".join(_grew_most(pinned["functions"], measured["functions"]))
        + "\nfunctions whose call counts grew most (wire replay):\n  "
        + "\n  ".join(
            _grew_most(pinned["wire_functions"], measured["wire_functions"])
        )
    )
    assert set(measured["routes"]) == set(pinned["routes"])


if __name__ == "__main__":
    pins = json.loads(BUDGET.read_text()) if BUDGET.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins[PYTHON] = measure(Path(tmp))
    BUDGET.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(
        f"pinned Python {PYTHON}: mix {json.dumps(pins[PYTHON]['mix'])}, "
        f"wire {json.dumps(pins[PYTHON]['wire'])}"
    )
