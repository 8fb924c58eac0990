"""Regression tests for the serving-layer bugfix sweep.

Four separately-shipped fixes, each pinned so it cannot quietly revert:

1. ``/stats`` ``runs`` counts 304-revalidated runs too (the counter used
   to be bumped *after* the ``If-None-Match`` early return).
2. ``POST /run`` batches digest every item at most once (the app's
   warmness probe and :func:`run_many` used to each hash every spec); a
   registry name is digested once per app, not per request.
3. ``uptime_s`` derives from the monotonic clock — a wall-clock step
   (NTP, ``date -s``) can never make uptime jump or go negative.
4. ``Content-Length`` parsing is strict ASCII digits — bare ``int()``
   used to accept ``"+100"``, ``" 100 "`` and ``"1_0"``.  A length of
   over 4300 digits, which ``int()`` refuses, is answered too.
5. A *mid-compute* ConfigError or MappingError is no longer a blanket
   status: a registry (server-owned) spec failing is a
   500/``compute-failed``; only a client-sent inline spec is blamed as
   400/``invalid-scenario`` (an unmappable inline decomposition used to
   be a 500 ``internal``).  The compute runs on the job engine even for
   ``?wait=1``, so the failure is injected there.  A grid cell of the
   wrong type is rejected by spec validation, before any job is queued.
6. ``shutdown()`` stops the accept loop at once: it used to return only
   after ``serve_forever``'s next select timeout (0.5 s by default).
7. A warm ``POST /run`` hashes an inline spec once (the store lookup
   used to digest it a second time), and a registry name not at all
   after its first request.
8. A store named by a ``Path`` (or given as a backend object) is built
   into a :class:`ResultStore` like a URL is: the app used to keep the
   ``Path`` itself, so every request, ``/healthz`` included, was a 500.
9. A request hidden in a POST body is never answered (request
   smuggling).  ``email.parser`` read the request head: a blank before a
   header's colon, or a malformed line, ended the headers early, and of
   two ``Content-Length`` lines the first won, so the body's bytes were
   parsed as a second request.  Each such head, and an obs-fold
   continuation line, is now a 400 that closes the connection.
10. Protocol errors keep the JSON error contract: a method without a
    stdlib ``do_*`` handler got an HTML 501, ``GARBAGE`` and
    ``HTTP/2.0`` request lines got an HTML body with no status line, and
    414/431 came back as HTML.  Every method is routed to the app, and
    every protocol error is a status line, an ``error_response`` body and
    ``Connection: close``.  A head of exactly 100 header lines is read
    (the stdlib counted its blank line as the 101st).  Seeded byte
    mutations of valid requests get replies that each start with a status
    line, or a clean close.  A header line of 65,000 blanks before a NUL
    is rejected in linear time, not by trying every split of the blanks.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time

import pytest

from repro.errors import ConfigError, MappingError
from repro.scenarios import get
from repro.scenarios.backends import InMemoryBackend
from repro.scenarios.batch import run_many
from repro.scenarios.store import ResultStore, run_cached, scenario_digest
from repro.serving.app import ServeStats, ServingApp
from repro.serving.server import create_server


@pytest.fixture
def app(tmp_path):
    application = ServingApp(ResultStore(tmp_path / "store"))
    yield application
    application.close()


class TestStatsCount304Runs:
    def test_revalidated_run_still_counts_as_a_run(self, app):
        warm = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
        )
        assert warm.status == 200
        assert app.stats.runs == 1
        revalidated = app.handle(
            "POST",
            "/run",
            json.dumps({"scenario": "table1"}).encode(),
            {"If-None-Match": warm.headers["ETag"]},
        )
        assert revalidated.status == 304
        assert app.stats.runs == 2
        assert app.stats.not_modified == 1


class TestBatchDigestsOnce:
    def test_batch_endpoint_never_rehashes_specs(self, app, monkeypatch):
        inline = get("table1").to_dict()
        body = json.dumps({"scenarios": ["table1", inline, "table1"]}).encode()
        assert app.handle("POST", "/run?wait=1", body).status == 200  # warm
        calls = []

        def counting(scenario, schema):
            calls.append(scenario.name)
            return scenario_digest(scenario, schema)

        monkeypatch.setattr("repro.scenarios.store.scenario_digest", counting)
        response = app.handle("POST", "/run?wait=1", body)
        assert response.status == 200
        assert json.loads(response.body_bytes())["stats"]["n_from_store"] == 1
        # One hash per inline item (the warm reads reuse the batch's
        # digests); the registry name was hashed by the first request.
        assert calls == ["table1"]


class TestMonotonicUptime:
    def test_wall_clock_step_cannot_bend_uptime(self, monkeypatch):
        stats = ServeStats()
        base_monotonic = stats.started_monotonic
        monkeypatch.setattr(time, "monotonic", lambda: base_monotonic + 5.0)
        # A violent NTP step backwards: wall clock now reads an hour
        # *before* the process started.
        monkeypatch.setattr(time, "time", lambda: stats.started_unix - 3600.0)
        reported = stats.to_dict()
        assert reported["uptime_s"] == pytest.approx(5.0)
        # The wall-clock start stamp survives for display, unbent.
        assert reported["started_unix"] == stats.started_unix

    def test_uptime_never_negative_even_immediately(self):
        assert ServeStats().to_dict()["uptime_s"] >= 0.0


class TestStrictContentLength:
    def raw_post(self, live_server, length_value):
        """POST /run with a hand-written Content-Length header."""
        conn = http.client.HTTPConnection(
            live_server.host, live_server.port, timeout=30
        )
        try:
            conn.putrequest("POST", "/run")
            conn.putheader("Content-Length", length_value)
            conn.endheaders()
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @pytest.mark.parametrize(
        "length_value",
        # Surrounding whitespace (" 100") never reaches the check — the
        # request reader strips it — so the cases here are the
        # embedded forms bare int() used to accept.  "²" is a latin-1
        # unicode digit: isdigit() passes, isascii() does not — the
        # exact hole the strict check closes.
        ["+100", "1_0", "0x10", "-1", "1e2", "1 0", "²"],
    )
    def test_non_digit_lengths_are_rejected(self, live_server, length_value):
        status, body = self.raw_post(live_server, length_value)
        assert status == 400
        assert body["error"] == "bad-content-length"

    def test_plain_digits_still_work(self, live_server):
        reply = live_server.post_json("/run?wait=1", {"scenario": "table1"})
        assert reply.status == 200

    def test_a_length_of_thousands_of_digits_is_answered(self, wire):
        """``int()`` refuses a string of over 4300 digits: such a length
        escaped the handler as a ValueError, and the connection closed
        unanswered.  With leading zeros it is the length it spells; over
        the limit it is a 413."""
        body = json.dumps({"scenario": "table1"}).encode()
        conn = wire()
        conn.send(
            b"POST /run?wait=1 HTTP/1.1\r\nContent-Length: "
            + b"0" * 5000 + b"%d\r\n\r\n" % len(body) + body
        )
        assert conn.reply().status == 200
        conn.send(
            b"POST /run HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
        )
        body = assert_json_error_then_close(conn, 413)
        assert body["error"] == "payload-too-large"


#: The library errors a compute can raise once a spec is running.
COMPUTE_ERRORS = pytest.mark.parametrize(
    "error", [ConfigError, MappingError], ids=lambda e: e.__name__
)


class TestComputeErrorClassification:
    @COMPUTE_ERRORS
    def test_registry_spec_failing_mid_compute_is_a_500(
        self, app, monkeypatch, error
    ):
        def boom(*args, **kwargs):
            raise error("registry recipe bug")

        monkeypatch.setattr("repro.serving.jobs.run_cached", boom)
        response = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
        )
        assert response.status == 500
        assert response.body["error"] == "compute-failed"
        assert "Traceback" not in response.body["detail"]
        assert app.stats.server_errors == 1

    @COMPUTE_ERRORS
    def test_inline_spec_failing_mid_compute_stays_a_400(
        self, app, monkeypatch, error
    ):
        def boom(*args, **kwargs):
            raise error("inline spec bug")

        monkeypatch.setattr("repro.serving.jobs.run_cached", boom)
        spec = get("fig3c-blade-spec").to_dict()
        response = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": spec}).encode()
        )
        assert response.status == 400
        assert response.body["error"] == "invalid-scenario"

    @COMPUTE_ERRORS
    def test_batch_classification_follows_the_origins(
        self, app, monkeypatch, error
    ):
        def boom(*args, **kwargs):
            raise error("mid-compute failure")

        monkeypatch.setattr("repro.serving.jobs.run_cached", boom)
        all_registry = app.handle(
            "POST",
            "/run?wait=1",
            json.dumps({"scenarios": ["table1"]}).encode(),
        )
        assert all_registry.status == 500
        spec = get("fig3c-blade-spec").to_dict()
        with_inline = app.handle(
            "POST",
            "/run?wait=1",
            json.dumps({"scenarios": ["table1", spec]}).encode(),
        )
        assert with_inline.status == 400
        assert with_inline.body["error"] == "invalid-scenario"

    def test_unmappable_inline_spec_is_a_400(self, app):
        """A valid spec whose decomposition does not fit its system raises
        MappingError only once computed: the client's error, waited or
        polled."""
        spec = get("fig7-gpu").to_dict()
        spec["parallel"] = {"tensor_parallel": 128}
        payload = json.dumps({"scenario": spec}).encode()
        waited = app.handle("POST", "/run?wait=1", payload)
        assert waited.status == 400
        assert waited.body["error"] == "invalid-scenario"
        assert "does not match 64 accelerators" in waited.body["detail"]

        polled = app.handle("POST", "/run", payload)
        assert polled.status == 202
        digest = polled.body["digest"]
        assert app.jobs.wait(digest, timeout=30)
        status = app.handle("GET", f"/jobs/{digest}")
        assert status.body["status"] == "failed"
        assert status.body["error"]["error"] == "invalid-scenario"

    def test_wrong_type_grid_cell_is_a_400_before_queuing(self, app):
        """A grid cell that cannot be its field's type used to pass spec
        validation and raise TypeError mid-compute: a 500 ``internal``."""
        spec = get("fig7-bandwidth").to_dict()
        spec["grid"]["rows"][0] = ["x"]
        payload = json.dumps({"scenario": spec}).encode()
        for path in ("/run?wait=1", "/run"):
            response = app.handle("POST", path, payload)
            assert response.status == 400
            assert response.body["error"] == "invalid-scenario"
            assert "system.dram_bandwidth_tbps" in response.body["detail"]
        assert app.jobs.counters.submitted == 0


class TestWarmRunDigestsOnce:
    def test_warm_post_run_hashes_its_spec_once(self, app, monkeypatch):
        by_name = json.dumps({"scenario": "table1"}).encode()
        inline = json.dumps({"scenario": get("table1").to_dict()}).encode()
        assert app.handle("POST", "/run?wait=1", by_name).status == 200
        calls = []

        def counting(scenario, schema):
            calls.append(scenario.name)
            return scenario_digest(scenario, schema)

        monkeypatch.setattr("repro.scenarios.store.scenario_digest", counting)
        for payload in (inline, by_name):
            warm = app.handle("POST", "/run", payload)
            assert warm.status == 200
            assert json.loads(warm.body_bytes())["from_cache"] is True
        # The inline spec is hashed once; the registry name not again.
        assert calls == ["table1"]


class TestShutdownIsImmediate:
    def test_shutdown_does_not_wait_for_the_poll(self, tmp_path):
        server = create_server(port=0, cache=f"file://{tmp_path}/store")
        # A poll this long would hold a polled shutdown for half a minute.
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 30.0}
        )
        thread.start()
        try:
            host, port = server.server_address[:2]
            conn = http.client.HTTPConnection(host, port, timeout=10)
            conn.request("GET", "/healthz")
            assert conn.getresponse().status == 200
            conn.close()
        finally:
            started = time.monotonic()
            server.shutdown()
            elapsed = time.monotonic() - started
            server.server_close()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert elapsed < 5.0


class TestAnyStoreArgument:
    def test_serving_app_takes_a_path(self, tmp_path):
        app = ServingApp(tmp_path / "store")
        try:
            reply = app.handle(
                "POST",
                "/run?wait=1",
                json.dumps({"scenario": "table1"}).encode(),
            )
            assert reply.status == 200
            assert app.store.cache_dir == tmp_path / "store"
        finally:
            app.close()

    def test_create_server_takes_a_path(self, tmp_path):
        server = create_server(port=0, cache=tmp_path / "store")
        try:
            assert server.app.handle("GET", "/healthz").status == 200
        finally:
            server.server_close()

    def test_run_cached_and_run_many_take_a_backend(self):
        backend = InMemoryBackend()
        cold = run_cached(get("table1"), backend)
        assert not cold.from_cache and backend.contains(cold.digest)
        (entry,) = run_many(["table1"], store=backend).entries
        assert entry.from_cache


#: ``GET /scenarios`` as a 36-byte POST body.
SMUGGLED = b"GET /scenarios HTTP/1.1\r\nHost: x\r\n\r\n"


def assert_json_error_then_close(conn, status: int) -> dict:
    """The connection's one reply is a JSON ``status`` error that closes
    it, and nothing is answered after it."""
    reply = conn.reply()
    assert reply.status == status
    assert reply.header("Content-Type") == "application/json"
    body = reply.json()
    assert set(body) == {"error", "detail"}
    assert reply.header("Connection") == "close"
    assert conn.closed_by_server()
    return body


class TestNoRequestSmuggling:
    @pytest.mark.parametrize(
        "framing",
        [
            "Content-Length : 36",
            "Content-Length: 0\r\nContent-Length: 36",
            "X Bad: 1\r\nContent-Length: 36",
            "X-Folded: a\r\n continued\r\nContent-Length: 36",
        ],
        ids=["blank-before-colon", "two-lengths", "bad-line", "obs-fold"],
    )
    def test_a_request_in_a_post_body_is_never_answered(self, wire, framing):
        assert len(SMUGGLED) == 36
        conn = wire()
        conn.send(
            f"POST /run HTTP/1.1\r\nHost: x\r\n{framing}\r\n\r\n".encode()
            + SMUGGLED
        )
        assert_json_error_then_close(conn, 400)

    @pytest.mark.parametrize(
        "line",
        [b"X-A: a\rb", b"X-A: a\x00b", b": no-name", b"no-colon", b"X-A\t: 1"],
        ids=["bare-cr", "nul", "empty-name", "no-colon", "tab-before-colon"],
    )
    def test_other_malformed_header_lines_are_400(self, wire, line):
        conn = wire()
        conn.send(b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n\r\n")
        assert_json_error_then_close(conn, 400)

    def test_blanks_around_a_value_are_not_part_of_it(self, wire):
        conn = wire()
        body = json.dumps({"scenario": "no-such-scenario"}).encode()
        conn.send(
            b"POST /run HTTP/1.1\r\nContent-Length: \t%d \t\r\n\r\n"
            % len(body) + body
        )
        assert conn.reply().status == 404


class TestProtocolErrorsAreJson:
    @pytest.mark.parametrize("method", ["TRACE", "CONNECT", "BREW"])
    def test_every_method_is_routed_to_the_app(self, wire, method):
        conn = wire()
        conn.send(f"{method} /healthz HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        reply = conn.reply()
        assert reply.status == 405
        assert reply.json()["error"] == "method-not-allowed"

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /\r\n\r\n", 400),
            (b"GET  /healthz HTTP/1.1\r\n\r\n", 400),
            (b"GET / HTTP/2.0\r\n\r\n", 505),
            (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET / HTTP/1.1\r\nX-Long: " + b"a" * 65536 + b"\r\n\r\n", 431),
            (
                b"GET / HTTP/1.1\r\n"
                + b"".join(b"X-%d: 1\r\n" % i for i in range(101))
                + b"\r\n",
                431,
            ),
        ],
        ids=[
            "garbage", "http09", "two-spaces", "http2", "414", "431-line",
            "431-count",
        ],
    )
    def test_protocol_errors_are_json_and_close(self, wire, head, status):
        conn = wire()
        conn.send(head)
        assert_json_error_then_close(conn, status)

    @pytest.mark.parametrize("lines, seconds", [(1, 1.0), (100, 5.0)])
    def test_a_run_of_blanks_is_rejected_in_linear_time(
        self, wire, lines, seconds
    ):
        """``X:``, 65,000 blanks and a NUL is a prompt 400.  A header
        pattern that could split the blanks two ways tried every split:
        ~30 s for one such line, with the GIL held, so every handler
        stalled."""
        conn = wire()
        started = time.monotonic()
        conn.send(
            b"GET /healthz HTTP/1.1\r\n"
            + (b"X:" + b" " * 65000 + b"\x00\r\n") * lines
            + b"\r\n"
        )
        assert assert_json_error_then_close(conn, 400)["error"] == "bad-header"
        assert time.monotonic() - started < seconds

    def test_100_header_lines_are_read(self, wire):
        conn = wire()
        conn.send(
            b"GET /healthz HTTP/1.1\r\n"
            + b"".join(b"X-%d: 1\r\n" % i for i in range(100))
            + b"\r\n"
        )
        assert conn.reply().status == 200

    def test_mutated_heads_get_json_or_a_close(self, live_server):
        """Seeded byte mutations of valid requests: each connection's
        answer is nothing (a clean close) or replies that each start with
        a status line, with a JSON body on every error."""
        rng = random.Random(12)
        bases = [
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
            b"POST /run HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
            b"HEAD /scenarios HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
        ]
        for _ in range(150):
            data = bytearray(rng.choice(bases))
            for _ in range(rng.randint(1, 3)):
                data.insert(
                    rng.randrange(len(data) + 1), rng.choice(b" \t\r\n:\x00a")
                )
            with socket.create_connection(
                (live_server.host, live_server.port), timeout=10
            ) as sock:
                sock.sendall(bytes(data))
                sock.shutdown(socket.SHUT_WR)
                stream = b""
                try:
                    while chunk := sock.recv(1 << 16):
                        stream += chunk
                except ConnectionResetError:
                    pass
            heads = [
                head for head in stream.split(b"\r\n\r\n")
                if head.startswith(b"HTTP/1.1 ")
            ]
            assert not stream or stream.startswith(b"HTTP/1.1 "), data
            for head in heads:
                if int(head.split()[1]) >= 400:
                    assert b"Content-Type: application/json" in head, data
