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
   used to accept ``"+100"``, ``" 100 "`` and ``"1_0"``.
5. A *mid-compute* ConfigError or MappingError is no longer a blanket
   status: a registry (server-owned) spec failing is a
   500/``compute-failed``; only a client-sent inline spec is blamed as
   400/``invalid-scenario`` (an unmappable inline decomposition used to
   be a 500 ``internal``).  The compute runs on the job engine even for
   ``?wait=1``, so the failure is injected there.  A grid cell of the
   wrong type is rejected by spec validation, before any job is queued.
6. ``shutdown()`` stops the accept loop at once: it used to return only
   after ``serve_forever``'s next select timeout (0.5 s by default).
7. A cold ``POST /run`` on a read-only store is answered with the
   artifacts: it used to 202, and the job's 303 then led to a 404.
8. A warm ``POST /run`` hashes an inline spec once (the store lookup
   used to digest it a second time), and a registry name not at all
   after its first request.
9. A store named by a ``Path`` (or given as a backend object) is built
   into a :class:`ResultStore` like a URL is: the app used to keep the
   ``Path`` itself, so every request, ``/healthz`` included, was a 500.
10. A raw-entry revalidation (``If-None-Match`` with the entry media
    type) is answered by a backend read, so the peer's use of its copy
    shows in the serving backend's counters and LRU.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.errors import ConfigError, MappingError
from repro.scenarios import get
from repro.scenarios.backends import ENTRY_CONTENT_TYPE, InMemoryBackend
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
        # stdlib header parser strips it — so the cases here are the
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


class TestReadOnlyStoreAnswersColdRunsInline:
    def test_cold_single_and_batch_return_artifacts(self, tmp_path):
        mirror = tmp_path / "mirror"
        mirror.mkdir()
        ro_app = ServingApp(ResultStore(f"ro://{mirror}"))
        try:
            single = ro_app.handle(
                "POST", "/run", json.dumps({"scenario": "table1"}).encode()
            )
            assert single.status == 200
            single_body = json.loads(single.body_bytes())
            assert single_body["from_cache"] is False
            assert single_body["artifacts"]["text"]
            batch = ro_app.handle(
                "POST",
                "/run",
                json.dumps(
                    {"scenarios": ["table1", "fig3c-blade-spec"]}
                ).encode(),
            )
            assert batch.status == 200
            entries = json.loads(batch.body_bytes())["entries"]
            assert [e["from_cache"] for e in entries] == [
                False,
                False,
            ]
            assert all(e["artifacts"]["text"] for e in entries)
            assert list(mirror.iterdir()) == []  # nothing written
        finally:
            ro_app.close()


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


class TestRawRevalidationIsARead:
    def test_raw_entry_304_counts_one_backend_read(self, app):
        warm = app.handle(
            "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
        )
        digest = json.loads(warm.body_bytes())["digest"]
        counters = app.store.backend.counters
        hits, misses = counters.hits, counters.misses
        reply = app.handle(
            "GET",
            f"/results/{digest}",
            headers={
                "Accept": ENTRY_CONTENT_TYPE,
                "If-None-Match": f'"{digest}"',
            },
        )
        assert reply.status == 304 and reply.body is None
        assert (counters.hits, counters.misses) == (hits + 1, misses)
