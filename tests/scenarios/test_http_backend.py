"""HTTP peer backend: revalidation, gzip, and the degrade-to-miss rule.

Two harnesses: a *real* daemon (via the shared ``live_daemon`` factory)
pins the cooperative protocol — ETag/If-None-Match revalidation, gzip on
the wire, client-driven gc — and a scripted *hostile* peer (truncated
bodies, garbage gzip, 5xx storms, wrong-digest content) pins the failure
contract: a broken or malicious peer reads as a cold tier, never as an
exception out of the storage layer.
"""

from __future__ import annotations

import gzip
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ConfigError
from repro.scenarios.backends import (
    STORE_FORMAT,
    HTTPPeerBackend,
    TieredStore,
    InMemoryBackend,
    LocalFSBackend,
)
from repro.scenarios.backends import http as http_backend_module
from repro.scenarios.backends.http import _gunzip_capped
from repro.scenarios.store import ResultStore
from tests.scenarios.test_backends import entry_bytes, tiny_scenario


def big_entry_bytes(digest: str, pad: int = 4096) -> bytes:
    """Entry bytes comfortably above the gzip threshold, compressible."""
    return json.dumps(
        {"format": STORE_FORMAT, "digest": digest, "pad": "x" * pad}
    ).encode()


class TestRevalidation:
    def test_second_read_is_a_304_served_locally(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url)
        digest = "ab" * 32
        data = big_entry_bytes(digest)
        backend.write(digest, data)
        before = daemon.app.stats.not_modified
        assert backend.read(digest) == data
        assert backend.read(digest) == data
        # Both reads revalidated the copy cached by the write itself.
        assert backend.counters.revalidations == 2
        assert daemon.app.stats.not_modified >= before + 2
        assert backend.counters.hits == 2

    def test_revalidation_survives_peer_side_rewrite(self, live_daemon):
        # A 304 must never serve stale bytes: after *this* client
        # rewrites the digest, its cache follows the write.
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url)
        digest = "cd" * 32
        backend.write(digest, big_entry_bytes(digest, pad=100))
        assert backend.read(digest) == big_entry_bytes(digest, pad=100)
        backend.write(digest, big_entry_bytes(digest, pad=999))
        assert backend.read(digest) == big_entry_bytes(digest, pad=999)

    def test_zero_revalidate_budget_still_correct(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url, revalidate_bytes=0)
        digest = "ef" * 32
        data = big_entry_bytes(digest)
        backend.write(digest, data)
        assert backend.read(digest) == data
        assert backend.read(digest) == data
        # No local copy to revalidate — every read moves the body.
        assert backend.counters.revalidations == 0

    def test_delete_drops_the_cached_copy(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url)
        digest = "0a" * 32
        backend.write(digest, entry_bytes(digest))
        assert backend.delete(digest)
        assert backend.read(digest) is None

    def test_touch_refreshes_peer_lru(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url)
        first, second = "11" * 32, "22" * 32
        backend.write(first, entry_bytes(first))
        time.sleep(0.02)  # mtimes must not tie on coarse fs clocks
        backend.write(second, entry_bytes(second))
        time.sleep(0.02)
        # A read of a locally held copy revalidates (304): the peer answers
        # it with a read of its own, which is a use there.
        assert backend.read(first) == entry_bytes(first)
        assert backend.counters.revalidations == 1
        by_mtime = sorted(
            daemon.store.backend.entries(), key=lambda e: e.mtime
        )
        assert by_mtime[-1].digest == first


class TestGzipOnTheWire:
    def test_large_entries_ship_compressed(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url)
        digest = "ab" * 32
        data = big_entry_bytes(digest)
        backend.write(digest, data)
        # Raw wire view: the response body is gzip and smaller than the
        # entry; the backend's read decodes it back to identical bytes.
        reply = daemon.request(
            "GET",
            f"/results/{digest}",
            headers={
                "Accept": http_backend_module.ENTRY_CONTENT_TYPE,
                "Accept-Encoding": "gzip",
            },
        )
        assert reply.status == 200
        assert reply.headers.get("content-encoding") == "gzip"
        assert len(reply.body) < len(data)
        assert gzip.decompress(reply.body) == data
        assert backend.read(digest) == data

    def test_gzip_off_still_round_trips(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        backend = HTTPPeerBackend(daemon.url, use_gzip=False)
        digest = "cd" * 32
        data = big_entry_bytes(digest)
        backend.write(digest, data)
        assert backend.read(digest) == data

    def test_gzipped_put_bodies_are_inflated_server_side(self, live_daemon):
        daemon = live_daemon(trust_puts=True)
        digest = "ef" * 32
        data = big_entry_bytes(digest)
        reply = daemon.request(
            "PUT",
            f"/results/{digest}",
            body=gzip.compress(data),
            headers={"Content-Encoding": "gzip"},
        )
        assert reply.status == 201
        assert daemon.store.backend.peek(digest) == data

    def test_gunzip_capped_rejects_bombs_and_garbage(self):
        blob = gzip.compress(b"\0" * 4096)
        assert _gunzip_capped(blob, 4096) == b"\0" * 4096
        with pytest.raises(OSError):
            _gunzip_capped(blob, 4095)  # inflates past the ceiling
        with pytest.raises(OSError):
            _gunzip_capped(b"\x1f\x8b\x08\x00garbage", 4096)
        with pytest.raises(OSError):
            _gunzip_capped(blob[:-5], 4096)  # truncated stream


class TestUrlAndErrors:
    def test_rejects_non_http_schemes(self):
        with pytest.raises(ConfigError):
            HTTPPeerBackend("ftp://peer:21")
        with pytest.raises(ConfigError):
            HTTPPeerBackend("http://")

    def test_rejects_query_and_bad_knobs(self):
        with pytest.raises(ConfigError):
            HTTPPeerBackend("http://peer:1?x=1")
        with pytest.raises(ConfigError):
            HTTPPeerBackend("http://peer:1", timeout=0)
        with pytest.raises(ConfigError):
            HTTPPeerBackend("http://peer:1", revalidate_bytes=-1)

    def test_default_ports(self):
        assert HTTPPeerBackend("http://peer").url == "http://peer:80"
        assert HTTPPeerBackend("https://peer").url == "https://peer:443"


# -- hostile peer ----------------------------------------------------------

HOSTILE_MODES = ("storm-500", "truncated", "garbage-gzip", "wrong-digest")


class _HostileHandler(BaseHTTPRequestHandler):
    """Scripted worst-case peer: every verb misbehaves per server.mode."""

    protocol_version = "HTTP/1.1"

    def _answer(self) -> None:
        mode = self.server.mode
        if mode == "storm-500":
            body = b'{"error": "internal", "detail": "storm"}'
            self.send_response(500)
        elif mode == "truncated":
            # Declare far more than is sent, then drop the connection.
            self.send_response(200)
            self.send_header("Content-Length", "100000")
            self.end_headers()
            self.wfile.write(b"short")
            self.close_connection = True
            return
        elif mode == "garbage-gzip":
            body = b"\x1f\x8b\x08\x00this is not a gzip stream at all"
            self.send_response(200)
            self.send_header("Content-Encoding", "gzip")
        else:  # wrong-digest: plausible entry for a different address
            body = json.dumps(
                {"format": STORE_FORMAT, "digest": "9" * 64, "tag": "evil"}
            ).encode()
            self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802
        self._answer()

    def do_PUT(self):  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        self._answer()

    def do_DELETE(self):  # noqa: N802
        self._answer()

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def hostile_peer():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _HostileHandler)
    server.daemon_threads = True
    server.mode = "storm-500"
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    server.url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


class TestMaliciousPeer:
    """The tier-survival contract: a hostile peer degrades to a miss."""

    @pytest.mark.parametrize("mode", HOSTILE_MODES)
    def test_reads_degrade_to_a_miss(self, hostile_peer, mode):
        hostile_peer.mode = mode
        backend = HTTPPeerBackend(hostile_peer.url, timeout=10)
        if mode == "wrong-digest":
            # Transport succeeded; the bytes are hostile but opaque at
            # this layer (the front-end's corruption policy catches them).
            assert backend.read("ab" * 32) == json.dumps(
                {"format": STORE_FORMAT, "digest": "9" * 64, "tag": "evil"}
            ).encode()
        else:
            assert backend.read("ab" * 32) is None
            assert backend.counters.remote_errors >= 1
            assert backend.counters.misses == 1

    @pytest.mark.parametrize("mode", HOSTILE_MODES)
    def test_store_front_end_survives(self, hostile_peer, mode):
        hostile_peer.mode = mode
        store = ResultStore(
            HTTPPeerBackend(hostile_peer.url, timeout=10)
        )
        # Never an exception, never a poisoned result: hostile bytes are
        # caught by front-end validation and read as a miss.
        assert store.get(tiny_scenario()) is None

    def test_writes_raise_oserror_not_random_exceptions(self, hostile_peer):
        backend = HTTPPeerBackend(hostile_peer.url, timeout=10)
        with pytest.raises(OSError):
            backend.write("ab" * 32, entry_bytes("ab" * 32))

    def test_metadata_surface_degrades_cleanly(self, hostile_peer):
        backend = HTTPPeerBackend(hostile_peer.url, timeout=10)
        assert not backend.contains("ab" * 32)
        assert list(backend.entries()) == []
        assert backend.gc(max_bytes=0) == []
        assert backend.clear() == 0
        assert not backend.delete("ab" * 32)
        assert backend.stats()["n_entries"] == 0

    def test_dark_peer_tier_promotion_is_best_effort(
        self, hostile_peer, tmp_path
    ):
        # A warm lower tier must keep serving when the remote tier above
        # it is down: the failed promotion write is swallowed.
        lower = LocalFSBackend(tmp_path / "fs")
        digest = "ab" * 32
        lower.write(digest, entry_bytes(digest))
        tiers = TieredStore(
            [HTTPPeerBackend(hostile_peer.url, timeout=10), lower]
        )
        assert tiers.read(digest) == entry_bytes(digest)

    def test_hostile_tier_in_a_stack_never_breaks_serving(
        self, hostile_peer
    ):
        store = ResultStore(
            TieredStore(
                [
                    InMemoryBackend(),
                    HTTPPeerBackend(hostile_peer.url, timeout=10),
                ]
            )
        )
        scenario = tiny_scenario()
        assert store.get(scenario) is None
        store.put(
            scenario, {"raw": {"series": {}, "tag": "t"}, "text": "t", "csv": None}
        )
        warm = store.get(scenario)
        assert warm is not None and warm.text == "t"

    def test_unreachable_peer_is_a_cold_tier(self):
        # Nothing listens here: connection refused on every operation.
        backend = HTTPPeerBackend("http://127.0.0.1:9", timeout=0.5)
        assert backend.read("ab" * 32) is None
        assert not backend.contains("ab" * 32)
        assert list(backend.entries()) == []
        assert backend.counters.remote_errors >= 1
        with pytest.raises(OSError):
            backend.write("ab" * 32, b"{}")

    def test_gzip_bomb_response_degrades_to_a_miss(
        self, hostile_peer, monkeypatch
    ):
        # Shrink the ceiling so an honest-size body plays the bomb.
        monkeypatch.setattr(
            http_backend_module, "MAX_RESPONSE_BYTES", 16
        )

        def bomb_answer(handler):
            body = gzip.compress(b"\0" * 4096)
            handler.send_response(200)
            handler.send_header("Content-Encoding", "gzip")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)

        monkeypatch.setattr(_HostileHandler, "_answer", bomb_answer)
        backend = HTTPPeerBackend(hostile_peer.url, timeout=10)
        assert backend.read("ab" * 32) is None
        assert backend.counters.remote_errors >= 1
