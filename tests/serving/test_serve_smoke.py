"""Tier-1 serve smoke test: boot, one cold + one warm request, clean stop.

The cheapest end-to-end pass through the whole serving stack (CLI-built
server → ThreadingHTTPServer → app → store), kept to one tiny table
scenario so it stays a smoke test.  Also pins the ``python -m repro
serve`` argument surface so the flags named in the docs cannot drift.
"""

from __future__ import annotations

import threading

from repro.cli import build_parser
from repro.scenarios.store import ResultStore
from repro.serving import create_server


def test_serve_smoke(tmp_path):
    store = ResultStore(f"file://{tmp_path}/cache?max_entries=16")
    server = create_server(port=0, cache=store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        import http.client
        import json

        host, port = server.server_address[:2]

        def post_run():
            conn = http.client.HTTPConnection(host, port, timeout=30)
            try:
                conn.request(
                    "POST", "/run?wait=1", json.dumps({"scenario": "table1"})
                )
                response = conn.getresponse()
                return response.status, json.loads(response.read())
            finally:
                conn.close()

        cold_status, cold = post_run()
        assert cold_status == 200 and cold["from_cache"] is False
        warm_status, warm = post_run()
        assert warm_status == 200 and warm["from_cache"] is True
        assert warm["artifacts"] == cold["artifacts"]
        assert store.n_entries == 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_create_server_rejects_cache_url_plus_store_knobs(tmp_path):
    """A store is named by its URL alone: the keyword store knobs are
    gone, so passing one fails loudly instead of being dropped."""
    import pytest

    with pytest.raises(TypeError, match="max_cache_bytes"):
        create_server(
            port=0, cache="mem://", max_cache_bytes=1_000_000
        )
    with pytest.raises(TypeError, match="cache_dir"):
        create_server(port=0, cache="mem://", cache_dir=tmp_path)
    with pytest.raises(TypeError, match="max_cache_entries"):
        create_server(port=0, cache="mem://", max_cache_entries=0)
    # The URL carries every one of them.
    server = create_server(
        port=0, cache=f"file://{tmp_path}/c?max_bytes=1000&max_entries=0"
    )
    try:
        backend = server.app.store.backend
        assert (backend.max_bytes, backend.max_entries) == (1000, 0)
    finally:
        server.server_close()
    # A ready-built store is passed as ``cache`` too: there is no second
    # store argument to conflict with it.
    with pytest.raises(TypeError, match="store"):
        create_server(
            port=0, store=ResultStore(tmp_path / "s"), cache="mem://"
        )


def test_serve_cli_flags_parse():
    args = build_parser().parse_args(
        [
            "serve",
            "--port", "0",
            "--cache",
            "file:///tmp/x?max_bytes=1000000&max_entries=64",
            "--job-workers", "4",
            "--max-queue", "16",
            "--verbose",
        ]
    )
    assert args.port == 0
    assert args.cache == "file:///tmp/x?max_bytes=1000000&max_entries=64"
    assert args.job_workers == 4
    assert args.max_queue == 16
    assert args.quiet is False
    assert args.fn.__name__ == "_cmd_serve"
    # --cache-dir is a second spelling of --cache.
    args = build_parser().parse_args(["serve", "--cache-dir", "/tmp/x"])
    assert args.cache == "/tmp/x"
