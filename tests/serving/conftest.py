"""Serving-suite fixtures: isolated store + a live threaded server.

Server lifecycle (ephemeral port, clean ``server_close()``) comes from
the shared :func:`repro.serving.testing.launch_daemon` harness; this
conftest only adds the decoded-reply conveniences the suite asserts on.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass
from typing import Any, Mapping

import pytest

from repro.scenarios.store import CACHE_DIR_ENV, ResultStore
from repro.serving.testing import launch_daemon


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep every test's result store off the real home directory."""
    cache_dir = tmp_path / "result-store"
    monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
    return cache_dir


@dataclass(frozen=True)
class HttpReply:
    """One HTTP exchange, decoded for assertions."""

    status: int
    headers: Mapping[str, str]
    body: bytes

    def json(self) -> Any:
        return json.loads(self.body.decode())

    @property
    def etag(self) -> str | None:
        return self.headers.get("ETag")


class LiveServer:
    """A running daemon on an ephemeral port plus a request helper."""

    def __init__(self, server):
        self.server = server
        self.app = server.app
        self.store = server.app.store
        host, port = server.server_address[:2]
        self.host, self.port = host, port

    def request(
        self,
        method: str,
        path: str,
        body: bytes | str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> HttpReply:
        if isinstance(body, str):
            body = body.encode()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request(method, path, body=body, headers=dict(headers or {}))
            response = conn.getresponse()
            return HttpReply(
                status=response.status,
                headers=dict(response.getheaders()),
                body=response.read(),
            )
        finally:
            conn.close()

    def post_json(self, path: str, payload: Any, **kw) -> HttpReply:
        return self.request("POST", path, json.dumps(payload).encode(), **kw)


@pytest.fixture
def live_server(isolated_cache_dir):
    """A daemon over the isolated store; shut down cleanly afterwards."""
    with launch_daemon(cache=ResultStore(isolated_cache_dir)) as daemon:
        yield LiveServer(daemon.server)
