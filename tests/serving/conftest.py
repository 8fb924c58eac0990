"""Serving-suite fixtures: isolated store + a live threaded server.

Server lifecycle (ephemeral port, clean ``server_close()``) comes from
the shared :func:`repro.serving.testing.launch_daemon` harness; this
conftest adds the one live daemon the suite drives (:func:`live_server`,
over the isolated store), the decoded-reply conveniences the suite
asserts on, and a raw-socket client (:func:`wire`) for the tests that
write request bytes no HTTP client library would send.
"""

from __future__ import annotations

import http.client
import json
import socket
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


@dataclass(frozen=True)
class RawReply:
    """One reply as it came off the socket: headers in order, as sent."""

    status: int
    headers: list[tuple[str, str]]
    body: bytes

    def header(self, name: str) -> str | None:
        """The first header named ``name`` (any case), or ``None``."""
        for key, value in self.headers:
            if key.lower() == name.lower():
                return value
        return None

    def json(self) -> Any:
        return json.loads(self.body.decode())


class RawConnection:
    """A client socket that writes raw request bytes and reads replies."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise EOFError("the server closed the connection")
        self._buffer += chunk

    def reply(self, *, head: bool = False) -> RawReply:
        """The next reply; ``head`` marks the answer to a HEAD request,
        which carries no body whatever its ``Content-Length`` says."""
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        raw, self._buffer = self._buffer.split(b"\r\n\r\n", 1)
        status_line, *lines = raw.decode("latin-1").split("\r\n")
        version, status, _ = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = []
        for line in lines:
            name, _, value = line.partition(":")
            headers.append((name, value.strip()))
        reply = RawReply(int(status), headers, b"")
        if head or reply.status < 200 or reply.status == 304:
            return reply
        length = int(reply.header("Content-Length") or 0)
        while len(self._buffer) < length:
            self._fill()
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        return RawReply(reply.status, headers, body)

    def closed_by_server(self) -> bool:
        """Whether the server closed the connection after its replies:
        nothing is left to read but the end of the stream."""
        if self._buffer:
            return False
        try:
            return self.sock.recv(1 << 16) == b""
        except ConnectionResetError:  # closed with request bytes unread
            return True

    def close(self) -> None:
        self.sock.close()


@pytest.fixture
def wire(live_server):
    """Open raw connections to the live daemon; all closed afterwards."""
    opened: list[RawConnection] = []

    def connect() -> RawConnection:
        conn = RawConnection(live_server.host, live_server.port)
        opened.append(conn)
        return conn

    yield connect
    for conn in opened:
        conn.close()
