"""HTTP plumbing for the scenario serving daemon.

A thin stdlib-only adapter: :class:`ReproHTTPServer` is a
``socketserver.ThreadingTCPServer`` whose handler forwards every request
to the attached :class:`~repro.serving.app.ServingApp` and writes the
returned :class:`~repro.serving.app.Response` back out — all routing,
caching and error semantics live in the app (where they are fuzz-tested
without sockets).

The server is threaded so warm traffic scales: every worker thread serves
store hits as pure file reads concurrently, while cold computes run on
the app's job engine (a handler thread that waits on one just blocks).
``HTTP/1.1`` keep-alive is enabled
(every response carries an exact ``Content-Length``); over-size uploads
are rejected *before* the body is read, and the connection is closed so an
unread body can never desynchronize the stream.

The handler reads each request head itself, with one strict reader, and
writes each reply itself; ``http.server`` (and with it ``email`` and
``http.client``) is not imported:

* the request line is ``METHOD SP target SP HTTP/1.x`` of at most
  :data:`MAX_LINE_BYTES` (else 414; another HTTP major version is 505,
  any other shape 400);
* at most :data:`MAX_HEADER_LINES` header lines of at most
  :data:`MAX_LINE_BYTES` each (else 431), each split once at its first
  ``:``, in time linear in its length.  A blank before the colon, a
  name that is not a token, an obs-fold continuation, a CR or NUL in a
  value and a repeated ``Content-Length`` are answered 400: each could
  frame the body two ways, and a body misframed is a request smuggled;
* names match case-insensitively in the transport (``fields``), and the
  app gets each name as the client sent it (``headers``);
* ``Connection``, HTTP/1.0, ``Expect: 100-continue`` and ``//`` paths
  are handled as ``http.server`` handles them.

Every method is routed to the app, and every protocol error is answered
with :func:`~repro.serving.app.error_response`'s JSON and ``Connection:
close``.  Each reply is built in one buffer and leaves in one
``sendall``: status line, ``Server``, ``Date``, the response's own
headers, ``Content-Type``, ``Content-Length`` and gzip's
``Content-Encoding``/``Vary``; a HEAD reply and a 304 send the head
alone.  Unless the server is quiet, each reply is logged to stderr in
``http.server``'s access-log line, with its escapes.

Compression is negotiated per response: 200 responses of ≥512 bytes are
gzip'd when ``Accept-Encoding`` admits it (and it actually shrinks the
payload).  Request bodies are taken unencoded only: a ``POST`` with any
other ``Content-Encoding`` than ``identity`` is answered 415 and the
connection closed, its body unread.

Usage::

    server = create_server(port=0, cache="mem://,file:///var/cache/repro")
    threading.Thread(target=server.serve_forever, daemon=True).start()
    ...
    server.shutdown(); server.server_close()

or from the shell: ``python -m repro serve --port 8035``.
"""

from __future__ import annotations

import functools
import gzip
import re
import socket
import socketserver
import sys
import time
from http import HTTPStatus
from pathlib import Path

from repro.scenarios.store import ResultStore
from repro.serving.app import MAX_BODY_BYTES, Response, ServingApp, error_response

#: Response bodies below this aren't worth a gzip round trip (the frame
#: overhead would often make them bigger).
GZIP_MIN_BYTES = 512

#: The longest request line, and the longest header line, read (line end
#: included; the stdlib's limit).  A longer request line is answered 414,
#: a longer header line 431.
MAX_LINE_BYTES = 65536
#: The most header lines one request may carry; more is answered 431.
MAX_HEADER_LINES = 100

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
#: ``METHOD SP request-target SP HTTP/d.d`` (RFC 9112 §3), as latin-1
#: text: the whole line, method, target, major and minor version.
_REQUEST_LINE = re.compile(
    rf"(({_TOKEN}) ([!-~\x80-\xff]+) HTTP/([0-9])\.([0-9]))\r?\n"
)
#: A non-empty header value: runs of visible bytes with blanks between.
_VALUE = r"[!-~\x80-\xff]+(?:[ \t]+[!-~\x80-\xff]+)*"
#: One header line: ``name: value`` (RFC 9112 §5), the value without its
#: surrounding blanks, or any other line as the third group.  A blank
#: before the colon, a name that is not a token, an obs-fold continuation
#: and a control byte in the value all land in the third group.  Each
#: blank after the colon can be matched one way only, so a line fails in
#: linear time: two ways to split a run of blanks would make 65,000 of
#: them before a NUL cost ~2e9 steps, with the GIL held.
_HEADER_LINE = re.compile(
    rf"({_TOKEN}):[ \t]*(?:({_VALUE})[ \t]*)?\r?\n|(.*\n)"
)
#: Each status's line, with the reason phrase the stdlib would send.
_STATUS_LINES = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    for status in HTTPStatus
}
_WEEKDAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = (
    "", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
#: The access log's escapes, ``http.server``'s: a C0 control, DEL or a C1
#: control becomes ``\xNN`` and a backslash is doubled, so no byte of a
#: request line (which admits ``\x80``-``\xff``) reaches a terminal raw.
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_LOG_ESCAPES[ord("\\")] = "\\\\"


@functools.lru_cache(maxsize=1)
def _imf_fixdate(second: int) -> str:
    """Unix time ``second`` in the ``Date`` header's format, the
    IMF-fixdate of RFC 9110 §5.6.7; cached for the replies of one
    second."""
    t = time.gmtime(second)
    return (
        f"{_WEEKDAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} "
        f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"
    )


class ReproHTTPServer(socketserver.ThreadingTCPServer):
    """A threading HTTP server bound to one :class:`ServingApp`."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        server_address: tuple[str, int],
        app: ServingApp,
        *,
        quiet: bool = True,
    ) -> None:
        self.app = app
        self.quiet = quiet
        super().__init__(server_address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop ``serve_forever`` now rather than at its next poll.

        The stock loop sees a shutdown request only when its ``select``
        returns, by default every 0.5 s.  Setting the request and then
        connecting to the listening socket makes ``select`` return at
        once; the loop exits before it accepts the wake-up connection.
        """
        # The flag BaseServer.shutdown() sets; set first, so the loop that
        # wakes sees it.
        self._BaseServer__shutdown_request = True
        host, port = self.server_address[:2]
        if host in ("", "0.0.0.0", "::"):
            ipv6 = self.address_family == socket.AF_INET6
            host = "::1" if ipv6 else "127.0.0.1"
        try:
            socket.create_connection((host, port), timeout=1.0).close()
        except OSError:
            pass  # the poll still notices the request
        super().shutdown()

    def server_close(self) -> None:
        super().server_close()
        # Stop the app's job-engine worker pool with the socket: a test
        # (or an operator's reload loop) must not leak worker threads.
        self.app.close()


class _Handler(socketserver.StreamRequestHandler):
    server_version = "repro-serve/1"
    sys_version = "Python/" + sys.version.split()[0]
    # Without this, Nagle + the client's delayed ACK cost ~40 ms per
    # keep-alive round trip — two orders of magnitude over the warm
    # file-read serving path this daemon exists for.
    disable_nagle_algorithm = True
    # Socket read timeout: a client that declares a Content-Length and then
    # goes silent must not pin a handler thread forever (slowloris).
    timeout = 60

    def handle(self) -> None:
        """Answer requests until one ends the connection."""
        self.handle_one_request()
        while not self.close_connection:
            self.handle_one_request()

    # -- reading ------------------------------------------------------------
    def handle_one_request(self) -> None:
        """Read one request and answer it; ``close_connection`` says
        whether the connection ends after it."""
        self.close_connection = True  # until the request line says otherwise
        try:
            method = self._read_head()
            if method is not None:
                self._dispatch(method)
        except (BrokenPipeError, ConnectionResetError, TimeoutError):
            # The client hung up (or went silent) mid-exchange; nothing to
            # answer.
            self.close_connection = True

    def _read_head(self) -> str | None:
        """Read and check one request head.

        Returns the method, with ``path``, ``headers`` (values by name as
        sent) and ``fields`` (values by lowercased name) set; or ``None``
        when the connection ends here: the client closed it, or the head
        was malformed and has been answered.
        """
        self.requestline = ""
        raw = self.rfile.readline(MAX_LINE_BYTES + 1)
        if raw[MAX_LINE_BYTES:]:
            return self._reject(
                414, "uri-too-long",
                f"the request line exceeds {MAX_LINE_BYTES} bytes",
            )
        line = _REQUEST_LINE.fullmatch(str(raw, "latin-1"))
        if line is None:
            if not raw.strip():
                return None  # the client closed, or sent a blank line
            return self._reject(
                400, "bad-request-line",
                f"not METHOD SP target SP HTTP/1.x: {raw[:80]!r}",
            )
        self.requestline, method, target, major, minor = line.groups()
        if major != "1":
            return self._reject(
                505, "http-version-not-supported", "HTTP/1.x only"
            )
        # HTTP/1.1 keeps the connection open by default, HTTP/1.0 does not.
        self.close_connection = minor == "0"
        if not self._read_fields():
            return None
        fields = self.fields
        if "connection" in fields:
            connection = fields["connection"].lower()
            if connection == "close":
                self.close_connection = True
            elif connection == "keep-alive":
                self.close_connection = False
        # An open redirect guard the stdlib applies: "//host/x" would read
        # as a scheme-relative URL.
        if target[:2] == "//":
            target = "/" + target.lstrip("/")
        self.path = target
        if (
            minor != "0"
            and "expect" in fields
            and fields["expect"].lower() == "100-continue"
        ):
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        return method

    def _read_fields(self) -> bool:
        """Read the header lines up to the blank line into ``headers`` and
        ``fields``; whether they were well formed (if not, the request
        has been answered)."""
        head = bytearray()
        lines = 0
        readline = self.rfile.readline
        while True:
            raw = readline(MAX_LINE_BYTES + 1)
            if raw == b"\r\n" or raw == b"\n":
                break
            if raw[MAX_LINE_BYTES:]:
                self._reject(
                    431, "header-fields-too-large",
                    f"a header line exceeds {MAX_LINE_BYTES} bytes",
                )
                return False
            if raw[-1:] != b"\n":
                self._reject(
                    400, "bad-header", "the connection ended inside the head"
                )
                return False
            lines += 1
            if lines > MAX_HEADER_LINES:
                self._reject(
                    431, "header-fields-too-large",
                    f"more than {MAX_HEADER_LINES} header lines",
                )
                return False
            head += raw
        headers: dict[str, str] = {}
        fields: dict[str, str] = {}
        for name, value, bad in _HEADER_LINE.findall(str(head, "latin-1")):
            if bad:
                self._reject(
                    400, "bad-header", f"not a header line: {bad[:80]!r}"
                )
                return False
            key = name.lower()
            if key == "content-length" and key in fields:
                # Two lengths frame the body two ways (RFC 9112 §6.3).
                self._reject(
                    400, "bad-content-length", "Content-Length repeated"
                )
                return False
            headers[name] = value
            fields[key] = value
        self.headers, self.fields = headers, fields
        return True

    def _reject(self, status: int, error: str, detail: str) -> None:
        """Answer a request the transport cannot read, and end the
        connection: the bytes after it cannot be framed."""
        self.close_connection = True
        self._send(error_response(status, error, detail))

    def _read_body(self) -> bytes | Response:
        """The request body, or an error/oversize :class:`Response`.

        Every check runs on the head *before* reading: an error response
        closes the connection, so the unread body can never be misparsed
        as a followup request.  Chunked uploads carry no up-front length
        to check, so they are rejected with 411 outright, and an encoded
        body (``Content-Encoding`` other than ``identity``) with 415.
        """
        if "transfer-encoding" in self.fields:
            self.close_connection = True
            return error_response(
                411,
                "length-required",
                "chunked bodies are not accepted; send Content-Length",
            )
        encoding = self.fields.get("content-encoding", "").lower()
        if encoding not in ("", "identity"):
            self.close_connection = True
            return error_response(
                415,
                "unsupported-encoding",
                f"Content-Encoding {encoding!r} is not accepted "
                "(send the body unencoded)",
            )
        length_header = self.fields.get("content-length")
        if length_header is None:
            return b""
        # Strict ASCII digits only: bare int() would also accept "+100",
        # " 100 " and "1_0" (python literal underscores) — none of which
        # any client we can safely frame against would have sent.  A
        # digits-only string can never be negative.
        if not (length_header.isascii() and length_header.isdigit()):
            self.close_connection = True
            return error_response(
                400, "bad-content-length", f"not a length: {length_header!r}"
            )
        limit = MAX_BODY_BYTES
        # int() refuses a string of over 4300 digits; a length with more
        # digits than the limit is over it anyway.
        digits = length_header.lstrip("0")
        length = int(digits or 0) if len(digits) <= len(str(limit)) else limit + 1
        if length > limit:
            self.close_connection = True
            return error_response(
                413, "payload-too-large", f"body exceeds {limit} bytes"
            )
        return self.rfile.read(length)

    # -- answering ----------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        """Route one request through the app, whatever its method: even a
        wrong one gets the app's structured-JSON 405/404."""
        body = b""
        if method == "POST":
            body = self._read_body()
            if isinstance(body, Response):
                self._send(body)
                return
        elif "transfer-encoding" in self.fields or self.fields.get(
            "content-length", "0"
        ) not in ("0", ""):
            # A body on any other verb is never read here; close the
            # connection so the leftover bytes cannot be parsed as the
            # next pipelined request.
            self.close_connection = True
        # HEAD routes like GET but sends headers only — /healthz must
        # answer load-balancer HEAD probes.
        routed = "GET" if method == "HEAD" else method
        response = self.server.app.handle(routed, self.path, body, self.headers)
        self._send(response, head_only=method == "HEAD")

    def _accepts_gzip(self) -> bool:
        """Whether the request's ``Accept-Encoding`` admits gzip (with a
        non-zero q-value)."""
        header = self.fields.get("accept-encoding")
        if not header:
            return False
        for token in header.split(","):
            name, _, params = token.strip().lower().partition(";")
            if name.strip() != "gzip":
                continue
            q = 1.0
            for param in params.split(";"):
                key, _, value = param.strip().partition("=")
                if key.strip() == "q":
                    try:
                        q = float(value)
                    except ValueError:
                        q = 0.0
            return q > 0
        return False

    def _send(self, response: Response, head_only: bool = False) -> None:
        """Write ``response`` with one ``sendall``: the head, then the
        body, except after HEAD and for a 304."""
        status = response.status
        head = (
            (_STATUS_LINES.get(status) or f"HTTP/1.1 {status} \r\n")
            + f"Server: {self.server_version} {self.sys_version}\r\n"
            + f"Date: {_imf_fixdate(int(time.time()))}\r\n"
        )
        for name, value in response.headers.items():
            head += f"{name}: {value}\r\n"
        if self.close_connection:
            # Tell the peer, not just TCP: no keep-alive after this one.
            head += "Connection: close\r\n"
        payload = b""
        if status != 304:  # bodyless by definition: no length, no type
            payload = response.body_bytes()
            # Transparent response compression: only when the client
            # asked, only when it pays for itself.  mtime=0 keeps the
            # compressed bytes deterministic per payload (cache-friendly).
            if (
                status == 200
                and len(payload) >= GZIP_MIN_BYTES
                and self._accepts_gzip()
            ):
                compressed = gzip.compress(payload, compresslevel=1, mtime=0)
                if len(compressed) < len(payload):
                    payload = compressed
                    head += "Content-Encoding: gzip\r\nVary: Accept-Encoding\r\n"
            head += (
                f"Content-Type: {response.content_type or 'application/json'}"
                f"\r\nContent-Length: {len(payload)}\r\n"
            )
        if not self.server.quiet:
            self._log(status, len(payload))
        wire = (head + "\r\n").encode("latin-1")
        self.connection.sendall(wire if head_only else wire + payload)

    def _log(self, status: int, size: int) -> None:
        """Write the reply's access-log line to stderr, as ``http.server``
        does: client, local time, the escaped request line, status and
        body size."""
        t = time.localtime()
        when = time.strftime(f"%d/{_MONTHS[t.tm_mon]}/%Y %H:%M:%S", t)
        line = f'"{self.requestline}" {status} {size}'.translate(_LOG_ESCAPES)
        sys.stderr.write(f"{self.client_address[0]} - - [{when}] {line}\n")


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    cache: "ResultStore | str | Path | None" = None,
    job_workers: int | None = None,
    max_queue: int | None = None,
    quiet: bool = True,
) -> ReproHTTPServer:
    """Build a ready-to-serve daemon (``port=0`` binds an ephemeral port).

    ``cache`` is the store: a ready-built :class:`ResultStore`, or a
    store URL or a bare cache-dir path that names one
    (``mem://,file:///path?max_bytes=N`` stacks a hot tier over a
    size-capped cache dir — see
    :mod:`repro.scenarios.backends.url`); ``None`` is the default cache
    dir.  ``job_workers``/``max_queue`` size the job engine behind cold
    ``POST /run`` (CLI ``--job-workers``/``--max-queue``); ``None`` keeps
    the app defaults.
    """
    job_knobs: dict = {}
    if job_workers is not None:
        job_knobs["job_workers"] = job_workers
    if max_queue is not None:
        job_knobs["max_queue"] = max_queue
    app = ServingApp(cache, **job_knobs)
    return ReproHTTPServer((host, port), app, quiet=quiet)


def serve_forever(server: ReproHTTPServer) -> int:
    """Run until interrupted (the CLI's blocking loop); returns exit code."""
    print(
        f"repro serving on {server.url} "
        f"(store {server.app.store.url})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


__all__ = ["ReproHTTPServer", "create_server", "serve_forever"]
