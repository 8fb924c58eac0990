"""Wire conformance of the daemon's HTTP/1.1 transport, over raw sockets.

Each test writes request bytes by hand and reads the replies as they come
off the socket: pipelining, keep-alive and close, ``Expect:
100-continue``, body framing by any spelling of ``Content-Length``, the
request-line and header limits, encoded request bodies (refused),
response gzip, HEAD, and the exact header set of each kind of reply.
The app sees each header under the name the client sent.
"""

from __future__ import annotations

import gzip
import json
import re
from email.utils import parsedate_to_datetime

import pytest

CHEAP_TABLE = "fig3c-blade-spec"
#: The stdlib's limits, kept by the daemon: a request line, or one header
#: line, of at most this many bytes (line end included) ...
MAX_LINE = 65536
#: ... and at most this many header lines.
MAX_HEADERS = 100

IMF_FIXDATE = re.compile(
    r"(Mon|Tue|Wed|Thu|Fri|Sat|Sun), \d\d "
    r"(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) \d{4} "
    r"\d\d:\d\d:\d\d GMT"
)


def request(
    method: str,
    target: str,
    *headers: str,
    body: bytes = b"",
    version: str = "HTTP/1.1",
) -> bytes:
    """Request bytes: the request line, ``Host``, ``headers`` verbatim
    and, when there is a body, its ``Content-Length``."""
    lines = [f"{method} {target} {version}", "Host: wire", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def run_body(name: str) -> bytes:
    return json.dumps({"scenario": name}).encode()


class TestConnection:
    def test_pipelined_gets_are_answered_in_order(self, wire):
        conn = wire()
        conn.send(
            request("GET", "/healthz")
            + request("GET", "/scenarios/no-such-scenario")
            + request("GET", "/no/such/route")
        )
        first, second, third = conn.reply(), conn.reply(), conn.reply()
        assert first.status == 200 and first.json()["status"] == "ok"
        assert second.status == 404
        assert second.json()["error"] == "unknown-scenario"
        assert third.status == 404 and third.json()["error"] == "not-found"
        conn.send(request("GET", "/healthz"))
        assert conn.reply().status == 200  # still open

    def test_http11_keeps_the_connection_alive(self, wire):
        conn = wire()
        for _ in range(3):
            conn.send(request("GET", "/healthz"))
            reply = conn.reply()
            assert reply.status == 200
            assert reply.header("Connection") is None

    @pytest.mark.parametrize(
        "headers, version",
        [(("Connection: close",), "HTTP/1.1"), ((), "HTTP/1.0")],
        ids=["connection-close", "http10"],
    )
    def test_close_and_http10_close_after_the_reply(
        self, wire, headers, version
    ):
        conn = wire()
        conn.send(request("GET", "/healthz", *headers, version=version))
        reply = conn.reply()
        assert reply.status == 200
        assert reply.header("Connection") == "close"
        assert conn.closed_by_server()

    def test_expect_100_continue_comes_before_the_final_reply(self, wire):
        conn = wire()
        body = run_body("no-such-scenario")
        head = request("POST", "/run", "Expect: 100-continue", body=body)
        conn.send(head[: -len(body)])
        interim = conn.reply()
        assert interim.status == 100 and interim.headers == []
        conn.send(body)
        reply = conn.reply()
        assert reply.status == 404
        assert "no-such-scenario" in reply.json()["detail"]

    @pytest.mark.parametrize("name", ["content-length", "CONTENT-LENGTH"])
    def test_any_spelling_of_content_length_frames_a_body(self, wire, name):
        conn = wire()
        body = run_body("no-such-scenario")
        conn.send(
            f"POST /run HTTP/1.1\r\nHost: wire\r\n{name}: {len(body)}\r\n\r\n"
            .encode() + body + request("GET", "/healthz")
        )
        reply = conn.reply()
        assert reply.status == 404
        assert "no-such-scenario" in reply.json()["detail"]
        assert conn.reply().status == 200  # the body was not a request


class TestLimits:
    def test_request_line_over_the_limit_is_414(self, wire):
        conn = wire()
        target = "/" + "a" * MAX_LINE
        conn.send(request("GET", target))
        reply = conn.reply()
        assert reply.status == 414
        assert conn.closed_by_server()

    def test_request_line_at_the_limit_is_routed(self, wire):
        conn = wire()
        line_end = " HTTP/1.1\r\n"
        target = "/" + "a" * (MAX_LINE - len("GET /" + line_end))
        conn.send(request("GET", target))
        assert conn.reply().status == 404

    def test_header_line_over_the_limit_is_431(self, wire):
        conn = wire()
        conn.send(request("GET", "/healthz", "X-Long: " + "a" * MAX_LINE))
        reply = conn.reply()
        assert reply.status == 431
        assert conn.closed_by_server()

    def test_more_than_100_header_lines_is_431(self, wire):
        conn = wire()
        # Host is the first header line: 101 in all.
        extra = [f"X-Extra-{i}: {i}" for i in range(MAX_HEADERS)]
        conn.send(request("GET", "/healthz", *extra))
        reply = conn.reply()
        assert reply.status == 431
        assert conn.closed_by_server()

    @pytest.mark.parametrize(
        "encoding",
        ["gzip", "br", "deflate", "compress", "GZIP", "gzip, identity"],
    )
    def test_an_encoded_request_body_is_415(self, wire, encoding):
        conn = wire()
        body = gzip.compress(run_body(CHEAP_TABLE))
        conn.send(
            request(
                "POST", "/run", f"Content-Encoding: {encoding}", body=body
            )
        )
        reply = conn.reply()
        assert reply.status == 415
        assert reply.json()["error"] == "unsupported-encoding"
        assert reply.header("Connection") == "close"
        assert conn.closed_by_server()

    @pytest.mark.parametrize(
        "body",
        [
            gzip.compress(run_body(CHEAP_TABLE)),
            b"\x1f\x8b\x08\x00 definitely not deflate",
            gzip.compress(run_body(CHEAP_TABLE))[:-6],
            gzip.compress(b"\0" * 1_000_000),
        ],
        ids=["valid", "garbage", "truncated", "bomb"],
    )
    def test_an_encoded_body_is_refused_unread(self, wire, live_server, body):
        # The transport refuses the body before reading it, so its bytes
        # never matter: nothing is inflated and the app sees no request.
        conn = wire()
        conn.send(
            request("POST", "/run", "Content-Encoding: gzip", body=body)
        )
        reply = conn.reply()
        assert reply.status == 415
        assert reply.json()["error"] == "unsupported-encoding"
        assert conn.closed_by_server()
        assert live_server.app.stats.requests == 0

    @pytest.mark.parametrize("encoding", ["identity", "IDENTITY", ""])
    def test_an_identity_body_is_read_as_sent(self, wire, encoding):
        conn = wire()
        conn.send(
            request(
                "POST",
                "/run?wait=1",
                f"Content-Encoding: {encoding}",
                body=run_body(CHEAP_TABLE),
            )
            + request("GET", "/healthz")
        )
        reply = conn.reply()
        assert reply.status == 200
        assert reply.json()["name"] == CHEAP_TABLE
        assert conn.reply().status == 200  # still open


class TestReplies:
    def test_head_carries_the_get_length_and_no_body(self, wire):
        conn = wire()
        conn.send(request("GET", "/scenarios") + request("HEAD", "/scenarios"))
        got = conn.reply()
        head = conn.reply(head=True)
        assert head.status == got.status == 200
        assert head.header("Content-Length") == str(len(got.body))
        assert head.header("Content-Type") == got.header("Content-Type")
        conn.send(request("GET", "/healthz"))
        # Nothing after HEAD's head: the next bytes are the next reply.
        assert conn.reply().json()["status"] == "ok"

    def test_a_json_reply_carries_todays_header_set(self, wire):
        conn = wire()
        conn.send(request("GET", "/healthz"))
        reply = conn.reply()
        names = [name for name, _ in reply.headers]
        assert names == ["Server", "Date", "Content-Type", "Content-Length"]
        assert reply.header("Server").startswith("repro-serve/1 Python/")
        assert IMF_FIXDATE.fullmatch(reply.header("Date"))
        parsedate_to_datetime(reply.header("Date"))
        assert reply.header("Content-Type") == "application/json"
        assert reply.header("Content-Length") == str(len(reply.body))

    def test_warm_run_gzip_and_304_header_sets(self, wire, live_server):
        warm = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        assert warm.status == 200
        etag = warm.etag
        conn = wire()
        body = run_body(CHEAP_TABLE)
        conn.send(
            request("POST", "/run", body=body)
            + request("POST", "/run", f"If-None-Match: {etag}", body=body)
            + request("GET", "/scenarios", "Accept-Encoding: gzip")
        )
        run, revalidated, zipped = conn.reply(), conn.reply(), conn.reply()
        assert [name for name, _ in run.headers] == [
            "Server", "Date", "ETag", "Content-Type", "Content-Length",
        ]
        assert run.status == 200 and run.header("ETag") == etag
        assert revalidated.status == 304
        assert [name for name, _ in revalidated.headers] == [
            "Server", "Date", "ETag",
        ]
        assert zipped.status == 200
        assert [name for name, _ in zipped.headers] == [
            "Server", "Date", "Content-Encoding", "Vary", "Content-Type",
            "Content-Length",
        ]
        assert zipped.header("Content-Encoding") == "gzip"
        assert zipped.header("Vary") == "Accept-Encoding"
        assert json.loads(gzip.decompress(zipped.body))["scenarios"]

    def test_small_replies_stay_identity(self, wire):
        conn = wire()
        conn.send(request("GET", "/healthz", "Accept-Encoding: gzip"))
        reply = conn.reply()
        assert reply.status == 200
        assert reply.header("Content-Encoding") is None

    def test_q_zero_opts_out_of_gzip(self, wire, live_server):
        warm = live_server.post_json("/run?wait=1", {"scenario": CHEAP_TABLE})
        target = f"/results/{warm.json()['digest']}"
        conn = wire()
        conn.send(
            request("GET", target, "Accept-Encoding: gzip;q=0")
            + request("GET", target, "Accept-Encoding: gzip")
        )
        plain, zipped = conn.reply(), conn.reply()
        assert plain.status == zipped.status == 200
        assert plain.header("Content-Encoding") is None
        assert zipped.header("Content-Encoding") == "gzip"
        assert gzip.decompress(zipped.body) == plain.body

    @pytest.mark.parametrize(
        "accept, zipped",
        [
            ("gzip", True),
            ("GZIP", True),
            ("deflate, gzip", True),
            ("gzip;q=0.5", True),
            ("gzip ; q=1.0", True),
            ("br;q=1, gzip;q=0.001", True),
            ("gzip;level=9", True),
            ("gzip;q=0", False),
            ("gzip;q=0.000", False),
            ("gzip;q=often", False),
            ("br", False),
            ("identity", False),
            ("", False),
        ],
    )
    def test_accept_encoding_admits_gzip_only_at_a_positive_q(
        self, wire, accept, zipped
    ):
        conn = wire()
        conn.send(
            request("GET", "/scenarios", f"Accept-Encoding: {accept}")
            + request("GET", "/scenarios")
        )
        reply, plain = conn.reply(), conn.reply()
        assert reply.status == plain.status == 200
        if zipped:
            assert reply.header("Content-Encoding") == "gzip"
            assert reply.header("Vary") == "Accept-Encoding"
            assert gzip.decompress(reply.body) == plain.body
        else:
            assert reply.header("Content-Encoding") is None
            assert reply.header("Vary") is None
            assert reply.body == plain.body

    def test_app_sees_each_header_under_the_name_sent(self, wire, live_server):
        seen = []
        handle = live_server.app.handle

        def recording(method, path, body=b"", headers=None):
            seen.append(dict(headers or {}))
            return handle(method, path, body, headers)

        live_server.app.handle = recording
        conn = wire()
        conn.send(request("GET", "/healthz", "X-Bench-Op: w42", "x-lower: 1"))
        assert conn.reply().status == 200
        assert seen[0]["X-Bench-Op"] == "w42"
        assert seen[0]["x-lower"] == "1"
        assert seen[0]["Host"] == "wire"
