"""``http(s)://`` — a peer serving daemon used as a storage backend.

The daemon already speaks digest-addressed HTTP (PR 4): every entry has a
canonical URL ``/results/<digest>`` whose ETag *is* the digest.  This
backend turns that wire protocol into a :class:`StoreBackend`, so a peer
node slots into a tier list exactly like a local directory::

    mem://,file:///var/cache/repro,http://peer:8035

Wire protocol (all raw-entry traffic, distinct from the human/JSON view):

* ``GET /results/<digest>`` with ``Accept: application/x-repro-entry+json``
  returns the stored entry bytes verbatim (no server-side validation — the
  local front-end owns corruption policy, same as for file bytes).
* ``If-None-Match: "<digest>"`` revalidates a locally cached copy: a
  ``304`` moves an ETag instead of a body, and the peer answers it with
  a read, so it counts as a *use* there (its LRU position refreshes).
* ``PUT /results/<digest>`` replicates an entry to the peer; the daemon
  verifies the digest against the body's canonical spec hash unless it
  runs with ``--trust-puts``.
* ``DELETE /results/<digest>`` drops it; ``GET /store/entries`` lists
  storage metadata for client-driven ``entries()``/``gc()``.
* Bodies are gzip-compressed in both directions when they pay for it.

Failure policy: the network is allowed to be broken.  Reads degrade to a
miss (never raise, never heal-delete a remote entry over a transport
error), writes raise :class:`OSError` (which tier promotion treats as
best-effort), and every degraded operation counts ``remote_errors``.
"""

from __future__ import annotations

import gzip
import http.client
import json
import threading
import zlib
from collections import OrderedDict
from typing import Any, Iterator
from urllib.parse import urlsplit

from repro.errors import ConfigError
from repro.scenarios.backends.base import (
    DIGEST_RE,
    BackendEntry,
    CountersMixin,
    entry_totals,
)

#: The raw-entry representation of ``/results/<digest>``: stored bytes
#: verbatim, not the reconstructed JSON view.
ENTRY_CONTENT_TYPE = "application/x-repro-entry+json"

#: Default per-request socket timeout.
DEFAULT_TIMEOUT_S = 10.0

#: Default byte budget of the local revalidation cache (LRU over entry
#: bodies; a 304 from the peer serves out of this without moving a body).
DEFAULT_REVALIDATE_BYTES = 64 * 1024 * 1024

#: Bodies below this aren't worth a gzip round trip.
GZIP_MIN_BYTES = 512

#: Ceiling on a decompressed response body — a hostile peer sending a
#: gzip bomb degrades to a miss instead of eating the heap.
MAX_RESPONSE_BYTES = 256 * 1024 * 1024

#: Exceptions that mean "the wire or the peer broke", never the caller.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def _gunzip_capped(data: bytes, limit: int) -> bytes:
    """Decompress a gzip body with a hard output ceiling.

    Raises :class:`OSError` on garbage, truncation, or a body that
    inflates past ``limit`` — transport-shaped errors, so callers treat
    all three as a broken peer.
    """
    decomp = zlib.decompressobj(wbits=31)  # gzip wrapper
    try:
        out = decomp.decompress(data, limit + 1)
    except zlib.error as exc:
        raise OSError(f"peer sent undecodable gzip: {exc}") from exc
    if len(out) > limit:
        raise OSError("peer response exceeded the decompressed-size ceiling")
    if not decomp.eof:
        raise OSError("peer sent a truncated gzip body")
    return out


class HTTPPeerBackend(CountersMixin):
    """A remote serving daemon as a digest-addressed storage tier."""

    writable = True
    cache_dir = None
    max_bytes = None
    max_entries = None

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = DEFAULT_TIMEOUT_S,
        use_gzip: bool = True,
        revalidate_bytes: int = DEFAULT_REVALIDATE_BYTES,
    ) -> None:
        super().__init__()
        split = urlsplit(base_url)
        if split.scheme not in ("http", "https"):
            raise ConfigError(
                f"HTTPPeerBackend needs an http(s):// URL, got {base_url!r}"
            )
        if not split.netloc or split.hostname is None:
            raise ConfigError(f"store URL {base_url!r} names no host")
        if split.query or split.fragment:
            raise ConfigError(
                f"peer URL {base_url!r} must not carry a query/fragment "
                "(options are keyword arguments / registry parameters)"
            )
        if timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {timeout!r}")
        if revalidate_bytes < 0:
            raise ConfigError("revalidate_bytes must be >= 0")
        self._scheme = split.scheme
        self._host = split.hostname
        self._port = split.port or (443 if split.scheme == "https" else 80)
        self._prefix = split.path.rstrip("/")
        self.timeout = float(timeout)
        self.use_gzip = bool(use_gzip)
        self.revalidate_bytes = int(revalidate_bytes)
        # http.client connections aren't thread-safe; keep one keep-alive
        # connection per calling thread.
        self._local = threading.local()
        # digest -> last entry bytes this client saw (LRU, byte-capped);
        # consulted only after the peer confirms freshness with a 304.
        self._revalidation_cache: OrderedDict[str, bytes] = OrderedDict()
        self._revalidation_bytes = 0
        self._revalidation_lock = threading.Lock()

    # -- wire plumbing ---------------------------------------------------

    @property
    def url(self) -> str:
        return f"{self._scheme}://{self._host}:{self._port}{self._prefix}"

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            cls = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            conn = cls(self._host, self._port, timeout=self.timeout)
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            self._local.conn = None
            try:
                conn.close()
            except OSError:
                pass

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
        *,
        _retry: bool = True,
    ) -> tuple[int, dict[str, str], bytes]:
        """One round trip: ``(status, lowercase headers, raw body)``.

        Raises transport errors; retries exactly once on a fresh
        connection so an idle keep-alive the peer tore down (or a peer
        restart) never reads as a miss.
        """
        conn = self._connection()
        try:
            conn.request(method, self._prefix + path, body=body, headers=headers or {})
            response = conn.getresponse()
            data = response.read()
        except TRANSPORT_ERRORS:
            self._drop_connection()
            if _retry:
                return self._request(method, path, body, headers, _retry=False)
            raise
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            data,
        )

    def _decode_body(self, headers: dict[str, str], data: bytes) -> bytes:
        encoding = headers.get("content-encoding", "").strip().lower()
        if encoding in ("", "identity"):
            return data
        if encoding != "gzip":
            raise OSError(f"peer sent unsupported Content-Encoding {encoding!r}")
        return _gunzip_capped(data, MAX_RESPONSE_BYTES)

    # -- revalidation cache ----------------------------------------------

    def _cache_get(self, digest: str) -> bytes | None:
        with self._revalidation_lock:
            data = self._revalidation_cache.get(digest)
            if data is not None:
                self._revalidation_cache.move_to_end(digest)
            return data

    def _cache_store(self, digest: str, data: bytes) -> None:
        with self._revalidation_lock:
            old = self._revalidation_cache.pop(digest, None)
            if old is not None:
                self._revalidation_bytes -= len(old)
            if len(data) > self.revalidate_bytes:
                return  # too big to retain; next read refetches the body
            self._revalidation_cache[digest] = data
            self._revalidation_bytes += len(data)
            while self._revalidation_bytes > self.revalidate_bytes:
                _, evicted = self._revalidation_cache.popitem(last=False)
                self._revalidation_bytes -= len(evicted)

    def _cache_drop(self, digest: str) -> None:
        with self._revalidation_lock:
            old = self._revalidation_cache.pop(digest, None)
            if old is not None:
                self._revalidation_bytes -= len(old)

    # -- fetch core ------------------------------------------------------

    def _fetch(self, digest: str) -> bytes | None:
        """Entry bytes via the raw-entry route, or ``None`` on miss *or*
        failure — a broken peer must read as a cold tier, not an error."""
        cached = self._cache_get(digest)
        headers = {"Accept": ENTRY_CONTENT_TYPE}
        if self.use_gzip:
            headers["Accept-Encoding"] = "gzip"
        if cached is not None:
            headers["If-None-Match"] = f'"{digest}"'
        try:
            status, rheaders, data = self._request(
                "GET", f"/results/{digest}", headers=headers
            )
            if status == 304 and cached is not None:
                self._count("revalidations")
                return cached
            if status == 200:
                body = self._decode_body(rheaders, data)
                self._cache_store(digest, body)
                return body
            if status == 404:
                self._cache_drop(digest)
                return None
            raise OSError(f"peer answered HTTP {status}")
        except TRANSPORT_ERRORS:
            self._count("remote_errors")
            return None

    # -- StoreBackend protocol -------------------------------------------

    def read(self, digest: str) -> bytes | None:
        data = self._fetch(digest)
        if data is None:
            self._count("misses")
            return None
        self._count("hits")
        return data

    def peek(self, digest: str) -> bytes | None:
        # The 304 revalidation round trip does refresh the peer's LRU —
        # unavoidable without a second wire verb, and consistent with
        # "a use" being a peer-side notion; *local* stats stay silent.
        cached = self._cache_get(digest)
        if cached is not None and self.contains(digest):
            return cached
        headers = {"Accept": ENTRY_CONTENT_TYPE}
        if self.use_gzip:
            headers["Accept-Encoding"] = "gzip"
        try:
            status, rheaders, data = self._request(
                "GET", f"/results/{digest}", headers=headers
            )
            if status != 200:
                return None
            body = self._decode_body(rheaders, data)
        except TRANSPORT_ERRORS:
            return None
        self._cache_store(digest, body)
        return body

    def write(self, digest: str, data: bytes) -> None:
        headers = {"Content-Type": ENTRY_CONTENT_TYPE}
        body = data
        if self.use_gzip and len(data) >= GZIP_MIN_BYTES:
            compressed = gzip.compress(data, compresslevel=1, mtime=0)
            if len(compressed) < len(data):
                body = compressed
                headers["Content-Encoding"] = "gzip"
        try:
            status, _, rbody = self._request(
                "PUT", f"/results/{digest}", body=body, headers=headers
            )
        except TRANSPORT_ERRORS as exc:
            self._count("remote_errors")
            raise OSError(f"peer put failed: {exc}") from exc
        if status not in (200, 201):
            self._count("remote_errors")
            detail = _error_detail(rbody)
            raise OSError(
                f"peer refused PUT /results/{digest[:12]}…: "
                f"HTTP {status}{detail}"
            )
        self._cache_store(digest, data)
        self._count("writes")

    def delete(self, digest: str) -> bool:
        self._cache_drop(digest)
        try:
            status, _, _ = self._request("DELETE", f"/results/{digest}")
        except TRANSPORT_ERRORS:
            self._count("remote_errors")
            return False
        if status == 200:
            self._count("deletes")
            return True
        return False

    def discard(self, digest: str) -> bool:
        """Corrupt-heal: the peer holds one copy per digest, so discard
        and delete coincide."""
        return self.delete(digest)

    def contains(self, digest: str) -> bool:
        # The standard (non-raw) route answers an If-None-Match probe with
        # a bodyless 304/404 and no LRU side effects — a pure existence
        # check.
        try:
            status, _, _ = self._request(
                "GET",
                f"/results/{digest}",
                headers={"If-None-Match": f'"{digest}"'},
            )
        except TRANSPORT_ERRORS:
            self._count("remote_errors")
            return False
        return status in (200, 304)

    def entries(self) -> Iterator[BackendEntry]:
        headers = {"Accept-Encoding": "gzip"} if self.use_gzip else {}
        try:
            status, rheaders, data = self._request(
                "GET", "/store/entries", headers=headers
            )
            if status != 200:
                raise OSError(f"peer answered HTTP {status}")
            payload = json.loads(self._decode_body(rheaders, data))
            items = payload["entries"]
            if not isinstance(items, list):
                raise OSError("peer entry listing is not a list")
        except TRANSPORT_ERRORS + (ValueError, KeyError, TypeError):
            self._count("remote_errors")
            return iter(())
        return self._iter_entries(items)

    @staticmethod
    def _iter_entries(items: list[Any]) -> Iterator[BackendEntry]:
        for item in items:
            if not isinstance(item, dict):
                continue
            digest = item.get("digest")
            if not (isinstance(digest, str) and DIGEST_RE.fullmatch(digest)):
                continue
            try:
                size = int(item.get("size_bytes", 0))
                mtime = float(item.get("mtime", 0.0))
            except (TypeError, ValueError):
                continue
            yield BackendEntry(
                digest=digest, size_bytes=size, mtime=mtime, path=None
            )

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """Client-driven LRU eviction over the peer's entry listing."""
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None and max_entries is None:
            return []
        entries = sorted(self.entries(), key=lambda e: e.mtime)
        total_bytes = sum(e.size_bytes for e in entries)
        n_entries = len(entries)
        evicted: list[str] = []
        for entry in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_count = max_entries is not None and n_entries > max_entries
            if not (over_bytes or over_count):
                break
            if self.delete(entry.digest):
                total_bytes -= entry.size_bytes
                n_entries -= 1
                evicted.append(entry.digest)
        if evicted:
            self._count("evictions", len(evicted))
        return evicted

    def clear(self) -> int:
        removed = 0
        for entry in list(self.entries()):
            if self.delete(entry.digest):
                removed += 1
        with self._revalidation_lock:
            self._revalidation_cache.clear()
            self._revalidation_bytes = 0
        return removed

    def stats(self) -> dict[str, Any]:
        with self._revalidation_lock:
            reval_bytes = self._revalidation_bytes
            reval_entries = len(self._revalidation_cache)
        return {
            "kind": "http",
            "url": self.url,
            "writable": self.writable,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "timeout_s": self.timeout,
            "gzip": self.use_gzip,
            "revalidation_cache": {
                "capacity_bytes": self.revalidate_bytes,
                "used_bytes": reval_bytes,
                "n_entries": reval_entries,
            },
            "counters": self.counters.to_dict(),
            **entry_totals(self.entries()),
        }


def _error_detail(body: bytes) -> str:
    """Render a structured peer error body into an exception suffix."""
    try:
        payload = json.loads(body)
        return f" ({payload['error']}: {payload['detail']})"
    except (ValueError, KeyError, TypeError, UnicodeDecodeError):
        return ""


__all__ = [
    "DEFAULT_REVALIDATE_BYTES",
    "DEFAULT_TIMEOUT_S",
    "ENTRY_CONTENT_TYPE",
    "GZIP_MIN_BYTES",
    "MAX_RESPONSE_BYTES",
    "TRANSPORT_ERRORS",
    "HTTPPeerBackend",
]
