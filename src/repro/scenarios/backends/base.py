"""The storage-backend contract of the content-addressed result store.

:class:`~repro.scenarios.store.ResultStore` is a thin digest/orchestration
front-end: it computes content addresses, validates entry payloads, counts
store-level traffic and decides when to recompute.  *Where* the bytes of an
entry live — a local cache directory, a lock-guarded in-process dict, or a
tiered stack of both — is a :class:`StoreBackend`.  The same address
scheme (the sha256 spec digest) keys every backend, so digests, artifact
payloads and provenance are backend-agnostic: an entry written through
``file://`` replays byte-identically through ``mem://`` promotion.

A backend stores **opaque bytes per digest** — it never parses artifact
payloads (the front-end owns validation and the corrupt/self-heal policy).
The one exception is :class:`~repro.scenarios.backends.tiered.TieredStore`,
whose reads run the cheap :func:`plausible_entry` probe, which keeps a
corrupt lower tier from being promoted into the hot tier, and whose
``peek`` validates each copy with the front-end's own
:func:`entry_spans`.  Both share one definition of the entry layout, at
the end of this module (:func:`encode_entry`, :func:`entry_spans`).

Concrete backends:

* :class:`~repro.scenarios.backends.localfs.LocalFSBackend` — ``file://``,
  a flat atomic-write + mtime-LRU cache directory;
* :class:`~repro.scenarios.backends.memory.InMemoryBackend` — ``mem://``,
  the byte-capped LRU hot tier;
* :class:`~repro.scenarios.backends.tiered.TieredStore` — comma-separated
  tiers, read-through with promotion.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol, Sequence

#: Marker every entry file carries so foreign JSON is never misread as a
#: result.  Lives here (not in ``store``) so backends can cheaply probe
#: entries without importing the front-end.
STORE_FORMAT = "repro-scenario-result"

#: Result-schema/code version.  Bump whenever the runner, the extractor
#: vocabulary or the artifact layout change what a stored payload means —
#: the digest folds it in and every entry's head carries it, so every old
#: entry simply stops matching.  Read at call time, never bound as a
#: default.
SCHEMA_VERSION = 1

#: A full sha256 content address (the ``/results/<digest>`` route shape).
DIGEST_RE = re.compile(r"[0-9a-f]{64}")

#: Entry filename shape: the sha256 digest plus the ``.json`` suffix.
DIGEST_NAME_RE = re.compile(r"[0-9a-f]{64}\.json")

#: Orphaned temp files (a writer died mid-put) older than this are swept
#: by filesystem-backend gc.
STALE_TMP_SECONDS = 3600.0


@dataclass
class BackendStats:
    """Per-backend traffic counters (the per-tier ``/stats`` breakdown).

    ``hits``/``misses`` count :meth:`StoreBackend.read` outcomes — for a
    tier inside a :class:`~repro.scenarios.backends.tiered.TieredStore`
    these are exactly the "did this tier get touched" numbers the
    acceptance criterion asserts on (a hot digest served from the mem tier
    leaves the file tier's ``reads`` frozen).  ``promotions`` only moves on
    composite backends; ``corrupt_skipped`` counts entries a tiered read
    refused to promote.
    """

    hits: int = 0
    misses: int = 0
    writes: int = 0
    deletes: int = 0
    evictions: int = 0
    promotions: int = 0
    corrupt_skipped: int = 0

    @property
    def reads(self) -> int:
        """Total read traffic against this backend (hit or miss)."""
        return self.hits + self.misses

    def to_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "reads": self.reads,
            "writes": self.writes,
            "deletes": self.deletes,
            "evictions": self.evictions,
            "promotions": self.promotions,
            "corrupt_skipped": self.corrupt_skipped,
        }


@dataclass(frozen=True)
class BackendEntry:
    """Storage-level metadata of one entry: address, size, LRU position.

    ``path`` is ``None`` for backends without filesystem paths (``mem://``).
    Payload-level metadata (scenario name, provenance) is the front-end's
    business — it :meth:`StoreBackend.peek`\\ s the bytes and parses them.
    """

    digest: str
    size_bytes: int
    #: Last-use time (LRU position): a write stamps it, a read hit
    #: refreshes it, gc evicts ascending.
    mtime: float = 0.0
    path: Path | None = None


class StoreBackend(Protocol):
    """Where digest-addressed entry bytes live.

    Implementations must be safe to share across threads.  ``read`` may
    raise :class:`OSError` for an entry that exists but cannot be loaded —
    the front-end treats that as a corrupt entry and heals it.
    """

    #: URL-style description of this backend (``file:///path``, ``mem://``
    #: or a comma-joined tier list).
    url: str

    def read(self, digest: str) -> bytes | None:
        """The entry bytes, or ``None`` on a miss.  Counts hit/miss and
        refreshes the served copy's LRU position: a read is the only
        "use" of an entry."""
        ...

    def peek(self, digest: str) -> bytes | None:
        """Like :meth:`read` but side-effect free: no stats traffic, no
        LRU refresh, no promotion (the introspection path)."""
        ...

    def write(self, digest: str, data: bytes) -> None:
        """Store the entry bytes atomically (a concurrent reader sees the
        old entry, the new entry, or a miss — never a torn write).  A
        capped backend leaves itself within its caps, so a write its caps
        refuse at once reads back as a miss."""
        ...

    def discard(self, digest: str) -> bool:
        """Corrupt-heal: drop only the copy :meth:`read` would have served
        (an intact copy of the digest in another tier survives)."""
        ...

    def contains(self, digest: str) -> bool:
        """Cheap existence probe — no read, no stats traffic."""
        ...

    def entries(self) -> Iterator[BackendEntry]:
        """Storage metadata per entry (unreadable entries are skipped)."""
        ...

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """LRU-evict down to the caps (explicit args override configured
        ones); returns evicted digests."""
        ...

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        ...

    def stats(self) -> dict[str, Any]:
        """Plain-data description + counters (the ``/stats`` per-tier
        block): kind, url, caps, sizes, :class:`BackendStats`."""
        ...


class CountersMixin:
    """Shared lock-guarded counter plumbing for concrete backends."""

    def __init__(self) -> None:
        self.counters = BackendStats()
        self._counter_lock = threading.Lock()

    def _count(self, counter: str, n: int = 1) -> None:
        with self._counter_lock:
            setattr(
                self.counters, counter, getattr(self.counters, counter) + n
            )


def entry_totals(entries: Iterable[BackendEntry]) -> dict[str, int]:
    """The ``n_entries``/``total_bytes`` pair of a :meth:`StoreBackend.stats`
    block, from one pass over ``entries``."""
    count = total = 0
    for entry in entries:
        count += 1
        total += entry.size_bytes
    return {"n_entries": count, "total_bytes": total}


class EntryError(ValueError):
    """Entry bytes failing validation; ``slug`` names the check:
    ``invalid-entry`` (not an entry ``put`` wrote for this digest and
    schema) or ``checksum-mismatch`` (bytes damaged after ``put`` wrote
    them)."""

    def __init__(self, slug: str, detail: str) -> None:
        super().__init__(detail)
        self.slug = slug


# -- the entry layout ---------------------------------------------------------
# How ResultStore.put lays an entry out (drawn in the repro.scenarios.store
# docstring), and how a reader finds and checks its parts without decoding.

#: The parts an entry lays out, in order, each after its key bytes.
ENTRY_PARTS = ("scenario", "provenance", "raw", "text", "csv")
_KEYS = (
    b'"scenario":',
    b',"provenance":',
    b',"artifacts":{"raw":',
    b',"text":',
    b',"csv":',
)
_ARTIFACTS_KEY = b'{"raw":'
#: The last bytes of every entry: ``artifacts`` and the entry close, then
#: its one raw newline (compact JSON holds no other, so a torn write
#: loses it).
_ENTRY_END = b"}}\n"
#: ``lengths`` as ``put`` writes them: one positive integer per part.
_LENGTHS_RE = re.compile(
    rb"[1-9][0-9]*(?:,[1-9][0-9]*){%d}" % (len(ENTRY_PARTS) - 1)
)


def entry_head(digest: str) -> bytes:
    """The first bytes of every entry :meth:`ResultStore.put
    <repro.scenarios.store.ResultStore.put>` writes for ``digest``."""
    return b'{"format":"%s","digest":"%s",' % (
        STORE_FORMAT.encode(),
        digest.encode(),
    )


def encode_entry(
    digest: str, chunks: Sequence[bytes]
) -> tuple[bytes, dict[str, tuple[int, int]]]:
    """An entry's bytes, given each of :data:`ENTRY_PARTS` as encoded
    JSON, and the span of each part in them."""
    body = b"".join(
        [piece for pair in zip(_KEYS, chunks) for piece in pair] + [b"}"]
    )
    head = entry_head(digest) + b'"schema_version":%d,"lengths":[%s],' % (
        SCHEMA_VERSION,
        b",".join(b"%d" % len(chunk) for chunk in chunks),
    )
    head += b'"sha256":"%s",' % hashlib.sha256(body).hexdigest().encode()
    data = b"".join((head, body, b"}\n"))
    return data, _part_spans(len(head), map(len, chunks))


def _part_spans(
    start: int, lengths: Iterable[int]
) -> dict[str, tuple[int, int]]:
    spans = {}
    for part, key, length in zip(ENTRY_PARTS, _KEYS, lengths):
        start += len(key)
        spans[part] = (start, start + length)
        start += length
    spans["artifacts"] = (spans["raw"][0] - len(_ARTIFACTS_KEY), start + 1)
    return spans


def entry_spans(data: bytes, digest: str) -> dict[str, tuple[int, int]]:
    """The span of each part of ``data``, an entry in ``put``'s layout.

    Bytes that do not start as ``put`` starts an entry for ``digest`` at
    :data:`SCHEMA_VERSION` (foreign bytes, another digest's or schema's entry,
    a hand edit) raise :class:`EntryError` ``invalid-entry``, as does an
    artifact of the wrong shape.  Only ``put`` writes that start, always
    followed by the rest of its layout, so bytes with that start that
    break the layout or the sha256 were damaged after the write, in a
    value or where the checksum cannot see (a key, a length):
    ``checksum-mismatch``.
    """
    head = entry_head(digest) + b'"schema_version":%d,' % SCHEMA_VERSION
    if not data.startswith(head):
        raise EntryError(
            "invalid-entry",
            f"not a result-store entry for {digest} at schema version "
            f"{SCHEMA_VERSION}",
        )
    spans = _laid_out(data, len(head))
    if spans is None:
        raise EntryError(
            "checksum-mismatch", "entry bytes break their layout or sha256"
        )
    if not (
        data.startswith(b"{", spans["raw"][0])
        and data.startswith(b'"', spans["text"][0])
    ):
        raise EntryError("invalid-entry", "entry artifact payload is malformed")
    return spans


def _laid_out(data: bytes, at: int) -> dict[str, tuple[int, int]] | None:
    """The span of each part of ``data`` if, from its ``lengths`` key at
    ``at`` on, it is laid out as ``put`` writes and matches its sha256."""
    first = at + len(b'"lengths":[')
    close = data.find(b'],"sha256":"', first)
    if not (
        data.startswith(b'"lengths":[', at)
        and data.endswith(_ENTRY_END)
        and close > 0
        and _LENGTHS_RE.fullmatch(data, first, close)
    ):
        return None
    at = close + 12  # past '],"sha256":"'
    checksum, start = data[at : at + 64], at + 66  # 64 hex digits, then '",'
    spans = _part_spans(start, map(int, data[first:close].split(b",")))
    ok = (
        data.startswith(b'",', at + 64)
        # The entry's close and its newline follow artifacts' close.
        and spans["artifacts"][1] + 2 == len(data)
        and all(
            data.startswith(key, spans[part][0] - len(key))
            for part, key in zip(ENTRY_PARTS, _KEYS)
        )
        and hashlib.sha256(memoryview(data)[start:-2]).hexdigest().encode()
        == checksum
    )
    return spans if ok else None


def plausible_entry(data: bytes, digest: str) -> bool:
    """Cheap is-this-really-an-entry probe for composite backends: the
    entry starts and ends as ``put`` writes one for ``digest``.

    Full validation (schema version, checksum, artifact shape) is
    :func:`entry_spans`'s; this only keeps torn or foreign bytes out of
    promotion, and decodes nothing.
    """
    return data.startswith(entry_head(digest)) and data.endswith(_ENTRY_END)


__all__ = [
    "DIGEST_NAME_RE",
    "DIGEST_RE",
    "SCHEMA_VERSION",
    "STALE_TMP_SECONDS",
    "STORE_FORMAT",
    "ENTRY_PARTS",
    "BackendEntry",
    "BackendStats",
    "CountersMixin",
    "EntryError",
    "StoreBackend",
    "encode_entry",
    "entry_head",
    "entry_spans",
    "entry_totals",
    "plausible_entry",
]
