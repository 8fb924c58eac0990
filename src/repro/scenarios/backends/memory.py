"""``mem://`` backend: the lock-guarded in-process hot tier.

A byte-capped LRU dict of entry bytes.  This is what the serving daemon
stacks *over* its cache directory (``mem://,file:///var/cache/repro``) so
hot digests are answered without touching the filesystem — and what tests
and ephemeral pipelines use as a store with zero disk footprint.

Unlike the filesystem tiers, the byte/entry caps are enforced inline on
every :meth:`write` (an in-process dict must never balloon past its
budget), so gc is implicit; :meth:`gc` exists for explicit shrinking.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Iterator

from repro.scenarios.backends.base import BackendEntry, CountersMixin

#: Default byte budget of an unconfigured ``mem://`` tier — roomy for tens
#: of thousands of typical entries (~2-60 KiB each), small enough that a
#: daemon cannot be OOM-killed by its own hot tier.
DEFAULT_MEM_MAX_BYTES = 256 * 1024 * 1024


class InMemoryBackend(CountersMixin):
    """Entry bytes in an :class:`~collections.OrderedDict`, LRU at the
    front, everything under one lock (operations are dict moves + integer
    math — nanoseconds, so one lock never becomes the bottleneck the
    file-backend's lock-free reads avoid)."""

    cache_dir = None  # no filesystem presence

    def __init__(
        self,
        *,
        max_bytes: int | None = DEFAULT_MEM_MAX_BYTES,
        max_entries: int | None = None,
    ) -> None:
        super().__init__()
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: digest -> (entry bytes, last-use unix time)
        self._store: OrderedDict[str, tuple[bytes, float]] = OrderedDict()
        self._total_bytes = 0

    # -- identity -----------------------------------------------------------
    @property
    def url(self) -> str:
        return "mem://"

    def __repr__(self) -> str:
        return (
            f"InMemoryBackend(max_bytes={self.max_bytes}, "
            f"max_entries={self.max_entries})"
        )

    # -- traffic ------------------------------------------------------------
    def read(self, digest: str) -> bytes | None:
        with self._lock:
            hit = self._store.get(digest)
            if hit is None:
                self._count("misses")
                return None
            self._store[digest] = (hit[0], time.time())
            self._store.move_to_end(digest)
            self._count("hits")
            return hit[0]

    def peek(self, digest: str) -> bytes | None:
        with self._lock:
            hit = self._store.get(digest)
        return hit[0] if hit is not None else None

    def write(self, digest: str, data: bytes) -> None:
        # Admission control: an entry that cannot fit the whole budget is
        # refused outright — evicting it post-insert would first drain
        # every other hot entry for a digest that ends up dropped anyway.
        # The caller's contract is unharmed: a later read is a plain miss.
        if self.max_bytes is not None and len(data) > self.max_bytes:
            return
        with self._lock:
            old = self._store.pop(digest, None)
            if old is not None:
                self._total_bytes -= len(old[0])
            self._store[digest] = (data, time.time())
            self._total_bytes += len(data)
            self._count("writes")
            self._evict_locked(self.max_bytes, self.max_entries)

    def discard(self, digest: str) -> bool:
        """Corrupt-heal: drop the entry (one copy per digest)."""
        with self._lock:
            hit = self._store.pop(digest, None)
            if hit is None:
                return False
            self._total_bytes -= len(hit[0])
            self._count("deletes")
            return True

    def contains(self, digest: str) -> bool:
        with self._lock:
            return digest in self._store

    # -- introspection ------------------------------------------------------
    def entries(self) -> Iterator[BackendEntry]:
        with self._lock:
            snapshot = [
                (digest, len(data), mtime)
                for digest, (data, mtime) in self._store.items()
            ]
        for digest, size, mtime in snapshot:
            yield BackendEntry(digest=digest, size_bytes=size, mtime=mtime)

    # -- eviction -----------------------------------------------------------
    def _evict_locked(
        self, max_bytes: int | None, max_entries: int | None
    ) -> list[str]:
        evicted: list[str] = []
        while self._store:
            over_bytes = (
                max_bytes is not None and self._total_bytes > max_bytes
            )
            over_count = (
                max_entries is not None and len(self._store) > max_entries
            )
            if not over_bytes and not over_count:
                break
            digest, (data, _) = self._store.popitem(last=False)  # LRU end
            self._total_bytes -= len(data)
            evicted.append(digest)
        self._count("evictions", len(evicted))
        return evicted

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,  # noqa: ARG002 — no temp files in memory
    ) -> list[str]:
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_entries is None:
            max_entries = self.max_entries
        if max_bytes is None and max_entries is None:
            return []
        with self._lock:
            return self._evict_locked(max_bytes, max_entries)

    def clear(self) -> int:
        with self._lock:
            removed = len(self._store)
            self._store.clear()
            self._total_bytes = 0
            self._count("deletes", removed)
            return removed

    def stats(self) -> dict[str, Any]:
        with self._lock:
            count = len(self._store)
            total = self._total_bytes
        return {
            "kind": "mem",
            "url": self.url,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "counters": self.counters.to_dict(),
            "n_entries": count,
            "total_bytes": total,
        }


__all__ = ["DEFAULT_MEM_MAX_BYTES", "InMemoryBackend"]
