"""``file://`` backend: the local cache-directory tier.

One flat directory of ``<digest>.json`` files: atomic writes
(per-writer-unique temp file + rename), mtime-LRU eviction, stale-temp
sweeping, and strictly digest-named entry filtering so a cache dir pointed
at a directory holding other JSON never has foreign data counted — let
alone deleted — as store entries.

Every instance is safe to share across threads, and many processes may
point at one directory: writes are atomic, readers treat torn/competing
state as corrupt (the front-end self-heals it).
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Any, Iterator

from repro.scenarios.backends.base import (
    DIGEST_NAME_RE,
    STALE_TMP_SECONDS,
    BackendEntry,
    CountersMixin,
    entry_totals,
)


class LocalFSBackend(CountersMixin):
    """One flat cache directory of ``<root>/<digest>.json`` entry files.

    ``max_bytes``/``max_entries`` are this tier's LRU caps: every
    :meth:`write` ends with a :meth:`gc` pass when either is set.
    """

    kind = "file"

    def __init__(
        self,
        root: str | Path,
        *,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        super().__init__()
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_entries = max_entries

    # -- identity -----------------------------------------------------------
    @property
    def url(self) -> str:
        return f"file://{self.root}"

    @property
    def cache_dir(self) -> Path:
        """The directory entries live in (the front-end's ``cache_dir``)."""
        return self.root

    def __repr__(self) -> str:
        return f"LocalFSBackend({str(self.root)!r})"

    # -- addressing ---------------------------------------------------------
    def path_for_digest(self, digest: str) -> Path:
        """The entry file a digest's result lives in."""
        return self.root / f"{digest}.json"

    # -- traffic ------------------------------------------------------------
    def read(self, digest: str) -> bytes | None:
        path = self.path_for_digest(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self._count("misses")
            return None
        # Other OSErrors propagate: the entry exists but cannot be
        # loaded, which the front-end treats as corrupt.
        self._count("hits")
        # A read *is* a use: refresh the LRU position here, so every
        # consumer (front-end, tiered stack) gets the same semantics.
        # Losing the race to an evictor is harmless.
        try:
            os.utime(path)
        except OSError:
            pass
        return data

    def peek(self, digest: str) -> bytes | None:
        try:
            return self.path_for_digest(digest).read_bytes()
        except OSError:
            return None

    def write(self, digest: str, data: bytes) -> None:
        path = self.path_for_digest(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f"{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        finally:
            try:
                tmp.unlink()
            except OSError:
                pass
        self._count("writes")
        if self.max_bytes is not None or self.max_entries is not None:
            # The tier holds its own caps, whoever writes to it (a put or
            # a tier promotion).
            self.gc(sweep_tmp=False)

    def delete(self, digest: str) -> bool:
        try:
            self.path_for_digest(digest).unlink()
        except OSError:
            return False
        self._count("deletes")
        return True

    def discard(self, digest: str) -> bool:
        """Corrupt-heal: identical to :meth:`delete` (one copy per digest)."""
        return self.delete(digest)

    def contains(self, digest: str) -> bool:
        return self.path_for_digest(digest).exists()

    # -- introspection ------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        """Files that are store entries *by name* (``<64-hex>.json``) —
        the strict filter gc/clear are allowed to unlink."""
        if not self.root.is_dir():
            return []
        return sorted(
            path
            for path in self.root.glob("*.json")
            if DIGEST_NAME_RE.fullmatch(path.name)
        )

    def entries(self) -> Iterator[BackendEntry]:
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            yield BackendEntry(
                digest=path.name[: -len(".json")],
                size_bytes=stat.st_size,
                mtime=stat.st_mtime,
                path=path,
            )

    # -- eviction -----------------------------------------------------------
    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """Enforce the caps by mtime-LRU eviction; returns evicted digests.

        Cost is one directory scan — O(entries on disk), which the caps
        themselves keep bounded between runs.  Concurrent evictors racing
        on the same files are fine — whoever loses the unlink just skips
        the entry.
        """
        if max_bytes is None:
            max_bytes = self.max_bytes
        if max_entries is None:
            max_entries = self.max_entries
        if sweep_tmp:
            self._sweep_stale_tmp()
        if max_bytes is None and max_entries is None:
            return []

        entries: list[tuple[float, int, Path]] = []
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest mtime first = least recently used

        total_bytes = sum(size for _, size, _ in entries)
        n_entries = len(entries)
        evicted: list[str] = []
        for _, size, path in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_count = max_entries is not None and n_entries > max_entries
            if not over_bytes and not over_count:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total_bytes -= size
            n_entries -= 1
            evicted.append(path.name[: -len(".json")])
        self._count("evictions", len(evicted))
        return evicted

    def clear(self) -> int:
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        self._count("deletes", removed)
        return removed

    def _sweep_stale_tmp(self) -> None:
        """Drop temp files orphaned by a writer that died mid-write."""
        if not self.root.is_dir():
            return
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in self.root.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                continue

    def stats(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "url": self.url,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            "counters": self.counters.to_dict(),
            **entry_totals(self.entries()),
        }


__all__ = ["LocalFSBackend"]
