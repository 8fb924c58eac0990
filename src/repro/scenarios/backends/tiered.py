"""Tiered storage: read-through with promotion over a stack of backends.

The composition the serving daemon runs in production:
``TieredStore([InMemoryBackend(), LocalFSBackend(dir)])`` answers a hot
digest from the mem tier without touching the filesystem at all, and
promotes a file-tier hit into mem on first read.

Policies, in one place:

* **read** — tiers are probed in order; the first plausible entry wins and
  is *promoted* (written) into every tier above it, so the next read
  stops earlier.  A torn/foreign entry in a tier is skipped and discarded
  there, and the probe continues downward, so one corrupt hot copy can
  never mask a good durable one.  Plausibility is a cheap probe of an
  entry's first and last bytes, not the front-end's full validation: a
  copy damaged inside (a flipped byte in a value) may be served and then
  rejected by the front-end, which discards that copy and the copies
  promoted from it (:meth:`TieredStore.discard`) and reads once more, so
  an intact copy in a lower tier still serves — wasted work on a damaged
  entry, never a wrong answer.
* **peek** (listings) — validates each copy fully, as the front-end
  does, and reads past one that fails, so a damaged upper copy never
  hides an intact lower one from ``cache stats`` or ``/stats``.
* **write** — a put lands in the *first* tier that admits it; lower tiers
  fill by their own producers (a CLI run against ``file://``) or stay
  cold.  This keeps a put as cheap as its hottest tier.  Each tier holds
  its own caps on every write, so a write (or a promotion) that a tier's
  caps refuse at once falls through as refused admission.
* **gc/clear** — fan out to every tier.

Per-tier hit/miss stats come free: each tier keeps its own
:class:`~repro.scenarios.backends.base.BackendStats`, and
:meth:`TieredStore.stats` nests them, which is how the acceptance
criterion ("a repeated digest is served with zero file reads after first
promotion") is asserted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.errors import ConfigError
from repro.scenarios.backends.base import (
    BackendEntry,
    CountersMixin,
    EntryError,
    StoreBackend,
    entry_spans,
    entry_totals,
    plausible_entry,
)


class TieredStore(CountersMixin):
    """A stack of backends probed in order, hottest first."""

    def __init__(self, tiers: Iterable[StoreBackend]) -> None:
        super().__init__()
        self.tiers: tuple[StoreBackend, ...] = tuple(tiers)
        if not self.tiers:
            raise ConfigError("a TieredStore needs at least one tier")

    # -- identity -----------------------------------------------------------
    @property
    def url(self) -> str:
        return ",".join(tier.url for tier in self.tiers)

    @property
    def cache_dir(self) -> Path | None:
        """The first tier with a filesystem presence (diagnostics only)."""
        for tier in self.tiers:
            directory = getattr(tier, "cache_dir", None)
            if directory is not None:
                return directory
        return None

    def __repr__(self) -> str:
        return f"TieredStore({list(self.tiers)!r})"

    # -- traffic ------------------------------------------------------------
    def read(self, digest: str) -> bytes | None:
        for index, tier in enumerate(self.tiers):
            try:
                data = tier.read(digest)
            except OSError:
                self._skip_corrupt(tier, digest)
                continue
            if data is None:
                continue
            if not plausible_entry(data, digest):
                self._skip_corrupt(tier, digest)
                continue
            self._promote(index, digest, data)
            self._count("hits")
            return data
        self._count("misses")
        return None

    def _skip_corrupt(self, tier: StoreBackend, digest: str) -> None:
        """A torn/foreign entry in one tier: drop *that copy* there and
        keep probing lower tiers."""
        self._count("corrupt_skipped")
        tier.discard(digest)

    def _promote(self, index: int, digest: str, data: bytes) -> None:
        """Copy a lower-tier hit into every tier above it.

        Best-effort: a hot tier that cannot accept the copy (disk full,
        permissions) must never turn a *successful* lower-tier read into a
        failure — the data is simply served unpromoted."""
        for upper in self.tiers[:index]:
            try:
                upper.write(digest, data)
            except OSError:
                continue
            if not upper.contains(digest):
                # Admission refused (the tier's caps cannot hold it): not
                # a promotion — the stats must keep telling the truth
                # about which digests actually became hot.
                continue
            self._count("promotions")

    def peek(self, digest: str) -> bytes | None:
        """The first copy that passes the front-end's validation
        (:func:`~repro.scenarios.backends.base.entry_spans`), with no
        promotion, heal or count: a copy :meth:`read` would serve and the
        front-end then discard is read past, as ``get`` reads past it."""
        for tier in self.tiers:
            data = tier.peek(digest)
            if data is None:
                continue
            try:
                entry_spans(data, digest)
            except EntryError:
                continue
            return data
        return None

    def write(self, digest: str, data: bytes) -> None:
        for tier in self.tiers:
            tier.write(digest, data)
            if tier.contains(digest):
                self._count("writes")
                return
            # The tier refused admission (its caps cannot hold the entry):
            # fall through so the write still lands in a roomier tier
            # below instead of nowhere.

    def discard(self, digest: str) -> bool:
        """Corrupt-heal entry point (the front-end saw bad bytes): drop the
        copy a read serves and every copy promotion made of it, down to
        the first tier holding different bytes — an intact copy there
        serves the next read."""
        served = None
        removed = False
        for tier in self.tiers:
            data = tier.peek(digest)
            if data is None or not plausible_entry(data, digest):
                continue
            if served is None:
                served = data
            elif data != served:
                break
            if tier.discard(digest):
                removed = True
        if removed:
            self._count("deletes")
        return removed

    def contains(self, digest: str) -> bool:
        return any(tier.contains(digest) for tier in self.tiers)

    # -- introspection ------------------------------------------------------
    def entries(self) -> Iterator[BackendEntry]:
        """Union over tiers, hottest tier's metadata winning per digest."""
        seen: set[str] = set()
        for tier in self.tiers:
            for entry in tier.entries():
                if entry.digest not in seen:
                    seen.add(entry.digest)
                    yield entry

    # -- eviction -----------------------------------------------------------
    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """Fan the caps out to every tier (each tier is capped
        independently — a 2-entry cap keeps ≤2 entries *per tier*).

        The returned digests are deduplicated: a promoted digest evicted
        from several tiers is one logical eviction, matching how
        :meth:`entries`/:meth:`stats` count it as one entry."""
        evicted = (
            digest
            for tier in self.tiers
            for digest in tier.gc(max_bytes, max_entries, sweep_tmp=sweep_tmp)
        )
        return list(dict.fromkeys(evicted))

    def clear(self) -> int:
        """Empty every tier; counts *logical* entries removed (a promoted
        digest's several copies are one entry)."""
        removed = {entry.digest for entry in self.entries()}
        for tier in self.tiers:
            tier.clear()
        return len(removed)

    def stats(self) -> dict[str, Any]:
        """Each tier's own block, plus top-level totals over
        :meth:`entries` — a promoted digest present in several tiers is
        counted once, exactly like the front-end's ``disk_usage``."""
        return {
            "kind": "tiered",
            "url": self.url,
            "max_bytes": None,  # tiers own their caps
            "max_entries": None,
            **entry_totals(self.entries()),
            "counters": self.counters.to_dict(),
            "tiers": [tier.stats() for tier in self.tiers],
        }


__all__ = ["TieredStore"]
