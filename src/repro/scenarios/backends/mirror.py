"""``ro://`` backend: a read-only mirror of someone else's cache directory.

An rsync'd, NFS-exported or object-store-mounted cache dir already *is* a
valid store (the entry layout is backend-agnostic), but it belongs to
whoever populates it: this backend reads it and refuses everything else.
Writes raise; deletes and gc are no-ops — in particular a corrupt
entry is **skipped, not healed** (the front-end only deletes corrupt
entries on writable backends), and entry mtimes are never perturbed, so
the mirror's own LRU bookkeeping stays the producer's.

Stack it under a writable tier
(``mem://,file:///local/cache,ro:///mnt/shared-mirror``) to read through a
team-wide result set while keeping local traffic local.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ConfigError
from repro.scenarios.backends.localfs import LocalFSBackend


class ReadOnlyMirrorBackend(LocalFSBackend):
    """A :class:`LocalFSBackend` with every mutation disarmed."""

    kind = "ro"
    writable = False

    def __init__(self, root: str | Path) -> None:
        super().__init__(root)

    @property
    def url(self) -> str:
        return f"ro://{self.root}"

    def __repr__(self) -> str:
        return f"ReadOnlyMirrorBackend({str(self.root)!r})"

    def write(self, digest: str, data: bytes) -> None:
        raise ConfigError(
            f"read-only mirror backend {self.url} does not accept writes"
        )

    def delete(self, digest: str) -> bool:
        # Corrupt entries are skipped, not healed: the mirror's producer
        # owns its contents.
        return False

    def discard(self, digest: str) -> bool:
        return False

    def _utime(self, path) -> None:
        # Reads never perturb the producer's mtimes (its LRU bookkeeping).
        return None

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        return []

    def clear(self) -> int:
        return 0


__all__ = ["ReadOnlyMirrorBackend"]
