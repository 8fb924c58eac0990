"""``ring://`` — consistent-hash federation over peer daemons.

``ring://node1;node2;node3?replicas=2`` shards the digest space over N
peers: each digest is owned by ``replicas`` nodes chosen by consistent
hashing, so adding or removing one node remaps only ~1/N of the corpus
instead of reshuffling everything.  Stacked under a local tier list
(``mem://,file:///local,ring://a;b``) every daemon in the cluster keeps
its own hot set while the ring holds the sharded corpus.

Design points:

* **Deterministic everywhere.** Ring positions are sha256 of
  ``"<node>#<vnode>"`` — no dependence on process hash seeds, so every
  client in the cluster routes a digest to the same owners.
* **Virtual nodes** smooth the shard sizes (``vnodes`` points per node).
* **Owner-local reads with replica heal:** a read probes the owners in
  preference order; a hit on a lower-preference replica is written back
  to the earlier owners (counted as ``promotions``), so the primary
  recovers after downtime.
* **Writes fan out to all owners** and succeed if at least one replica
  accepted (a fully dark owner set raises :class:`OSError`).
* **Deletes/gc/clear span every node** — after a membership change an
  entry may live on a now-non-owning node, and invalidation must still
  find it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import ConfigError
from repro.scenarios.backends.base import (
    BackendEntry,
    CountersMixin,
    StoreBackend,
    entry_totals,
    union_clear,
    union_entries,
    union_gc,
)
from repro.scenarios.backends.http import (
    DEFAULT_TIMEOUT_S,
    HTTPPeerBackend,
)

#: Ring points per node; enough to keep shard-size variance small while
#: ring construction stays ~instant.
DEFAULT_VNODES = 64

#: How many distinct nodes own each digest.
DEFAULT_REPLICAS = 1


class HashRing:
    """A deterministic consistent-hash ring over opaque node names.

    Pure data structure — no I/O — so routing properties (stability under
    membership change, cross-process determinism) are testable without a
    single socket.
    """

    def __init__(
        self,
        nodes: Sequence[str],
        *,
        replicas: int = DEFAULT_REPLICAS,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        deduped = list(dict.fromkeys(nodes))
        if not deduped:
            raise ConfigError("a hash ring needs at least one node")
        if replicas < 1:
            raise ConfigError(f"replicas must be >= 1, got {replicas}")
        if vnodes < 1:
            raise ConfigError(f"vnodes must be >= 1, got {vnodes}")
        self.nodes = tuple(deduped)
        self.replicas = min(replicas, len(deduped))
        self.vnodes = vnodes
        points: list[tuple[int, str]] = []
        for node in self.nodes:
            for index in range(vnodes):
                token = f"{node}#{index}".encode("utf-8")
                point = int.from_bytes(
                    hashlib.sha256(token).digest()[:8], "big"
                )
                points.append((point, node))
        points.sort()
        self._points = points
        self._keys = [point for point, _ in points]

    @staticmethod
    def position(digest: str) -> int:
        """Ring position of a digest: its first 16 hex chars as an int —
        the digest is already uniform sha256 output, no re-hashing
        needed."""
        return int(digest[:16], 16)

    def owners(self, digest: str) -> tuple[str, ...]:
        """The ``replicas`` distinct nodes owning a digest, in preference
        order (clockwise from the digest's ring position)."""
        start = bisect.bisect_right(self._keys, self.position(digest))
        owners: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            node = self._points[(start + offset) % len(self._points)][1]
            if node in seen:
                continue
            seen.add(node)
            owners.append(node)
            if len(owners) == self.replicas:
                break
        return tuple(owners)

    def primary(self, digest: str) -> str:
        return self.owners(digest)[0]


class HashRingBackend(CountersMixin):
    """Federated storage: one :class:`StoreBackend` per ring node.

    Nodes default to :class:`HTTPPeerBackend` peers built from
    ``host:port`` tokens; tests may inject any mapping of node name →
    backend via ``peers`` to exercise routing without sockets.
    """

    writable = True
    cache_dir = None
    max_bytes = None
    max_entries = None

    def __init__(
        self,
        nodes: Sequence[str] | None = None,
        *,
        replicas: int = DEFAULT_REPLICAS,
        vnodes: int = DEFAULT_VNODES,
        timeout: float = DEFAULT_TIMEOUT_S,
        use_gzip: bool = True,
        peers: Mapping[str, StoreBackend] | None = None,
    ) -> None:
        super().__init__()
        if peers is None:
            if not nodes:
                raise ConfigError("a ring:// backend needs at least one node")
            peers = {}
            for token in nodes:
                base_url = _normalize_node(token)
                peers.setdefault(
                    base_url,
                    HTTPPeerBackend(
                        base_url, timeout=timeout, use_gzip=use_gzip
                    ),
                )
        elif nodes is not None:
            raise ConfigError("pass either nodes or peers, not both")
        self.peers: dict[str, StoreBackend] = dict(peers)
        self.ring = HashRing(
            list(self.peers), replicas=replicas, vnodes=vnodes
        )

    @property
    def url(self) -> str:
        tokens = ";".join(
            node[len("http://") :] if node.startswith("http://") else node
            for node in self.ring.nodes
        )
        return (
            f"ring://{tokens}"
            f"?replicas={self.ring.replicas}&vnodes={self.ring.vnodes}"
        )

    def _owner_backends(self, digest: str) -> list[tuple[str, StoreBackend]]:
        return [(node, self.peers[node]) for node in self.ring.owners(digest)]

    # -- StoreBackend protocol -------------------------------------------

    def read(self, digest: str) -> bytes | None:
        owners = self._owner_backends(digest)
        for index, (_, peer) in enumerate(owners):
            data = peer.read(digest)
            if data is None:
                continue
            # Replica heal: earlier owners missed — write the entry back
            # so the next read stops at the primary.
            for _, earlier in owners[:index]:
                try:
                    earlier.write(digest, data)
                except (OSError, ConfigError):
                    continue
                self._count("promotions")
            self._count("hits")
            return data
        self._count("misses")
        return None

    def peek(self, digest: str) -> bytes | None:
        for _, peer in self._owner_backends(digest):
            data = peer.peek(digest)
            if data is not None:
                return data
        return None

    def write(self, digest: str, data: bytes) -> None:
        stored = 0
        last_error: Exception | None = None
        for _, peer in self._owner_backends(digest):
            try:
                peer.write(digest, data)
            except OSError as exc:
                last_error = exc
                continue
            stored += 1
        if not stored:
            raise OSError(
                f"no ring owner accepted {digest[:12]}…"
            ) from last_error
        self._count("writes")

    def delete(self, digest: str) -> bool:
        # Membership changes can leave copies on non-owners; invalidation
        # must reach them all.
        removed = False
        for peer in self.peers.values():
            if peer.delete(digest):
                removed = True
        if removed:
            self._count("deletes")
        return removed

    def discard(self, digest: str) -> bool:
        # The copies a read would serve live on the owners.
        dropped = False
        for _, peer in self._owner_backends(digest):
            if peer.discard(digest):
                dropped = True
        return dropped

    def contains(self, digest: str) -> bool:
        return any(
            peer.contains(digest) for _, peer in self._owner_backends(digest)
        )

    def entries(self) -> Iterator[BackendEntry]:
        return union_entries(self.peers.values())

    def gc(
        self,
        max_bytes: int | None = None,
        max_entries: int | None = None,
        *,
        sweep_tmp: bool = True,
    ) -> list[str]:
        """Per-node gc with the given caps (each shard holds its own
        budget, mirroring per-tier gc in a tiered store)."""
        evicted = union_gc(
            self.peers.values(), max_bytes, max_entries, sweep_tmp=sweep_tmp
        )
        self._count("evictions", len(evicted))
        return evicted

    def clear(self) -> int:
        return union_clear(self.peers.values())

    def stats(self) -> dict[str, Any]:
        return {
            "kind": "ring",
            "url": self.url,
            "writable": self.writable,
            "replicas": self.ring.replicas,
            "vnodes": self.ring.vnodes,
            "max_bytes": self.max_bytes,
            "max_entries": self.max_entries,
            **entry_totals(self.entries()),
            "counters": self.counters.to_dict(),
            "nodes": [
                self.peers[node].stats() | {"node": node}
                for node in self.ring.nodes
            ],
        }


def _normalize_node(token: str) -> str:
    """``host:port`` → ``http://host:port`` (full URLs pass through)."""
    token = token.strip()
    if not token:
        raise ConfigError("empty node token in ring:// URL")
    if "://" not in token:
        token = "http://" + token
    return token


__all__ = [
    "DEFAULT_REPLICAS",
    "DEFAULT_VNODES",
    "HashRing",
    "HashRingBackend",
]
