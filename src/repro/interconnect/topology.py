"""2D-torus intra-blade network of SPUs (paper Sec. IV-B, Fig. 3d).

"A 2D array of SPUs are interconnected via their local switches to construct
a 2D torus intra-node network."  The topology model provides hop counts,
average distance, bisection width/bandwidth, and simple dimension-order
routing — the quantities the collective-communication models consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from repro.errors import require_positive


Coordinate = tuple[int, int]


@dataclass(frozen=True)
class Torus2D:
    """An ``nx × ny`` 2D torus."""

    nx: int = 8
    ny: int = 8

    def __post_init__(self) -> None:
        require_positive("nx", self.nx)
        require_positive("ny", self.ny)

    @property
    def n_nodes(self) -> int:
        """Node count."""
        return self.nx * self.ny

    @property
    def n_links(self) -> int:
        """Unidirectional link count (each node has 4 neighbours; wrap links
        coincide with regular links for dimensions of size <= 2)."""
        return sum(len(self.neighbors(node)) for node in self.nodes())

    def nodes(self) -> Iterator[Coordinate]:
        """All node coordinates."""
        return itertools.product(range(self.nx), range(self.ny))

    def contains(self, node: Coordinate) -> bool:
        """Whether the coordinate is on the torus."""
        x, y = node
        return 0 <= x < self.nx and 0 <= y < self.ny

    def neighbors(self, node: Coordinate) -> list[Coordinate]:
        """Torus neighbours of ``node`` (deduplicated for tiny dimensions)."""
        x, y = node
        if not self.contains(node):
            raise ValueError(f"{node} outside {self.nx}x{self.ny} torus")
        candidates = [
            ((x + 1) % self.nx, y),
            ((x - 1) % self.nx, y),
            (x, (y + 1) % self.ny),
            (x, (y - 1) % self.ny),
        ]
        unique: list[Coordinate] = []
        for cand in candidates:
            if cand != node and cand not in unique:
                unique.append(cand)
        return unique

    def hops(self, src: Coordinate, dst: Coordinate) -> int:
        """Minimal hop count with wraparound (dimension-order routing)."""
        for node in (src, dst):
            if not self.contains(node):
                raise ValueError(f"{node} outside {self.nx}x{self.ny} torus")
        dx = abs(src[0] - dst[0])
        dy = abs(src[1] - dst[1])
        return min(dx, self.nx - dx) + min(dy, self.ny - dy)

    def route(self, src: Coordinate, dst: Coordinate) -> list[Coordinate]:
        """Dimension-order (X then Y) minimal route, inclusive of endpoints."""
        path = [src]
        x, y = src

        def step_toward(cur: int, target: int, size: int) -> int:
            forward = (target - cur) % size
            backward = (cur - target) % size
            return (cur + 1) % size if forward <= backward else (cur - 1) % size

        while x != dst[0]:
            x = step_toward(x, dst[0], self.nx)
            path.append((x, y))
        while y != dst[1]:
            y = step_toward(y, dst[1], self.ny)
            path.append((x, y))
        return path

    def average_hops(self) -> float:
        """Mean hop count over all ordered node pairs (src != dst)."""
        total = 0
        count = 0
        for src in self.nodes():
            for dst in self.nodes():
                if src == dst:
                    continue
                total += self.hops(src, dst)
                count += 1
        return total / count if count else 0.0

    @property
    def diameter(self) -> int:
        """Maximum minimal hop count."""
        return self.nx // 2 + self.ny // 2

    @property
    def bisection_links(self) -> int:
        """Links crossing the worst-case bisection.

        Cutting the torus across its longer dimension severs ``2 × shorter``
        links (two per row/column thanks to wraparound).
        """
        return 2 * min(self.nx, self.ny)

    def bisection_bandwidth(self, link_bandwidth: float) -> float:
        """Bisection bandwidth for a given per-link bandwidth, bytes/s."""
        require_positive("link_bandwidth", link_bandwidth)
        return self.bisection_links * link_bandwidth

    def ring_order(self) -> list[Coordinate]:
        """A Hamiltonian cycle (boustrophedon) used by ring collectives.

        Visits every node once; consecutive nodes are torus neighbours when
        ``ny`` is even (always true for the 8×8 baseline).
        """
        order: list[Coordinate] = []
        for x in range(self.nx):
            ys = range(self.ny) if x % 2 == 0 else range(self.ny - 1, -1, -1)
            order.extend((x, y) for y in ys)
        return order


__all__ = ["Torus2D", "Coordinate"]
