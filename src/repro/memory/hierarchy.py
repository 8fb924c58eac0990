"""The hierarchical memory model consumed by the roofline (paper Sec. V).

Optimus decides, per kernel, which memory level serves its data and how long
the transfer takes.  Two latency effects are modelled on top of nominal
bandwidth (README "Substitutions" #7):

1. a fixed per-kernel access latency (first-word latency), and
2. a bandwidth–delay-product (BDP) limit: a device can keep only
   ``outstanding_bytes`` of data in flight, so the *effective* streaming
   bandwidth is ::

       1 / bw_eff = 1 / bw_nominal + latency / outstanding_bytes

This reproduces the paper's Fig. 7 observations — inference latency keeps
falling with nominal bandwidth but saturates "beyond 8 TBps [at] the DRAM
latency bound limit", and achieved throughput degrades almost linearly as
DRAM latency is swept from 10 ns to 200 ns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from repro.errors import CapacityError, ConfigError, require_non_negative, require_positive
from repro.units import KIB


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy as seen by a single accelerator.

    Parameters
    ----------
    name:
        Level name ("L1", "L2", "DRAM").
    capacity_bytes:
        Capacity available to the accelerator (``math.inf`` allowed).
    bandwidth:
        Nominal streaming bandwidth, bytes/s.
    latency:
        Access latency, seconds (applied once per kernel access burst).
    outstanding_bytes:
        BDP limit: maximum bytes in flight.  ``None`` disables the limit
        (appropriate for on-die JSRAM whose latency is a few cycles).
    """

    name: str
    capacity_bytes: float
    bandwidth: float
    latency: float = 0.0
    outstanding_bytes: float | None = 512 * KIB

    def __post_init__(self) -> None:
        require_positive(f"{self.name} capacity_bytes", self.capacity_bytes)
        require_positive(f"{self.name} bandwidth", self.bandwidth)
        require_non_negative(f"{self.name} latency", self.latency)
        if self.outstanding_bytes is not None:
            require_positive(f"{self.name} outstanding_bytes", self.outstanding_bytes)

    @property
    def effective_bandwidth(self) -> float:
        """Latency-limited streaming bandwidth, bytes/s."""
        if self.outstanding_bytes is None or self.latency == 0.0:
            return self.bandwidth
        inverse = 1.0 / self.bandwidth + self.latency / self.outstanding_bytes
        return 1.0 / inverse

    def transfer_time(self, n_bytes: float) -> float:
        """Time to move ``n_bytes`` through this level, seconds."""
        require_non_negative("n_bytes", n_bytes)
        if n_bytes == 0.0:
            return 0.0
        return self.latency + n_bytes / self.effective_bandwidth

    # -- sweep helpers ------------------------------------------------------
    def with_bandwidth(self, bandwidth: float) -> "MemoryLevel":
        """Copy with a different nominal bandwidth."""
        return replace(self, bandwidth=bandwidth)

    def with_latency(self, latency: float) -> "MemoryLevel":
        """Copy with a different access latency."""
        return replace(self, latency=latency)


@dataclass(frozen=True)
class MemoryHierarchy:
    """Ordered memory levels, nearest (smallest) first."""

    levels: tuple[MemoryLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ConfigError("hierarchy needs at least one level")
        names = [lvl.name for lvl in self.levels]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate level names: {names}")

    @classmethod
    def of(cls, *levels: MemoryLevel) -> "MemoryHierarchy":
        """Convenience constructor."""
        return cls(levels=tuple(levels))

    def __iter__(self):
        return iter(self.levels)

    def __getitem__(self, name: str) -> MemoryLevel:
        for level in self.levels:
            if level.name == name:
                return level
        raise KeyError(f"no memory level named {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        """Level names, nearest first."""
        return tuple(level.name for level in self.levels)

    @property
    def last(self) -> MemoryLevel:
        """The farthest level (main memory)."""
        return self.levels[-1]

    def serving_level(self, working_set_bytes: float) -> MemoryLevel:
        """The nearest level whose capacity holds the kernel's working set.

        The paper's main-result policy: a kernel streams from the first level
        it fits in; anything larger than the last level still streams from it
        (main memory holds the dataset by construction — capacity errors are
        raised at mapping time, not here).
        """
        require_non_negative("working_set_bytes", working_set_bytes)
        for level in self.levels:
            if working_set_bytes <= level.capacity_bytes:
                return level
        return self.levels[-1]

    def transfer_time(self, n_bytes: float, working_set_bytes: float | None = None) -> float:
        """Transfer ``n_bytes`` from the level serving the working set."""
        working_set = n_bytes if working_set_bytes is None else working_set_bytes
        return self.serving_level(working_set).transfer_time(n_bytes)

    # -- rebuild helpers for sweeps ---------------------------------------------
    def replace_level(self, name: str, new_level: MemoryLevel) -> "MemoryHierarchy":
        """Return a hierarchy with level ``name`` swapped for ``new_level``."""
        if name not in self.names:
            raise KeyError(f"no memory level named {name!r}")
        return MemoryHierarchy(
            levels=tuple(
                new_level if level.name == name else level for level in self.levels
            )
        )

    def with_level_bandwidth(self, name: str, bandwidth: float) -> "MemoryHierarchy":
        """Return a hierarchy with ``name``'s nominal bandwidth replaced."""
        return self.replace_level(name, self[name].with_bandwidth(bandwidth))

    def with_level_latency(self, name: str, latency: float) -> "MemoryHierarchy":
        """Return a hierarchy with ``name``'s latency replaced."""
        return self.replace_level(name, self[name].with_latency(latency))

    def check_fits(self, name: str, n_bytes: float, what: str = "data") -> None:
        """Raise :class:`CapacityError` unless ``n_bytes`` fits in level ``name``."""
        level = self[name]
        if n_bytes > level.capacity_bytes:
            raise CapacityError(
                f"{what} ({n_bytes / 1e9:.2f} GB) exceeds {name} capacity "
                f"({level.capacity_bytes / 1e9:.2f} GB)"
            )


__all__ = ["MemoryLevel", "MemoryHierarchy"]
