"""2D-torus intra-blade network of SPUs (paper Sec. IV-B, Fig. 3d).

"A 2D array of SPUs are interconnected via their local switches to construct
a 2D torus intra-node network."  The model reads the torus only as a shape:
:meth:`repro.arch.blade.SCDBlade.fabric` derives the collective fabric's ring
steps and ``torus_shape`` from ``nx`` and ``ny``, and the SPU count from
:attr:`Torus2D.n_nodes`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import require_positive


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


__all__ = ["Torus2D"]
