"""The PCL standard-cell library (paper Fig. 1f/g).

Fig. 1f shows the building blocks — INVERTER (free rail swap), BUF, XOR,
OR4/AND4 composites (``a22o``/``a22a``/``o22a``/``o22o``) and the FULL ADDER
built from OR3/MAJ3/AND3 — and Fig. 1g the dual-rail composition: a dual-rail
cell computes its function on the positive rails and the DeMorgan dual on the
negative rails, so every cell produces both senses of its output.

Per-cell Josephson-junction counts are not tabulated in the paper; they are
calibrated here so that the synthesized bf16 MAC of the design database lands
near the paper's "~8k JJs" (Sec. III).  The calibration is recorded per cell
and validated by ``tests/eda/test_designs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.errors import ConfigError
from repro.units import UM2

#: Boolean evaluation function: input tuple -> output tuple.
CellFunction = Callable[[Sequence[bool]], tuple[bool, ...]]


def majority3(a: bool, b: bool, c: bool) -> bool:
    """Three-input majority — the carry function and a native PCL primitive."""
    return (a and b) or (b and c) or (a and c)


@dataclass(frozen=True)
class PCLCell:
    """One standard cell of the PCL library.

    Attributes
    ----------
    name:
        Library name (lower case, e.g. ``"and2"``).
    n_inputs / n_outputs:
        Port counts of the *logical* (dual-rail) cell.
    jj_count:
        Josephson junctions in the dual-rail implementation (both rails).
    area:
        Cell area in m²; derived from the JJ count at the library's JJ pitch
        unless overridden.
    depth:
        AC clock phases consumed from input to output.
    function:
        Boolean semantics on the positive rails.  The negative rails follow
        by DeMorgan duality and are not evaluated separately.
    """

    name: str
    n_inputs: int
    n_outputs: int
    jj_count: int
    area: float
    depth: int
    function: CellFunction

    def evaluate(self, inputs: Sequence[bool]) -> tuple[bool, ...]:
        """Evaluate the cell on boolean inputs."""
        if len(inputs) != self.n_inputs:
            raise ConfigError(
                f"cell {self.name} expects {self.n_inputs} inputs, got {len(inputs)}"
            )
        outputs = self.function(inputs)
        if len(outputs) != self.n_outputs:
            raise ConfigError(
                f"cell {self.name} produced {len(outputs)} outputs, "
                f"expected {self.n_outputs}"
            )
        return outputs


def _fn(func: Callable[..., object]) -> CellFunction:
    """Adapt a positional boolean function to the CellFunction signature."""

    def wrapper(inputs: Sequence[bool]) -> tuple[bool, ...]:
        result = func(*inputs)
        if isinstance(result, tuple):
            return tuple(bool(v) for v in result)
        return (bool(result),)

    return wrapper


#: Area occupied per JJ including local wiring, at the paper's ~4 M JJ/mm²
#: device density the *raw* pitch is 0.25 µm²/JJ; standard cells are less
#: dense than memory, so the library default is 1 µm²/JJ.
AREA_PER_JJ = 1.0 * UM2


def _cell(name: str, n_in: int, n_out: int, jj: int, depth: int, func: Callable[..., object]) -> PCLCell:
    return PCLCell(
        name=name,
        n_inputs=n_in,
        n_outputs=n_out,
        jj_count=jj,
        area=jj * AREA_PER_JJ,
        depth=depth,
        function=_fn(func),
    )


@dataclass(frozen=True)
class PCLLibrary:
    """A set of PCL cells indexed by name, plus fanout/balancing primitives."""

    cells: Mapping[str, PCLCell]
    #: JJ cost of a 1:2 splitter (fanout primitive, dual rail).
    splitter_jj: int = 4
    #: JJ cost of a phase-balancing buffer (JTL stage, dual rail).
    buffer_jj: int = 4
    #: Clock phases consumed by a splitter / buffer.  Splitters regenerate the
    #: pulse within the current phase (phase-transparent), buffers are the
    #: clocked delay element.
    splitter_depth: int = 0
    buffer_depth: int = 1

    def __getitem__(self, name: str) -> PCLCell:
        try:
            return self.cells[name]
        except KeyError as exc:
            raise ConfigError(f"unknown PCL cell {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self.cells


def default_library() -> PCLLibrary:
    """Construct the Fig. 1f/g cell library.

    JJ counts: a single-rail 2-input gate (the RQL-style AND/OR pair of
    Fig. 1g) costs ~4 JJs; a dual-rail cell carries both the function and its
    DeMorgan dual, hence 8 JJs for ``and2``/``or2``.  Three-input cells cost
    6 JJs per rail; MAJ3 is a native 8-JJ primitive per rail.  XOR needs the
    cross-coupled AND/OR pairs of Fig. 1f (two pairs per rail).  The full
    adder instantiates OR3 + MAJ3 + AND3 per rail for the sum plus the MAJ3
    carry, as drawn in Fig. 1f.
    """
    cells = [
        # -- buffers / inversion ------------------------------------------
        _cell("buf", 1, 1, 4, 1, lambda a: a),
        # Inversion is a rail swap: zero junctions, zero depth.  It still
        # appears as a cell so netlists can represent it explicitly before
        # the dual-rail pass folds it away.
        _cell("inv", 1, 1, 0, 0, lambda a: not a),
        # -- two-input cells ------------------------------------------------
        _cell("and2", 2, 1, 8, 1, lambda a, b: a and b),
        _cell("or2", 2, 1, 8, 1, lambda a, b: a or b),
        _cell("nand2", 2, 1, 8, 1, lambda a, b: not (a and b)),
        _cell("nor2", 2, 1, 8, 1, lambda a, b: not (a or b)),
        _cell("andnot2", 2, 1, 8, 1, lambda a, b: a and not b),
        _cell("xor2", 2, 1, 16, 1, lambda a, b: a != b),
        _cell("xnor2", 2, 1, 16, 1, lambda a, b: a == b),
        # -- three-input cells ---------------------------------------------
        _cell("and3", 3, 1, 12, 1, lambda a, b, c: a and b and c),
        _cell("or3", 3, 1, 12, 1, lambda a, b, c: a or b or c),
        _cell("maj3", 3, 1, 16, 1, majority3),
        _cell("xor3", 3, 1, 32, 2, lambda a, b, c: (a != b) != c),
        # -- four-input composites (Fig. 1f, a22o/a22a/o22a/o22o) -----------
        _cell("and4", 4, 1, 24, 2, lambda a, b, c, d: a and b and c and d),
        _cell("or4", 4, 1, 24, 2, lambda a, b, c, d: a or b or c or d),
        _cell("a22o", 4, 1, 24, 2, lambda a, b, c, d: (a and b) or (c and d)),
        _cell("o22a", 4, 1, 24, 2, lambda a, b, c, d: (a or b) and (c or d)),
        # -- arithmetic ------------------------------------------------------
        _cell(
            "ha",
            2,
            2,
            24,
            1,
            lambda a, b: (a != b, a and b),  # (sum, carry)
        ),
        _cell(
            "fa",
            3,
            2,
            40,
            2,
            lambda a, b, c: ((a != b) != c, majority3(a, b, c)),  # (sum, carry)
        ),
        # -- steering ---------------------------------------------------------
        _cell("mux2", 3, 1, 16, 2, lambda s, a, b: b if s else a),
        # -- state (used by register file / shift register area estimates) ----
        _cell("dff", 1, 1, 12, 1, lambda d: d),
    ]
    return PCLLibrary(cells={c.name: c for c in cells})


#: Singleton default library.
DEFAULT_LIBRARY = default_library()

__all__ = [
    "PCLCell",
    "PCLLibrary",
    "default_library",
    "DEFAULT_LIBRARY",
    "AREA_PER_JJ",
    "majority3",
]
