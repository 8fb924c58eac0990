"""Word-level structural RTL IR — the entry point of the flow.

A tiny SSA-style intermediate representation: an :class:`RTLModule` is a list
of word-level operations over :class:`Signal` values.  The IR defines exactly
the operations the design database (:mod:`repro.eda.designs`) emits.  The
synthesis stage (:mod:`repro.eda.synthesis`) lowers each operation into gates
through parameterized generators (ripple-carry adders, Wallace-tree
multipliers, barrel shifters, mux trees), mirroring a conventional synthesis
library.

Example
-------
>>> m = RTLModule('mul_acc')
>>> a = m.input('a', 8)
>>> b = m.input('b', 8)
>>> acc = m.input('acc', 16)
>>> m.output('out', m.add(m.mul(a, b), acc))
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigError


class Op(enum.Enum):
    """Word-level operation kinds supported by the IR."""

    INPUT = "input"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    NOT = "not"
    EQ = "eq"
    LT = "lt"
    MUX = "mux"
    SHL_DYN = "shl_dyn"
    SLICE = "slice"
    REDUCE_OR = "reduce_or"


@dataclass(frozen=True)
class Signal:
    """A word-level SSA value with a fixed bit width."""

    uid: int
    width: int
    name: str

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ConfigError(f"signal {self.name!r} must have positive width")


@dataclass(frozen=True)
class Operation:
    """One word-level operation: ``result = op(operands, attrs)``."""

    op: Op
    result: Signal
    operands: tuple[Signal, ...]
    attrs: dict = field(default_factory=dict, hash=False, compare=False)


class RTLModule:
    """A word-level design under construction."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.operations: list[Operation] = []
        self.inputs: list[Signal] = []
        self.outputs: list[tuple[str, Signal]] = []
        #: Input buses launched from local registers (their phase is free).
        self.registered_inputs: set[str] = set()
        self._uid = 0

    # -- plumbing ---------------------------------------------------------
    def _new_signal(self, width: int, name: str | None = None) -> Signal:
        self._uid += 1
        return Signal(uid=self._uid, width=width, name=name or f"s{self._uid}")

    def _emit(
        self, op: Op, width: int, operands: Sequence[Signal], **attrs: object
    ) -> Signal:
        result = self._new_signal(width)
        self.operations.append(
            Operation(op=op, result=result, operands=tuple(operands), attrs=dict(attrs))
        )
        return result

    @staticmethod
    def _same_width(*signals: Signal) -> int:
        widths = {s.width for s in signals}
        if len(widths) != 1:
            raise ConfigError(
                f"operands must share a width, got {[s.width for s in signals]}"
            )
        return widths.pop()

    # -- ports ---------------------------------------------------------------
    def input(self, name: str, width: int, registered: bool = False) -> Signal:
        """Declare a primary input bus.

        ``registered=True`` marks the bus as launched from local state (a
        register feeding back, like a MAC accumulator); the phase-balancing
        pass aligns such inputs to their consumers instead of buffering them
        from phase 0.
        """
        signal = self._new_signal(width, name)
        self.inputs.append(signal)
        if registered:
            self.registered_inputs.add(name)
        self.operations.append(Operation(op=Op.INPUT, result=signal, operands=()))
        return signal

    def output(self, name: str, signal: Signal) -> None:
        """Declare ``signal`` as primary output bus ``name``."""
        self.outputs.append((name, signal))

    # -- arithmetic --------------------------------------------------------------
    def add(self, a: Signal, b: Signal) -> Signal:
        """Unsigned addition; result is one bit wider (carry out kept)."""
        width = self._same_width(a, b)
        return self._emit(Op.ADD, width + 1, (a, b))

    def sub(self, a: Signal, b: Signal) -> Signal:
        """Unsigned subtraction modulo 2^width (two's complement)."""
        width = self._same_width(a, b)
        return self._emit(Op.SUB, width, (a, b))

    def mul(self, a: Signal, b: Signal) -> Signal:
        """Unsigned multiplication; result width is the sum of widths."""
        return self._emit(Op.MUL, a.width + b.width, (a, b))

    # -- bitwise ---------------------------------------------------------------
    def and_(self, a: Signal, b: Signal) -> Signal:
        return self._emit(Op.AND, self._same_width(a, b), (a, b))

    def or_(self, a: Signal, b: Signal) -> Signal:
        return self._emit(Op.OR, self._same_width(a, b), (a, b))

    def not_(self, a: Signal) -> Signal:
        return self._emit(Op.NOT, a.width, (a,))

    # -- comparisons --------------------------------------------------------------
    def eq(self, a: Signal, b: Signal) -> Signal:
        """Equality; 1-bit result."""
        self._same_width(a, b)
        return self._emit(Op.EQ, 1, (a, b))

    def lt(self, a: Signal, b: Signal) -> Signal:
        """Unsigned less-than; 1-bit result."""
        self._same_width(a, b)
        return self._emit(Op.LT, 1, (a, b))

    # -- steering ---------------------------------------------------------------
    def mux(self, select: Signal, if0: Signal, if1: Signal) -> Signal:
        """Word-level 2:1 mux; ``select`` must be 1 bit wide."""
        if select.width != 1:
            raise ConfigError("mux select must be 1 bit")
        width = self._same_width(if0, if1)
        return self._emit(Op.MUX, width, (select, if0, if1))

    # -- shifts ---------------------------------------------------------------
    def shl_dyn(self, a: Signal, amount: Signal) -> Signal:
        """Left shift by a dynamic amount (barrel shifter)."""
        return self._emit(Op.SHL_DYN, a.width, (a, amount))

    # -- structure ---------------------------------------------------------------
    def slice_(self, a: Signal, low: int, high: int) -> Signal:
        """Bit slice ``a[high:low]`` inclusive; LSB-first indexing."""
        if not 0 <= low <= high < a.width:
            raise ConfigError(
                f"slice [{high}:{low}] out of range for width {a.width}"
            )
        return self._emit(Op.SLICE, high - low + 1, (a,), low=low, high=high)

    def reduce_or(self, a: Signal) -> Signal:
        """OR-reduce a bus to one bit."""
        return self._emit(Op.REDUCE_OR, 1, (a,))


__all__ = ["Op", "Signal", "Operation", "RTLModule"]
