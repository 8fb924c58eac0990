"""Synthesis: lower word-level RTL into the PCL gate library.

Implements the "off-the-shelf synthesis" step of Fig. 1h with parameterized
datapath generators — ripple-carry adders, carry-save (Wallace) multiplier
trees, barrel shifters, comparators and mux/reduction trees — targeting the
AND2/OR2/AND3/OR3/XOR/HA/FA subset called out in the figure.

Constants are folded during lowering; bits are represented as either a
:class:`~repro.pcl.netlist.Net` or a Python ``bool``.
"""

from __future__ import annotations

from typing import Sequence, Union

from repro.errors import SynthesisError
from repro.eda.rtl import Op, RTLModule, Signal
from repro.pcl.library import PCLLibrary, DEFAULT_LIBRARY
from repro.pcl.netlist import Net, Netlist, NetlistBuilder

#: A lowered bit: a real net or a folded constant.
Bit = Union[Net, bool]


class GateEmitter:
    """Constant-folding gate-emission helpers over a :class:`NetlistBuilder`."""

    def __init__(self, builder: NetlistBuilder) -> None:
        self.builder = builder

    # -- primitives ----------------------------------------------------------
    def materialize(self, bit: Bit) -> Net:
        """Force a bit to a net, emitting a constant cell if needed."""
        if isinstance(bit, Net):
            return bit
        return self.builder.gate("const1" if bit else "const0")

    def not_(self, a: Bit) -> Bit:
        if isinstance(a, bool):
            return not a
        return self.builder.not_(a)

    def and_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, bool):
            return b if a else False
        if isinstance(b, bool):
            return a if b else False
        return self.builder.and_(a, b)

    def or_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, bool):
            return True if a else b
        if isinstance(b, bool):
            return True if b else a
        return self.builder.or_(a, b)

    def xor_(self, a: Bit, b: Bit) -> Bit:
        if isinstance(a, bool):
            return self.not_(b) if a else b
        if isinstance(b, bool):
            return self.not_(a) if b else a
        return self.builder.xor_(a, b)

    def mux(self, select: Bit, if0: Bit, if1: Bit) -> Bit:
        if isinstance(select, bool):
            return if1 if select else if0
        if isinstance(if0, bool) and isinstance(if1, bool):
            if if0 == if1:
                return if0
            return select if if1 else self.not_(select)
        if isinstance(if1, bool):
            # select ? const : net
            if if1:
                return self.or_(select, if0)
            return self.and_(self.not_(select), if0)
        if isinstance(if0, bool):
            if if0:
                return self.or_(self.not_(select), if1)
            return self.and_(select, if1)
        return self.builder.mux(select, if0, if1)

    # -- adders -----------------------------------------------------------------
    def half_add(self, a: Bit, b: Bit) -> tuple[Bit, Bit]:
        """Return ``(sum, carry)``; folds constants, else emits an HA cell."""
        if isinstance(a, bool) or isinstance(b, bool):
            return self.xor_(a, b), self.and_(a, b)
        return self.builder.half_adder(a, b)

    def full_add(self, a: Bit, b: Bit, c: Bit) -> tuple[Bit, Bit]:
        """Return ``(sum, carry)``; folds constants, else emits an FA cell."""
        constants = [x for x in (a, b, c) if isinstance(x, bool)]
        nets = [x for x in (a, b, c) if not isinstance(x, bool)]
        if len(constants) == 0:
            return self.builder.full_adder(a, b, c)
        if len(nets) == 2:
            if constants[0]:
                # a + b + 1: sum = xnor, carry = or
                s = self.not_(self.xor_(nets[0], nets[1]))
                return s, self.or_(nets[0], nets[1])
            return self.half_add(nets[0], nets[1])
        if len(nets) == 1:
            base = sum(1 for x in constants if x)
            s = self.xor_(nets[0], base % 2 == 1)
            carry: Bit = nets[0] if base == 1 else (base == 2)
            return s, carry
        total = sum(1 for x in constants if x)
        return total % 2 == 1, total >= 2

    def ripple_add(
        self, a_bits: Sequence[Bit], b_bits: Sequence[Bit], carry_in: Bit = False
    ) -> tuple[list[Bit], Bit]:
        """Ripple-carry addition (LSB first).  Returns ``(sum_bits, carry_out)``."""
        if len(a_bits) != len(b_bits):
            raise SynthesisError("ripple_add operands must have equal widths")
        carry: Bit = carry_in
        out: list[Bit] = []
        for a, b in zip(a_bits, b_bits):
            s, carry = self.full_add(a, b, carry)
            out.append(s)
        return out, carry

    def subtract(
        self, a_bits: Sequence[Bit], b_bits: Sequence[Bit]
    ) -> tuple[list[Bit], Bit]:
        """``a - b`` via two's complement; returns ``(diff_bits, not_borrow)``.

        ``not_borrow`` is the adder carry-out: 1 when ``a >= b``.
        """
        inverted = [self.not_(b) for b in b_bits]
        return self.ripple_add(a_bits, inverted, carry_in=True)

    def carry_save_reduce(self, rows: list[list[Bit]], width: int) -> list[list[Bit]]:
        """One Wallace 3:2 compression step over column-aligned partial sums.

        ``rows`` is a list of bit rows, each LSB-first and already padded or
        offset into ``width`` columns (missing bits are ``False``).
        """
        columns: list[list[Bit]] = [[] for _ in range(width)]
        for row in rows:
            for i, bit in enumerate(row):
                if isinstance(bit, bool) and not bit:
                    continue
                if i < width:
                    columns[i].append(bit)
        out_a: list[list[Bit]] = [[] for _ in range(width)]
        for i, col in enumerate(columns):
            while len(col) >= 3:
                a, b, c = col.pop(), col.pop(), col.pop()
                s, carry = self.full_add(a, b, c)
                out_a[i].append(s)
                if i + 1 < width:
                    columns[i + 1].append(carry)
            while len(col) == 2 and any(len(c) > 2 for c in columns):
                a, b = col.pop(), col.pop()
                s, carry = self.half_add(a, b)
                out_a[i].append(s)
                if i + 1 < width:
                    columns[i + 1].append(carry)
            out_a[i].extend(col)
            col.clear()
        # Re-pack into at most max-height rows.
        height = max((len(c) for c in out_a), default=0)
        rows_out: list[list[Bit]] = []
        for r in range(height):
            row: list[Bit] = []
            for i in range(width):
                row.append(out_a[i][r] if r < len(out_a[i]) else False)
            rows_out.append(row)
        return rows_out

    def multiply_carry_save(
        self, a_bits: Sequence[Bit], b_bits: Sequence[Bit]
    ) -> tuple[list[Bit], list[Bit]]:
        """Wallace-tree multiplication left in carry-save (redundant) form.

        Returns two rows whose sum equals ``a * b``; each row is LSB-first and
        padded to ``len(a)+len(b)`` bits.  High-throughput MAC datapaths keep
        the product redundant to avoid carry propagation in the inner loop.
        """
        width = len(a_bits) + len(b_bits)
        rows: list[list[Bit]] = []
        for j, b in enumerate(b_bits):
            row: list[Bit] = [False] * j
            row.extend(self.and_(a, b) for a in a_bits)
            rows.append(row)
        while len(rows) > 2:
            rows = self.carry_save_reduce(rows, width)
        padded = [
            (row + [False] * width)[:width]
            for row in (rows + [[], []])[:2]
        ]
        return padded[0], padded[1]

    def multiply(self, a_bits: Sequence[Bit], b_bits: Sequence[Bit]) -> list[Bit]:
        """Unsigned Wallace-tree multiplication; result LSB-first, width wa+wb."""
        row_a, row_b = self.multiply_carry_save(a_bits, b_bits)
        total, _carry = self.ripple_add(row_a, row_b)
        return total

    # -- shifts -----------------------------------------------------------------
    def barrel_shift(
        self, bits: Sequence[Bit], amount_bits: Sequence[Bit]
    ) -> list[Bit]:
        """Logarithmic left barrel shifter (zero fill)."""
        current = list(bits)
        width = len(current)
        for stage, sel in enumerate(amount_bits):
            offset = 1 << stage
            if offset >= width:
                # Shifting by >= width zeroes the word when sel is set.
                current = [self.mux(sel, bit, False) for bit in current]
                continue
            shifted: list[Bit] = []
            for i in range(width):
                moved: Bit = current[i - offset] if i >= offset else False
                shifted.append(self.mux(sel, current[i], moved))
            current = shifted
        return current

    # -- comparisons / reductions -----------------------------------------------
    def reduce_tree(self, bits: Sequence[Bit], op: str) -> Bit:
        """Balanced binary reduction with ``or2``/``and2``."""
        func = {"or": self.or_, "and": self.and_}[op]
        work = list(bits)
        if not work:
            raise SynthesisError("cannot reduce an empty bit list")
        while len(work) > 1:
            nxt: list[Bit] = []
            for i in range(0, len(work) - 1, 2):
                nxt.append(func(work[i], work[i + 1]))
            if len(work) % 2:
                nxt.append(work[-1])
            work = nxt
        return work[0]

    def equals(self, a_bits: Sequence[Bit], b_bits: Sequence[Bit]) -> Bit:
        """Equality comparator: AND-reduction of per-bit XNOR."""
        xnors = [self.not_(self.xor_(a, b)) for a, b in zip(a_bits, b_bits)]
        return self.reduce_tree(xnors, "and")

    def less_than(self, a_bits: Sequence[Bit], b_bits: Sequence[Bit]) -> Bit:
        """Unsigned ``a < b``: the borrow out of ``a - b``."""
        _diff, not_borrow = self.subtract(a_bits, b_bits)
        return self.not_(not_borrow)


def _library_with_constants(library: PCLLibrary) -> PCLLibrary:
    """Return a library that also contains const0/const1 pseudo-cells.

    PCL realizes constants as wiring (a clock tap for 1, no connection for 0),
    so the cells carry zero junctions and zero depth.
    """
    if "const0" in library and "const1" in library:
        return library
    from repro.pcl.library import PCLCell

    extra = dict(library.cells)
    for name, value in (("const0", False), ("const1", True)):
        extra[name] = PCLCell(
            name=name,
            n_inputs=0,
            n_outputs=1,
            jj_count=0,
            area=0.0,
            depth=0,
            function=lambda _ins, _v=value: (_v,),
        )
    return PCLLibrary(
        cells=extra,
        splitter_jj=library.splitter_jj,
        buffer_jj=library.buffer_jj,
        splitter_depth=library.splitter_depth,
        buffer_depth=library.buffer_depth,
    )


def synthesize(module: RTLModule, library: PCLLibrary | None = None) -> Netlist:
    """Lower an :class:`RTLModule` to a single-rail gate netlist."""
    library = _library_with_constants(library or DEFAULT_LIBRARY)
    builder = NetlistBuilder(module.name, library=library)
    emit = GateEmitter(builder)
    bits_of: dict[int, list[Bit]] = {}

    def operand_bits(signal: Signal) -> list[Bit]:
        try:
            return bits_of[signal.uid]
        except KeyError as exc:
            raise SynthesisError(
                f"{module.name}: signal {signal.name!r} used before definition"
            ) from exc

    for operation in module.operations:
        result = operation.result
        ops = [operand_bits(s) for s in operation.operands]
        if operation.op is Op.INPUT:
            bits_of[result.uid] = list(builder.input_bus(result.name, result.width))
        elif operation.op is Op.ADD:
            total, carry = emit.ripple_add(ops[0], ops[1])
            bits_of[result.uid] = total + [carry]
        elif operation.op is Op.SUB:
            diff, _not_borrow = emit.subtract(ops[0], ops[1])
            bits_of[result.uid] = diff
        elif operation.op is Op.MUL:
            bits_of[result.uid] = emit.multiply(ops[0], ops[1])
        elif operation.op is Op.AND:
            bits_of[result.uid] = [emit.and_(a, b) for a, b in zip(ops[0], ops[1])]
        elif operation.op is Op.OR:
            bits_of[result.uid] = [emit.or_(a, b) for a, b in zip(ops[0], ops[1])]
        elif operation.op is Op.NOT:
            bits_of[result.uid] = [emit.not_(a) for a in ops[0]]
        elif operation.op is Op.EQ:
            bits_of[result.uid] = [emit.equals(ops[0], ops[1])]
        elif operation.op is Op.LT:
            bits_of[result.uid] = [emit.less_than(ops[0], ops[1])]
        elif operation.op is Op.MUX:
            select = ops[0][0]
            bits_of[result.uid] = [
                emit.mux(select, a, b) for a, b in zip(ops[1], ops[2])
            ]
        elif operation.op is Op.SHL_DYN:
            bits_of[result.uid] = emit.barrel_shift(ops[0], ops[1])
        elif operation.op is Op.SLICE:
            low = int(operation.attrs["low"])
            high = int(operation.attrs["high"])
            bits_of[result.uid] = list(ops[0][low : high + 1])
        elif operation.op is Op.REDUCE_OR:
            bits_of[result.uid] = [emit.reduce_tree(ops[0], "or")]
        else:  # pragma: no cover - exhaustive enum
            raise SynthesisError(f"unsupported op {operation.op}")

    for name, signal in module.outputs:
        bits = operand_bits(signal)
        nets = [emit.materialize(bit) for bit in bits]
        builder.output_bus(name, nets)

    netlist = builder.build()
    netlist.free_input_buses = set(module.registered_inputs)
    return netlist


__all__ = ["Bit", "GateEmitter", "synthesize"]
