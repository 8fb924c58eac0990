"""Synthesis tests: word-level ops lower to functionally correct gates.

Every op kind is checked by simulating the synthesized netlist against
Python reference arithmetic, with hypothesis driving the operand space.
"""

from __future__ import annotations

import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.rtl import Op, RTLModule
from repro.eda.synthesis import GateEmitter, _library_with_constants, synthesize
from repro.pcl.netlist import NetlistBuilder
from repro.pcl.simulate import simulate_bus

u8 = st.integers(min_value=0, max_value=255)
u4 = st.integers(min_value=0, max_value=15)


def run(module, **buses):
    widths = {s.name: s.width for s in module.inputs}
    netlist = synthesize(module)
    return simulate_bus(netlist, buses, widths)


class TestArithmetic:
    @given(u8, u8)
    @settings(max_examples=25, deadline=None)
    def test_add(self, a, b):
        m = RTLModule("add")
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("out", m.add(x, y))
        assert run(m, a=a, b=b)["out"] == a + b

    @given(u8, u8)
    @settings(max_examples=25, deadline=None)
    def test_sub_modulo(self, a, b):
        m = RTLModule("sub")
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("out", m.sub(x, y))
        assert run(m, a=a, b=b)["out"] == (a - b) % 256

    @given(u8, u8)
    @settings(max_examples=25, deadline=None)
    def test_mul(self, a, b):
        m = RTLModule("mul")
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("out", m.mul(x, y))
        assert run(m, a=a, b=b)["out"] == a * b

    @given(u4, u4, u8)
    @settings(max_examples=25, deadline=None)
    def test_add_of_mul(self, a, b, c):
        m = RTLModule("mac")
        x, y = m.input("a", 4), m.input("b", 4)
        z = m.input("c", 8)
        m.output("out", m.add(m.mul(x, y), z))
        assert run(m, a=a, b=b, c=c)["out"] == a * b + c


class TestBitwiseAndCompare:
    @given(u8, u8)
    @settings(max_examples=20, deadline=None)
    def test_bitwise(self, a, b):
        m = RTLModule("bitops")
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("and_", m.and_(x, y))
        m.output("or_", m.or_(x, y))
        m.output("not_", m.not_(x))
        out = run(m, a=a, b=b)
        assert out["and_"] == a & b
        assert out["or_"] == a | b
        assert out["not_"] == (~a) % 256

    @given(u8, u8)
    @settings(max_examples=20, deadline=None)
    def test_compare(self, a, b):
        m = RTLModule("cmp")
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("eq", m.eq(x, y))
        m.output("lt", m.lt(x, y))
        out = run(m, a=a, b=b)
        assert out["eq"] == int(a == b)
        assert out["lt"] == int(a < b)


class TestShiftsAndSteering:
    @given(u8, st.integers(min_value=0, max_value=7))
    @settings(max_examples=20, deadline=None)
    def test_dynamic_shifts(self, a, amount):
        m = RTLModule("shift")
        x = m.input("a", 8)
        amt = m.input("amt", 3)
        m.output("left", m.shl_dyn(x, amt))
        out = run(m, a=a, amt=amount)
        assert out["left"] == (a << amount) % 256

    @given(st.booleans(), u8, u8)
    @settings(max_examples=20, deadline=None)
    def test_mux(self, s, a, b):
        m = RTLModule("mux")
        sel = m.input("s", 1)
        x, y = m.input("a", 8), m.input("b", 8)
        m.output("out", m.mux(sel, x, y))
        assert run(m, s=int(s), a=a, b=b)["out"] == (b if s else a)

    @given(u8)
    @settings(max_examples=10, deadline=None)
    def test_reductions(self, a):
        m = RTLModule("reduce")
        x = m.input("a", 8)
        m.output("any", m.reduce_or(x))
        out = run(m, a=a)
        assert out["any"] == int(a != 0)


W = 3

#: One single-op module per IR op over 3-bit words: input widths, the op's
#: builder (called with the inputs in order) and its Python reference.
LOWERING_CASES = {
    Op.ADD: ({"a": W, "b": W}, RTLModule.add, operator.add),
    Op.SUB: ({"a": W, "b": W}, RTLModule.sub, lambda a, b: (a - b) % 2**W),
    Op.MUL: ({"a": W, "b": W}, RTLModule.mul, operator.mul),
    Op.AND: ({"a": W, "b": W}, RTLModule.and_, operator.and_),
    Op.OR: ({"a": W, "b": W}, RTLModule.or_, operator.or_),
    Op.NOT: ({"a": W}, RTLModule.not_, lambda a: ~a % 2**W),
    Op.EQ: ({"a": W, "b": W}, RTLModule.eq, lambda a, b: int(a == b)),
    Op.LT: ({"a": W, "b": W}, RTLModule.lt, lambda a, b: int(a < b)),
    Op.MUX: (
        {"s": 1, "a": W, "b": W}, RTLModule.mux, lambda s, a, b: b if s else a
    ),
    # A 2-bit amount reaches 3, a shift by the whole word.
    Op.SHL_DYN: (
        {"a": W, "amt": 2}, RTLModule.shl_dyn, lambda a, k: (a << k) % 2**W
    ),
    Op.SLICE: ({"a": W}, lambda m, a: m.slice_(a, 1, 2), lambda a: a >> 1),
    Op.REDUCE_OR: ({"a": W}, RTLModule.reduce_or, lambda a: int(a != 0)),
}


class TestExhaustiveLowering:
    """Each ``synthesize`` branch on every operand value of a small word,
    where the hypothesis tests above sample 8-bit ones."""

    def test_every_op_has_a_case(self):
        assert set(LOWERING_CASES) == set(Op) - {Op.INPUT}

    @pytest.mark.parametrize(
        "op", list(LOWERING_CASES), ids=lambda op: op.name.lower()
    )
    def test_matches_reference_on_every_input(self, op):
        widths, build, reference = LOWERING_CASES[op]
        m = RTLModule(op.value)
        signals = [m.input(name, width) for name, width in widths.items()]
        m.output("out", build(m, *signals))
        assert {o.op for o in m.operations} == {Op.INPUT, op}
        netlist = synthesize(m)
        for values in itertools.product(*(range(1 << w) for w in widths.values())):
            buses = dict(zip(widths, values))
            out = simulate_bus(netlist, buses, widths)["out"]
            assert out == reference(*values), buses


def make_emitter(name: str):
    """A ``GateEmitter`` fed directly, as in ``test_emitter.py``: its
    constant operands are the folded bits synthesis lowers to (shift fill,
    borrow-in)."""
    builder = NetlistBuilder(name)
    builder.library = _library_with_constants(builder.library)
    return builder, GateEmitter(builder)


def finish(builder, emit, out_bits):
    builder.output_bus("out", [emit.materialize(bit) for bit in out_bits])
    return builder.build()


def constant_bits(value: int, width: int) -> list[bool]:
    return [bool((value >> k) & 1) for k in range(width)]


class TestConstantFolding:
    def test_const_add_fully_folds(self):
        builder, emit = make_emitter("cadd")
        total, carry = emit.ripple_add(constant_bits(3, 4), constant_bits(5, 4))
        netlist = finish(builder, emit, total + [carry])
        # Constants fold; only const cells remain to drive the ports.
        assert {inst.cell for inst in netlist.instances} <= {"const0", "const1"}
        assert simulate_bus(netlist, {}, {})["out"] == 8

    def test_mux_with_constant_select_picks_branch(self):
        builder, emit = make_emitter("cmux")
        a_bits = builder.input_bus("a", 4)
        out_bits = [emit.mux(True, bit, emit.not_(bit)) for bit in a_bits]
        netlist = finish(builder, emit, out_bits)
        assert simulate_bus(netlist, {"a": 5}, {"a": 4})["out"] == (~5) % 16

    def test_and_with_zero_is_zero(self):
        builder, emit = make_emitter("czero")
        a_bits = builder.input_bus("a", 4)
        out_bits = [emit.and_(a, k) for a, k in zip(a_bits, constant_bits(0, 4))]
        netlist = finish(builder, emit, out_bits)
        assert simulate_bus(netlist, {"a": 9}, {"a": 4})["out"] == 0
