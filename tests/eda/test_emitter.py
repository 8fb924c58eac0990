"""GateEmitter property tests: the datapath generators behind synthesis.

Each property builds a small netlist with the emitter, simulates it, and
checks the arithmetic identity the generator must preserve.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.synthesis import GateEmitter, _library_with_constants
from repro.pcl.netlist import NetlistBuilder
from repro.pcl.simulate import simulate_bus

u8 = st.integers(min_value=0, max_value=255)
u6 = st.integers(min_value=0, max_value=63)


def make_emitter(name: str):
    builder = NetlistBuilder(name)
    builder.library = _library_with_constants(builder.library)
    return builder, GateEmitter(builder)


def finish_and_run(builder, emit, out_bits, buses, widths):
    builder.output_bus("out", [emit.materialize(bit) for bit in out_bits])
    netlist = builder.build()
    return simulate_bus(netlist, buses, widths)["out"]


class TestCarrySave:
    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_multiply_carry_save_rows_sum_to_product(self, a, b):
        builder, emit = make_emitter("csmul")
        a_bits = builder.input_bus("a", 8)
        b_bits = builder.input_bus("b", 8)
        row_s, row_c = emit.multiply_carry_save(a_bits, b_bits)
        total, _ = emit.ripple_add(row_s, row_c)
        out = finish_and_run(
            builder, emit, total, {"a": a, "b": b}, {"a": 8, "b": 8}
        )
        assert out % 65536 == a * b

    @given(st.lists(u6, min_size=3, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_carry_save_reduce_preserves_sum(self, values):
        width = 10
        builder, emit = make_emitter("csr")
        rows = []
        buses = {}
        widths = {}
        for k, value in enumerate(values):
            bits = builder.input_bus(f"x{k}", 6)
            rows.append(list(bits))
            buses[f"x{k}"] = value
            widths[f"x{k}"] = 6
        while len(rows) > 2:
            rows = emit.carry_save_reduce(rows, width)
        padded = [(row + [False] * width)[:width] for row in rows]
        total, _ = emit.ripple_add(padded[0], padded[1])
        out = finish_and_run(builder, emit, total, buses, widths)
        assert out == sum(values) % (1 << width)


class TestComparatorsAndFolding:
    @given(u8, u8, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_full_add_with_constant_carry(self, a, b, carry):
        builder, emit = make_emitter("fac")
        a_bits = builder.input_bus("a", 8)
        b_bits = builder.input_bus("b", 8)
        total, cout = emit.ripple_add(a_bits, b_bits, carry_in=carry)
        out = finish_and_run(
            builder, emit, total + [cout], {"a": a, "b": b}, {"a": 8, "b": 8}
        )
        assert out == a + b + int(carry)

    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_subtract_not_borrow(self, a, b):
        builder, emit = make_emitter("subnb")
        a_bits = builder.input_bus("a", 8)
        b_bits = builder.input_bus("b", 8)
        diff, not_borrow = emit.subtract(a_bits, b_bits)
        out = finish_and_run(
            builder, emit, diff + [not_borrow], {"a": a, "b": b}, {"a": 8, "b": 8}
        )
        assert out & 0xFF == (a - b) % 256
        assert (out >> 8) == int(a >= b)

    def test_pure_constant_full_add(self):
        _, emit = make_emitter("cfa")
        for a in (False, True):
            for b in (False, True):
                for c in (False, True):
                    s, carry = emit.full_add(a, b, c)
                    assert int(s) + 2 * int(carry) == int(a) + int(b) + int(c)

    def test_reduce_tree_empty_rejected(self):
        from repro.errors import SynthesisError

        _, emit = make_emitter("empty")
        with pytest.raises(SynthesisError):
            emit.reduce_tree([], "or")

    @given(st.lists(st.booleans(), min_size=1, max_size=9))
    @settings(max_examples=15, deadline=None)
    def test_reduce_tree_constants(self, bits):
        _, emit = make_emitter("red")
        assert emit.reduce_tree(list(bits), "or") == any(bits)
        assert emit.reduce_tree(list(bits), "and") == all(bits)


class TestBarrelShift:
    @given(u8, st.integers(min_value=0, max_value=15))
    @settings(max_examples=15, deadline=None)
    def test_shift_beyond_width_zeroes(self, a, amount):
        builder, emit = make_emitter("bigshift")
        a_bits = builder.input_bus("a", 8)
        amt_bits = builder.input_bus("amt", 4)  # up to 15 > width 8
        shifted = emit.barrel_shift(a_bits, amt_bits)
        out = finish_and_run(
            builder, emit, shifted,
            {"a": a, "amt": amount}, {"a": 8, "amt": 4},
        )
        assert out == (a << amount) % 256


def build_and_sweep(builder, emit, out_bits, width):
    """Simulate the emitted bits on every value of the ``width``-bit input
    bus ``x``; returns the netlist and ``{x: out}``."""
    builder.output_bus("out", [emit.materialize(bit) for bit in out_bits])
    netlist = builder.build()
    results = {
        x: simulate_bus(netlist, {"x": x}, {"x": width})["out"]
        for x in range(1 << width)
    }
    return netlist, results


class TestMuxFolding:
    """Every constant pattern ``mux`` folds still computes ``s ? if1 : if0``,
    without a ``mux2`` cell."""

    @pytest.mark.parametrize(
        "if0, if1",
        [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
            ("net", False),
            ("net", True),
            (False, "net"),
            (True, "net"),
        ],
    )
    def test_constant_data(self, if0, if1):
        builder, emit = make_emitter("mfold")
        select, data = builder.input_bus("x", 2)
        pick = {"net": data, False: False, True: True}
        out = emit.mux(select, pick[if0], pick[if1])
        netlist, results = build_and_sweep(builder, emit, [out], 2)
        for x, got in results.items():
            s, d = x & 1, x >> 1
            value = {"net": d, False: 0, True: 1}
            assert got == (value[if1] if s else value[if0]), x
        assert "mux2" not in {inst.cell for inst in netlist.instances}

    @pytest.mark.parametrize("select", [False, True])
    def test_constant_select_wires_the_branch(self, select):
        builder, emit = make_emitter("msel")
        if0, if1 = builder.input_bus("x", 2)
        out = emit.mux(select, if0, if1)
        netlist, results = build_and_sweep(builder, emit, [out], 2)
        for x, got in results.items():
            assert got == (x >> 1 if select else x & 1), x
        assert netlist.instances == []


class TestFullAddFolding:
    @pytest.mark.parametrize(
        "constants",
        [(False,), (True,), (False, False), (False, True), (True, True)],
    )
    def test_partial_constants(self, constants):
        """One or two constant operands fold to the column sum without an
        ``fa`` cell."""
        width = 3 - len(constants)
        builder, emit = make_emitter("fafold")
        nets = builder.input_bus("x", width)
        s, carry = emit.full_add(*nets, *constants)
        netlist, results = build_and_sweep(builder, emit, [s, carry], width)
        for x, got in results.items():
            assert got == bin(x).count("1") + sum(constants), x
        assert "fa" not in {inst.cell for inst in netlist.instances}
