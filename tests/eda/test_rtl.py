"""Word-level RTL IR tests."""

from __future__ import annotations

import pytest

from repro.eda.designs import DESIGN_DATABASE
from repro.eda.rtl import Op, RTLModule
from repro.errors import ConfigError


class TestPorts:
    def test_input_output(self):
        m = RTLModule("m")
        a = m.input("a", 8)
        m.output("out", a)
        assert a.width == 8
        assert m.outputs == [("out", a)]

    def test_registered_input(self):
        m = RTLModule("m")
        m.input("acc", 32, registered=True)
        assert "acc" in m.registered_inputs


class TestWidths:
    def test_add_grows_one_bit(self):
        m = RTLModule("m")
        a, b = m.input("a", 8), m.input("b", 8)
        assert m.add(a, b).width == 9

    def test_mul_width_sum(self):
        m = RTLModule("m")
        a, b = m.input("a", 8), m.input("b", 4)
        assert m.mul(a, b).width == 12

    def test_mismatched_widths_rejected(self):
        m = RTLModule("m")
        a, b = m.input("a", 8), m.input("b", 4)
        with pytest.raises(ConfigError, match="share a width"):
            m.add(a, b)

    def test_comparisons_are_one_bit(self):
        m = RTLModule("m")
        a, b = m.input("a", 8), m.input("b", 8)
        assert m.eq(a, b).width == 1
        assert m.lt(a, b).width == 1

    def test_mux_select_must_be_one_bit(self):
        m = RTLModule("m")
        s, a, b = m.input("s", 2), m.input("a", 8), m.input("b", 8)
        with pytest.raises(ConfigError, match="1 bit"):
            m.mux(s, a, b)

    def test_slice(self):
        m = RTLModule("m")
        a = m.input("a", 8)
        assert m.slice_(a, 0, 3).width == 4
        with pytest.raises(ConfigError):
            m.slice_(a, 6, 9)

    def test_reduce_widths(self):
        m = RTLModule("m")
        a = m.input("a", 8)
        assert m.reduce_or(a).width == 1


class TestSSA:
    def test_operations_recorded_in_order(self):
        m = RTLModule("m")
        a, b = m.input("a", 4), m.input("b", 4)
        m.add(a, b)
        kinds = [op.op for op in m.operations]
        assert kinds == [Op.INPUT, Op.INPUT, Op.ADD]

    def test_unique_uids(self):
        m = RTLModule("m")
        signals = [m.input(f"i{k}", 4) for k in range(10)]
        assert len({s.uid for s in signals}) == 10


class TestOpSet:
    def test_ir_defines_exactly_the_ops_the_design_database_emits(self):
        """Every op lowers through a ``synthesize`` branch that the
        ``pcl-flow`` table runs; an op no design emits has no user."""
        emitted: set[Op] = set()
        for generator in DESIGN_DATABASE.values():
            design = generator()
            if isinstance(design, RTLModule):
                emitted.update(operation.op for operation in design.operations)
        assert set(Op) == emitted, sorted(op.name for op in set(Op) ^ emitted)
