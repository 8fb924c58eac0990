"""Netlist structure tests: builder, validation, metrics."""

from __future__ import annotations

import pytest

from repro.errors import NetlistError
from repro.pcl.netlist import Instance, Net, Netlist, NetlistBuilder


def half_adder_netlist() -> Netlist:
    b = NetlistBuilder("ha")
    a, c = b.input("a"), b.input("b")
    b.output("sum", b.xor_(a, c))
    b.output("carry", b.and_(a, c))
    return b.build()


class TestBuilder:
    def test_build_validates(self):
        netlist = half_adder_netlist()
        assert len(netlist.inputs) == 2
        assert len(netlist.outputs) == 2
        assert netlist.output_names == ["sum", "carry"]

    def test_input_bus_naming(self):
        b = NetlistBuilder("bus")
        nets = b.input_bus("x", 4)
        assert [n.name for n in nets] == ["x[0]", "x[1]", "x[2]", "x[3]"]

    def test_gate_arity_checked(self):
        b = NetlistBuilder("bad")
        a = b.input("a")
        with pytest.raises(NetlistError):
            b.gate("and2", a)

    def test_gate_multi_for_multi_output(self):
        b = NetlistBuilder("fa")
        x, y, z = b.input("x"), b.input("y"), b.input("z")
        s, c = b.full_adder(x, y, z)
        b.output("s", s)
        b.output("c", c)
        netlist = b.build()
        assert [inst.cell for inst in netlist.instances] == ["fa"]

    def test_gate_on_multi_output_cell_rejected(self):
        b = NetlistBuilder("bad")
        x, y = b.input("x"), b.input("y")
        with pytest.raises(NetlistError, match="use gate_multi"):
            b.gate("ha", x, y)

    def test_bus_of(self):
        assert Netlist.bus_of("acc[3]") == "acc"
        assert Netlist.bus_of("x") == "x"


class TestValidation:
    def test_undriven_input_rejected(self):
        b = NetlistBuilder("dangling")
        a = b.input("a")
        ghost = b.net("ghost")
        b.output("out", b.and_(a, ghost))
        with pytest.raises(NetlistError, match="no driver"):
            b.build()

    def test_undriven_output_rejected(self):
        b = NetlistBuilder("dangling_out")
        b.input("a")
        b.output("out", b.net("floating"))
        with pytest.raises(NetlistError, match="no driver"):
            b.build()

    def test_multiple_drivers_rejected(self):
        shared = Net(uid=100, name="shared")
        a = Net(uid=1, name="a")
        netlist = Netlist(
            name="double",
            inputs=[a],
            outputs=[shared],
            instances=[
                Instance(uid=1, cell="buf", inputs=(a,), outputs=(shared,)),
                Instance(uid=2, cell="buf", inputs=(a,), outputs=(shared,)),
            ],
        )
        with pytest.raises(NetlistError, match="multiple"):
            netlist.validate()

    def test_combinational_cycle_rejected(self):
        a = Net(uid=1, name="a")
        x = Net(uid=2, name="x")
        y = Net(uid=3, name="y")
        netlist = Netlist(
            name="cycle",
            inputs=[a],
            outputs=[x],
            instances=[
                Instance(uid=1, cell="and2", inputs=(a, y), outputs=(x,)),
                Instance(uid=2, cell="buf", inputs=(x,), outputs=(y,)),
            ],
        )
        with pytest.raises(NetlistError, match="cycle"):
            netlist.validate()

    def test_output_names_length_checked(self):
        a = Net(uid=1, name="a")
        with pytest.raises(NetlistError):
            Netlist(name="bad", inputs=[a], outputs=[a], output_names=["x", "y"])


class TestMetrics:
    def test_jj_count(self):
        netlist = half_adder_netlist()
        lib = netlist.library
        assert netlist.jj_count() == lib["xor2"].jj_count + lib["and2"].jj_count

    def test_cell_area_positive(self):
        assert half_adder_netlist().cell_area() > 0

    def test_histogram(self):
        cells = sorted(inst.cell for inst in half_adder_netlist().instances)
        assert cells == ["and2", "xor2"]

    def test_fanout_count(self):
        b = NetlistBuilder("fan")
        a, c = b.input("a"), b.input("b")
        x = b.and_(a, c)
        b.output("o1", b.or_(x, c))
        b.output("o2", b.xor_(x, c))
        netlist = b.build()
        x_net = netlist.instances[0].outputs[0]
        assert netlist.fanout_count(x_net) == 2

    def test_topological_order_respects_deps(self):
        netlist = half_adder_netlist()
        order = netlist.topological_instances()
        assert len(order) == len(netlist.instances)


def count_sorts(netlist: Netlist, monkeypatch) -> list[int]:
    """Count the Kahn's-sort runs (memo misses) of ``netlist`` from now on."""
    sorts = [0]
    real_sort = netlist._topological_sort

    def counting_sort():
        sorts[0] += 1
        return real_sort()

    monkeypatch.setattr(netlist, "_topological_sort", counting_sort)
    return sorts


def assert_valid_order(netlist: Netlist, order: list[Instance]) -> None:
    """Every instance once, each after the drivers of its inputs."""
    assert sorted(order, key=id) == sorted(netlist.instances, key=id)
    placed: set[int] = {net.uid for net in netlist.inputs}
    for inst in order:
        assert all(net.uid in placed for net in inst.inputs), inst
        placed.update(net.uid for net in inst.outputs)


class TestTopologicalMemoization:
    def test_repeated_calls_reuse_cached_order(self, monkeypatch):
        netlist = half_adder_netlist()
        first = netlist.topological_instances()
        # A second call must be served from the memo: poison the sorter.
        monkeypatch.setattr(
            netlist,
            "_topological_sort",
            lambda: pytest.fail("Kahn's sort re-ran on an unmutated netlist"),
        )
        second = netlist.topological_instances()
        assert second == first

    def test_returns_fresh_list_each_call(self):
        netlist = half_adder_netlist()
        first = netlist.topological_instances()
        first.append(None)  # caller-side mutation must not corrupt the memo
        assert None not in netlist.topological_instances()

    def test_in_place_mutation_invalidates(self):
        netlist = half_adder_netlist()
        before = netlist.topological_instances()
        # Builder-style in-place growth: AND the two existing outputs.
        new = Instance(
            uid=99,
            cell="and2",
            inputs=(netlist.outputs[0], netlist.outputs[1]),
            outputs=(Net(uid=990, name="extra"),),
        )
        netlist.instances.append(new)
        after = netlist.topological_instances()
        assert len(after) == len(before) + 1
        assert new in after

    def test_instance_replaced_in_place_resorts(self, monkeypatch):
        netlist = half_adder_netlist()
        xor, carry = netlist.instances
        assert netlist.topological_instances() == [carry, xor]
        sorts = count_sorts(netlist, monkeypatch)
        # Same list length, new object: the carry now reads the sum, so it
        # must follow the XOR that the cached order put after it.
        rewired = Instance(
            uid=carry.uid,
            cell="and2",
            inputs=(xor.outputs[0], carry.inputs[1]),
            outputs=carry.outputs,
        )
        netlist.instances[1] = rewired
        order = netlist.topological_instances()
        assert sorts == [1]
        assert order == [xor, rewired]
        assert_valid_order(netlist, order)
        netlist.topological_instances()
        assert sorts == [1]  # the new order is memoized in turn

    def test_appended_primary_input_resorts(self, monkeypatch):
        netlist = half_adder_netlist()
        netlist.topological_instances()
        sorts = count_sorts(netlist, monkeypatch)
        netlist.inputs.append(Net(uid=990, name="spare"))
        order = netlist.topological_instances()
        assert sorts == [1]
        assert_valid_order(netlist, order)
        netlist.topological_instances()
        assert sorts == [1]

    def test_cycle_still_detected(self):
        b = NetlistBuilder("loop")
        a = b.input("a")
        n1 = b.net("n1")
        n2 = b.net("n2")
        cyc1 = Instance(uid=100, cell="and2", inputs=(a, n2), outputs=(n1,))
        cyc2 = Instance(uid=101, cell="and2", inputs=(a, n1), outputs=(n2,))
        netlist = Netlist(
            name="loop", inputs=[a], outputs=[n1], instances=[cyc1, cyc2]
        )
        with pytest.raises(NetlistError):
            netlist.topological_instances()
        # The failed sort must not poison the cache.
        with pytest.raises(NetlistError):
            netlist.topological_instances()
