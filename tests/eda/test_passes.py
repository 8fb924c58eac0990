"""Flow-pass tests: dual-rail conversion, splitter insertion, phase balancing,
placement — structure, invariants, and function preservation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.designs import adder, alu, multiplier
from repro.eda.dualrail import to_dual_rail
from repro.eda.phase import balance_phases, net_phases, verify_phase_alignment
from repro.eda.place_route import place_and_route
from repro.eda.splitter import insert_splitters
from repro.eda.synthesis import synthesize
from repro.pcl.netlist import NetlistBuilder
from repro.pcl.simulate import simulate_bus


@pytest.fixture(scope="module")
def adder8_netlist():
    return synthesize(adder(8))


class TestDualRail:
    def test_wire_doubling(self, adder8_netlist):
        report = to_dual_rail(adder8_netlist)
        assert report.physical_wires == 2 * report.logical_nets

    def test_inversions_counted(self):
        b = NetlistBuilder("inv_test")
        a = b.input("a")
        b.output("out", b.not_(b.not_(a)))
        report = to_dual_rail(b.build())
        assert report.inversions_folded == 2
        assert report.dual_rail_cells == 0

    def test_netlist_unchanged(self, adder8_netlist):
        report = to_dual_rail(adder8_netlist)
        assert report.netlist is adder8_netlist


class TestSplitterInsertion:
    def test_fanout_legalized_to_one(self, adder8_netlist):
        result = insert_splitters(adder8_netlist).netlist
        for net in result.nets():
            assert result.fanout_count(net) <= 1, net

    def test_splitter_count_is_fanout_minus_one(self):
        b = NetlistBuilder("fan4")
        a, c = b.input("a"), b.input("b")
        x = b.and_(a, c)
        for i in range(4):
            b.output(f"o{i}", b.gate("buf", x))
        report = insert_splitters(b.build())
        # x feeds 4 sinks -> 3 splitters for it (plus none for single-fanout).
        assert report.splitters_inserted == 3
        assert report.max_fanout_before == 4

    def test_no_fanout_means_no_splitters(self):
        b = NetlistBuilder("chain")
        a = b.input("a")
        b.output("out", b.gate("buf", b.gate("buf", a)))
        report = insert_splitters(b.build())
        assert report.splitters_inserted == 0

    def test_function_preserved(self, adder8_netlist):
        legalized = insert_splitters(adder8_netlist).netlist
        out = simulate_bus(legalized, {"a": 77, "b": 88}, {"a": 8, "b": 8})
        assert out["sum"] == 165


class TestPhaseBalancing:
    def test_alignment_invariant(self, adder8_netlist):
        balanced = balance_phases(adder8_netlist).netlist
        assert verify_phase_alignment(balanced)

    def test_unbalanced_netlist_detected(self):
        b = NetlistBuilder("skewed")
        a, c = b.input("a"), b.input("b")
        deep = b.and_(b.and_(a, c), c)  # depth 2
        b.output("out", b.or_(deep, a))  # 'a' arrives at phase 0 vs 2
        assert not verify_phase_alignment(b.build())

    def test_buffer_chains_shared(self):
        # One net needed at lags 1 and 2 -> a single 2-stage chain, not 3
        # separate buffers.
        b = NetlistBuilder("taps")
        a, c = b.input("a"), b.input("b")
        l1 = b.and_(a, c)
        l2 = b.and_(l1, c)  # c used at phase 1 (lag 1)... and phase 0
        b.output("out", b.and_(l2, c))  # c at phase 2 (lag 2)
        report = balance_phases(b.build())
        assert report.buffers_inserted == 2 + 0  # chain to max lag of 'c' only
        assert verify_phase_alignment(report.netlist)

    def test_outputs_balanced_to_same_phase(self, adder8_netlist):
        balanced = balance_phases(adder8_netlist).netlist
        phases = net_phases(balanced)
        out_phases = {phases[n.uid] for n in balanced.outputs}
        assert len(out_phases) == 1

    def test_function_preserved_through_balance(self, adder8_netlist):
        balanced = balance_phases(adder8_netlist).netlist
        out = simulate_bus(balanced, {"a": 19, "b": 23}, {"a": 8, "b": 8})
        assert out["sum"] == 42

    def test_free_inputs_need_no_buffers(self):
        b = NetlistBuilder("regfb")
        a, c = b.input("a"), b.input("b")
        acc = b.input("acc")
        deep = b.and_(b.and_(a, c), c)
        b.output("out", b.and_(deep, acc))
        plain = balance_phases(b.build())

        b2 = NetlistBuilder("regfb2")
        a2, c2 = b2.input("a"), b2.input("b")
        acc2 = b2.input("acc")
        deep2 = b2.and_(b2.and_(a2, c2), c2)
        b2.output("out", b2.and_(deep2, acc2))
        netlist2 = b2.build()
        netlist2.free_input_buses = {"acc"}
        free = balance_phases(netlist2)
        assert free.buffers_inserted < plain.buffers_inserted
        assert verify_phase_alignment(free.netlist)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    @settings(max_examples=10, deadline=None)
    def test_balance_then_split_preserves_adder(self, a, b_val):
        netlist = synthesize(adder(8))
        staged = insert_splitters(balance_phases(netlist).netlist).netlist
        out = simulate_bus(staged, {"a": a, "b": b_val}, {"a": 8, "b": 8})
        assert out["sum"] == a + b_val


class TestPlacement:
    def test_report_geometry(self, adder8_netlist):
        balanced = balance_phases(adder8_netlist).netlist
        report = place_and_route(balanced)
        assert report.die_width > 0 and report.die_height > 0
        assert report.placed_area >= report.cell_area
        assert report.total_wirelength > 0
        assert report.max_wirelength >= report.average_wirelength

    def test_inductance_tracks_wirelength(self, adder8_netlist):
        report = place_and_route(adder8_netlist)
        assert report.max_inductance > report.average_inductance > 0

    def test_utilization_validated(self, adder8_netlist):
        with pytest.raises(ValueError):
            place_and_route(adder8_netlist, utilization=0.0)
        with pytest.raises(ValueError):
            place_and_route(adder8_netlist, utilization=1.5)

    def test_higher_utilization_smaller_area(self, adder8_netlist):
        loose = place_and_route(adder8_netlist, utilization=0.25)
        tight = place_and_route(adder8_netlist, utilization=0.75)
        assert tight.placed_area < loose.placed_area
