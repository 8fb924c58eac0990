"""Design-database tests: every design through the FULL flow, verified
against reference arithmetic on the final (legalized, balanced) netlist."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda import designs
from repro.eda.flow import run_flow
from repro.eda.phase import verify_phase_alignment
from repro.errors import ConfigError
from repro.pcl.simulate import simulate_bus

u8 = st.integers(min_value=0, max_value=255)


@pytest.fixture(scope="module")
def flow_reports():
    """Run every database design through the flow once."""
    return {name: run_flow(gen()) for name, gen in designs.DESIGN_DATABASE.items()}


class TestDatabaseCompleteness:
    def test_paper_designs_present(self):
        # Fig. 1h: "Adder8, Crossbar, Shift Register, Register File,
        # Multiplier, ALU, MAC, ..."
        for required in (
            "adder8",
            "crossbar4x4",
            "shiftreg8x8",
            "regfile8x8",
            "multiplier8",
            "alu8",
            "mac_bf16",
        ):
            assert required in designs.DESIGN_DATABASE

    def test_all_designs_complete_flow(self, flow_reports):
        for name, report in flow_reports.items():
            assert report.total_jj > 0, name
            assert report.pipeline_depth >= 1, name
            assert report.area > 0, name

    def test_mac_hits_paper_jj_budget(self, flow_reports):
        assert 7000 <= flow_reports["mac_bf16"].datapath_jj <= 10000

    def test_total_exceeds_datapath(self, flow_reports):
        for name, report in flow_reports.items():
            assert report.total_jj >= report.datapath_jj, name


class TestFlowInvariants:
    @pytest.mark.parametrize("name", list(designs.DESIGN_DATABASE))
    def test_final_netlist_is_legal_and_fully_counted(self, flow_reports, name):
        """Every database design leaves the flow with fanout <= 1 on every
        net, aligned phases, and every junction in ``total_jj``."""
        report = flow_reports[name]
        netlist = report.netlist
        readers = netlist.fanout_map()
        port_uses = Counter(net.uid for net in netlist.outputs)
        for net in netlist.nets():
            fanout = len(readers.get(net.uid, ())) + port_uses[net.uid]
            assert fanout <= 1, net
        assert verify_phase_alignment(netlist)
        assert netlist.jj_count() == report.total_jj


class TestAdder:
    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_adder8(self, a, b):
        report = run_flow(designs.adder(8))
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["sum"] == a + b

    def test_adder_width_validated(self):
        with pytest.raises(ConfigError):
            designs.adder(0)

    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_subtractor8(self, a, b):
        report = run_flow(designs.subtractor(8))
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["diff"] == (a - b) % 256


class TestMultiplier:
    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_multiplier8(self, a, b):
        report = run_flow(designs.multiplier(8))
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["product"] == a * b


class TestShifterComparatorALU:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=31))
    @settings(max_examples=10, deadline=None)
    def test_barrel_shifter32(self, value, amount):
        report = run_flow(designs.barrel_shifter(32))
        out = simulate_bus(
            report.netlist, {"a": value, "amount": amount}, {"a": 32, "amount": 5}
        )
        assert out["out"] == (value << amount) % 2**32

    @given(u8, u8)
    @settings(max_examples=15, deadline=None)
    def test_comparator(self, a, b):
        report = run_flow(designs.comparator(8))
        out = simulate_bus(report.netlist, {"a": a, "b": b}, {"a": 8, "b": 8})
        assert out["eq"] == int(a == b)
        assert out["lt"] == int(a < b)

    @given(u8, u8, st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_alu_ops(self, a, b, op):
        report = run_flow(designs.alu(8))
        out = simulate_bus(
            report.netlist, {"a": a, "b": b, "op": op}, {"a": 8, "b": 8, "op": 2}
        )
        expected = [
            (a + b) % 256,
            (a - b) % 256,
            a & b,
            a | b,
        ][op]
        assert out["result"] == expected
        assert out["zero"] == int(expected == 0)


class TestMAC:
    WIDTHS = {
        "man_a": 8, "man_b": 8, "exp_a": 8, "exp_b": 8,
        "sign_a": 1, "sign_b": 1, "acc_s": 32, "acc_c": 32,
    }

    @given(
        u8, u8, u8, u8,
        st.booleans(), st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_mac_contract(self, ma, mb, ea, eb, sa, sb, acc_s, acc_c):
        report = run_flow(designs.mac_bf16())
        vals = {
            "man_a": ma, "man_b": mb, "exp_a": ea, "exp_b": eb,
            "sign_a": int(sa), "sign_b": int(sb),
            "acc_s": acc_s, "acc_c": acc_c,
        }
        out = simulate_bus(report.netlist, vals, self.WIDTHS)
        exp = ea + eb
        want = (acc_s + acc_c + ((ma * mb) << (exp & 0xF))) % 2**32
        assert (out["out_s"] + out["out_c"]) % 2**32 == want
        assert out["exp_out"] == exp
        assert out["sign_out"] == int(sa != sb)

    def test_mac_accumulator_is_registered(self):
        netlist = designs.mac_bf16()
        assert netlist.free_input_buses == {"acc_s", "acc_c"}


class TestCrossbarAndStorage:
    @given(
        st.lists(u8, min_size=4, max_size=4),
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_crossbar_routes_any_permutation(self, inputs, selects):
        report = run_flow(designs.crossbar(4, 8))
        buses = {f"in{i}": v for i, v in enumerate(inputs)}
        buses.update({f"sel{j}": s for j, s in enumerate(selects)})
        widths = {f"in{i}": 8 for i in range(4)}
        widths.update({f"sel{j}": 2 for j in range(4)})
        out = simulate_bus(report.netlist, buses, widths)
        for j, s in enumerate(selects):
            assert out[f"out{j}"] == inputs[s]

    def test_crossbar_requires_power_of_two(self):
        with pytest.raises(ConfigError):
            designs.crossbar(3, 8)

    @given(u8)
    @settings(max_examples=10, deadline=None)
    def test_shift_register_transparent_model(self, value):
        report = run_flow(designs.shift_register(8, 4))
        out = simulate_bus(report.netlist, {"d": value}, {"d": 8})
        assert out["q"] == value

    def test_register_file_readback(self):
        report = run_flow(designs.register_file(8, 8))
        # Write 0xAB to register 3 with wen=1; read port 0 from 3, port 1
        # from 5 (never written -> 0 in the transparent DFF model).
        buses = {
            "wdata": 0xAB, "waddr": 3, "wen": 1, "raddr0": 3, "raddr1": 5,
        }
        widths = {"wdata": 8, "waddr": 3, "wen": 1, "raddr0": 3, "raddr1": 3}
        out = simulate_bus(report.netlist, buses, widths)
        assert out["rdata0"] == 0xAB
        assert out["rdata1"] == 0

    def test_register_file_write_disabled(self):
        report = run_flow(designs.register_file(8, 8))
        buses = {"wdata": 0xAB, "waddr": 3, "wen": 0, "raddr0": 3, "raddr1": 3}
        widths = {"wdata": 8, "waddr": 3, "wen": 1, "raddr0": 3, "raddr1": 3}
        out = simulate_bus(report.netlist, buses, widths)
        assert out["rdata0"] == 0
