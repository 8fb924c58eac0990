"""End-to-end flow-driver tests."""

from __future__ import annotations

import pytest

from repro.eda.designs import adder
from repro.eda.flow import FlowReport, run_flow
from repro.eda.phase import verify_phase_alignment
from repro.eda.rtl import RTLModule
from repro.eda.synthesis import synthesize
from repro.errors import SynthesisError


class TestRunFlow:
    def test_accepts_rtl_module(self):
        report = run_flow(adder(8))
        assert isinstance(report, FlowReport)
        assert report.name == "adder8"

    def test_accepts_netlist(self):
        netlist = synthesize(adder(8))
        report = run_flow(netlist)
        assert report.logic_jj == netlist.jj_count()

    def test_rejects_other_types(self):
        with pytest.raises(SynthesisError):
            run_flow("not a design")

    def test_final_netlist_is_phase_aligned(self):
        report = run_flow(adder(8))
        assert verify_phase_alignment(report.netlist)

    def test_jj_accounting_consistent(self):
        report = run_flow(adder(8))
        assert report.total_jj == report.logic_jj + report.splitter_jj + report.buffer_jj
        assert report.datapath_jj == report.logic_jj + report.splitter_jj
        assert report.netlist.jj_count() == report.total_jj

    def test_wider_adder_costs_more(self):
        small = run_flow(adder(8))
        large = run_flow(adder(16))
        assert large.total_jj > small.total_jj
        assert large.pipeline_depth > small.pipeline_depth

    def test_stage_reports_attached(self):
        report = run_flow(adder(8))
        assert report.dual_rail.physical_wires > 0
        assert report.phases.total_phases == report.pipeline_depth
        assert report.placement.placed_area == report.area
