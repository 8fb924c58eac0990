"""Compute-die and control-complex tests."""

from __future__ import annotations

import pytest

from repro.arch.compute import PAPER_MAC_JJ, ComputeDie, mac_jj_from_flow
from repro.arch.control import ControlComplex


class TestComputeDie:
    def test_peak_is_245_pflops(self):
        die = ComputeDie()
        assert 2.40e15 <= die.peak_flops <= 2.50e15  # paper: ~2.45

    def test_mac_count_bottom_up(self):
        # ~41k MACs, not the paper's inconsistent "400k" (README
        # "Substitutions" #3).
        die = ComputeDie()
        assert 40_000 <= die.mac_count <= 42_000

    def test_jj_budget(self):
        assert ComputeDie().jj_budget == pytest.approx(576e6)

    def test_mac_array_fits_budget(self):
        die = ComputeDie()
        assert die.mac_count * die.mac_jj <= die.jj_budget

    def test_sustained_at_80_percent(self):
        die = ComputeDie()
        assert die.sustained_flops == pytest.approx(0.8 * die.peak_flops)

    def test_power_is_watts_scale(self):
        # Petaflops at single-digit watts: the paper's "fraction of the
        # on-chip power (100x less)" headline.
        power = ComputeDie().power_watts
        assert 0.1 < power < 20

    def test_flow_mac_close_to_paper_value(self):
        flow_jj = mac_jj_from_flow()
        assert abs(flow_jj - PAPER_MAC_JJ) / PAPER_MAC_JJ < 0.15

    def test_peak_scales_with_area(self):
        small = ComputeDie(area_mm2=72)
        assert small.peak_flops == pytest.approx(ComputeDie().peak_flops / 2, rel=0.01)


class TestControlComplex:
    def test_dual_core(self):
        assert ControlComplex().n_cores == 2

    def test_dispatch_latency_sub_ns(self):
        assert ControlComplex().dispatch_latency < 1e-9

    def test_jj_budget_reasonable(self):
        control = ControlComplex()
        # Small versus the 327 MJJ MAC array but non-trivial.
        assert 1e6 < control.total_jj < 1e9
        assert control.directory_jj > 0
