"""Switch, datalink and packaging tests."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.interconnect.datalink import baseline_datalink
from repro.interconnect.packaging import BumpField, chip_to_chip_link, interposer_4k
from repro.interconnect.switch import SwitchSpec


class TestSwitch:
    def test_traversal_latency(self):
        switch = SwitchSpec()
        assert switch.traversal_latency == pytest.approx(6 / 30e9)

    def test_aggregate_bandwidth(self):
        switch = SwitchSpec(radix=6, port_bandwidth=18e12)
        assert switch.aggregate_bandwidth == pytest.approx(6 * 18e12)

    def test_port_width(self):
        switch = SwitchSpec(port_bandwidth=18e12)
        assert switch.port_width_bits == pytest.approx(4800)

    def test_jj_accounting(self):
        switch = SwitchSpec()
        assert switch.total_jj == pytest.approx(
            switch.crosspoint_jj + switch.buffer_jj
        )
        assert switch.crosspoint_jj > 0
        assert switch.buffer_jj > 0

    def test_crosspoint_scales_with_radix_squared(self):
        small = SwitchSpec(radix=4)
        large = SwitchSpec(radix=8)
        # First level grows ~radix², so doubling radix more than doubles it.
        assert large.crosspoint_jj > 3 * small.crosspoint_jj


class TestDatalink:
    def test_headline_bandwidths(self):
        spec = baseline_datalink()
        assert spec.downlink_bandwidth == pytest.approx(20e12)
        assert spec.uplink_bandwidth == pytest.approx(10e12)
        assert spec.bidirectional_bandwidth == pytest.approx(30e12)

    def test_wire_geometry(self):
        spec = baseline_datalink()
        assert spec.downlink.wire_pitch == pytest.approx(30e-6)
        assert spec.uplink.wire_pitch == pytest.approx(90e-6)
        assert spec.downlink.total_length == pytest.approx(60e-3)

    def test_edge_width_fits_interposer(self):
        # 20k wires at 30 µm pitch over 2 MLs -> 300 mm of edge... the paper
        # spreads the link over the glass bridge; check the accounting only.
        spec = baseline_datalink()
        assert spec.downlink.edge_width == pytest.approx(20000 * 30e-6 / 2)

    def test_scaled(self):
        spec = baseline_datalink().scaled(2.0)
        assert spec.downlink.n_wires == 40000
        assert spec.bidirectional_bandwidth == pytest.approx(60e12)

    def test_scaled_validates(self):
        with pytest.raises(ConfigError):
            baseline_datalink().scaled(0)


class TestPackaging:
    def test_chip_to_chip_matches_fig3c(self):
        field = chip_to_chip_link()
        assert field.usable_bumps == pytest.approx(4.40e4, rel=0.01)
        assert field.bandwidth == pytest.approx(73.3e12, rel=0.01)

    def test_interposer_matches_fig3c(self):
        field = interposer_4k()
        assert field.usable_bumps == pytest.approx(4.40e6, rel=0.01)
        assert field.bandwidth == pytest.approx(7.33e15, rel=0.01)

    def test_redundancy_reduces_bumps(self):
        none = BumpField(name="t", redundancy=0.0)
        some = BumpField(name="t", redundancy=0.4)
        assert some.usable_bumps == pytest.approx(0.6 * none.usable_bumps, rel=0.01)

    def test_area_fraction_bounds_sites(self):
        field = chip_to_chip_link()
        assert field.bump_sites <= field.pitch_limited_sites

    def test_bandwidth_scales_with_bit_rate(self):
        slow = BumpField(name="t", bit_rate_per_wire=15e9)
        fast = BumpField(name="t", bit_rate_per_wire=30e9)
        assert fast.bandwidth == pytest.approx(2 * slow.bandwidth)
