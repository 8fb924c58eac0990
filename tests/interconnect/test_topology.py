"""2D-torus topology tests: the shape the blade's fabric reads."""

from __future__ import annotations

import pytest

from repro.arch.blade import build_blade
from repro.errors import ConfigError
from repro.interconnect.collectives import all_reduce_time
from repro.interconnect.topology import Torus2D


class TestStructure:
    def test_baseline_8x8(self):
        torus = Torus2D()
        assert (torus.nx, torus.ny) == (8, 8)
        assert torus.n_nodes == 64

    def test_rectangular_node_count(self):
        assert Torus2D(4, 16).n_nodes == 64
        assert Torus2D(1, 3).n_nodes == 3

    @pytest.mark.parametrize("nx, ny", [(0, 8), (8, 0), (-2, 8)])
    def test_non_positive_dimensions_rejected(self, nx, ny):
        with pytest.raises(ConfigError):
            Torus2D(nx, ny)

    def test_blade_fabric_reads_the_shape(self):
        blade = build_blade(nx=4, ny=16)
        assert blade.n_spus == blade.torus.n_nodes == 64
        assert blade.fabric().torus_shape == (4, 16)

    @pytest.mark.parametrize("nx, ny", [(8, 8), (4, 16), (16, 4), (2, 2), (1, 8)])
    def test_blade_all_reduce_latency_is_the_reduction_primitive(self, nx, ny):
        """Whatever the shape, a full-blade all-reduce's latency term (its
        time less the bandwidth term) is the blade's reduction primitive."""
        blade = build_blade(nx=nx, ny=ny)
        fabric = blade.fabric()
        p, n_bytes = blade.n_spus, 64.0
        bandwidth_term = 2 * (p - 1) / p * n_bytes / fabric.bandwidth
        latency_term = all_reduce_time(fabric, n_bytes, p) - bandwidth_term
        assert latency_term == pytest.approx(blade.reduction_latency)
