"""2D-torus topology tests (cross-checked against networkx)."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.topology import Torus2D

coords = st.tuples(
    st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)
)


def torus_graph(torus: Torus2D) -> nx.Graph:
    """The torus as a :mod:`networkx` graph, from its own node and
    neighbour lists."""
    graph = nx.Graph()
    graph.add_nodes_from(torus.nodes())
    for node in torus.nodes():
        graph.add_edges_from((node, nbr) for nbr in torus.neighbors(node))
    return graph


class TestStructure:
    def test_baseline_8x8(self):
        torus = Torus2D()
        assert torus.n_nodes == 64
        assert torus.diameter == 8

    def test_every_node_has_four_neighbors(self):
        torus = Torus2D(8, 8)
        for node in torus.nodes():
            assert len(torus.neighbors(node)) == 4

    def test_small_dimension_dedup(self):
        torus = Torus2D(2, 2)
        for node in torus.nodes():
            assert len(torus.neighbors(node)) == 2

    def test_outside_node_rejected(self):
        with pytest.raises(ValueError):
            Torus2D().neighbors((8, 0))
        with pytest.raises(ValueError):
            Torus2D().hops((0, 0), (9, 9))

    def test_bisection(self):
        torus = Torus2D(8, 8)
        assert torus.bisection_links == 16
        assert torus.bisection_bandwidth(18e12) == pytest.approx(16 * 18e12)


class TestDistances:
    @given(coords, coords)
    @settings(max_examples=50, deadline=None)
    def test_hops_match_networkx_shortest_path(self, src, dst):
        torus = Torus2D(8, 8)
        expected = nx.shortest_path_length(torus_graph(torus), src, dst)
        assert torus.hops(src, dst) == expected

    @given(coords, coords)
    @settings(max_examples=30, deadline=None)
    def test_hops_symmetric(self, src, dst):
        torus = Torus2D(8, 8)
        assert torus.hops(src, dst) == torus.hops(dst, src)

    def test_wraparound_shortcut(self):
        torus = Torus2D(8, 8)
        assert torus.hops((0, 0), (7, 0)) == 1  # wrap, not 7

    @given(coords, coords)
    @settings(max_examples=30, deadline=None)
    def test_route_length_matches_hops(self, src, dst):
        torus = Torus2D(8, 8)
        route = torus.route(src, dst)
        assert len(route) - 1 == torus.hops(src, dst)
        assert route[0] == src and route[-1] == dst

    @given(coords, coords)
    @settings(max_examples=30, deadline=None)
    def test_route_steps_are_adjacent(self, src, dst):
        torus = Torus2D(8, 8)
        route = torus.route(src, dst)
        for a, b in zip(route, route[1:]):
            assert b in torus.neighbors(a)

    def test_average_hops_8x8(self):
        # Analytic mean for an even torus: each dimension contributes k/4
        # averaged over ordered pairs including equal coordinates.
        torus = Torus2D(8, 8)
        assert torus.average_hops() == pytest.approx(4.06, abs=0.05)


class TestRingOrder:
    def test_hamiltonian(self):
        torus = Torus2D(8, 8)
        order = torus.ring_order()
        assert len(order) == 64
        assert len(set(order)) == 64

    def test_consecutive_nodes_adjacent(self):
        torus = Torus2D(8, 8)
        order = torus.ring_order()
        for a, b in zip(order, order[1:]):
            assert torus.hops(a, b) == 1
