"""PCL cell-library tests."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.pcl.library import DEFAULT_LIBRARY, default_library, majority3

#: Reference boolean functions for exhaustive cell checking.
REFERENCE = {
    "buf": lambda a: a,
    "inv": lambda a: not a,
    "and2": lambda a, b: a and b,
    "or2": lambda a, b: a or b,
    "nand2": lambda a, b: not (a and b),
    "nor2": lambda a, b: not (a or b),
    "andnot2": lambda a, b: a and not b,
    "xor2": lambda a, b: a != b,
    "xnor2": lambda a, b: a == b,
    "and3": lambda a, b, c: a and b and c,
    "or3": lambda a, b, c: a or b or c,
    "maj3": majority3,
    "xor3": lambda a, b, c: (a != b) != c,
    "and4": lambda a, b, c, d: a and b and c and d,
    "or4": lambda a, b, c, d: a or b or c or d,
    "a22o": lambda a, b, c, d: (a and b) or (c and d),
    "o22a": lambda a, b, c, d: (a or b) and (c or d),
    "mux2": lambda s, a, b: b if s else a,
    "dff": lambda d: d,
}


class TestCellFunctions:
    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_exhaustive_truth_table(self, name):
        cell = DEFAULT_LIBRARY[name]
        ref = REFERENCE[name]
        for bits in itertools.product([False, True], repeat=cell.n_inputs):
            assert cell.evaluate(bits) == (bool(ref(*bits)),), (name, bits)

    def test_half_adder_truth_table(self):
        ha = DEFAULT_LIBRARY["ha"]
        for a, b in itertools.product([False, True], repeat=2):
            s, c = ha.evaluate((a, b))
            assert int(s) + 2 * int(c) == int(a) + int(b)

    def test_full_adder_truth_table(self):
        fa = DEFAULT_LIBRARY["fa"]
        for a, b, c in itertools.product([False, True], repeat=3):
            s, carry = fa.evaluate((a, b, c))
            assert int(s) + 2 * int(carry) == int(a) + int(b) + int(c)

    def test_wrong_arity_rejected(self):
        with pytest.raises(ConfigError):
            DEFAULT_LIBRARY["and2"].evaluate((True,))


class TestCosts:
    def test_inverter_is_free(self):
        inv = DEFAULT_LIBRARY["inv"]
        assert inv.jj_count == 0
        assert inv.depth == 0
        assert inv.area == 0.0

    def test_dual_rail_two_input_cells_cost_8jj(self):
        for name in ("and2", "or2", "nand2", "nor2"):
            assert DEFAULT_LIBRARY[name].jj_count == 8

    def test_xor_costs_more_than_and(self):
        assert DEFAULT_LIBRARY["xor2"].jj_count > DEFAULT_LIBRARY["and2"].jj_count

    def test_full_adder_cost_and_depth(self):
        fa = DEFAULT_LIBRARY["fa"]
        assert fa.jj_count == 40
        assert fa.depth == 2  # OR3/MAJ3/AND3 then second stage (Fig. 1f)

    def test_area_tracks_jj_count(self):
        lib = DEFAULT_LIBRARY
        assert lib["fa"].area > lib["and2"].area > 0

    def test_splitter_is_phase_transparent(self):
        assert DEFAULT_LIBRARY.splitter_depth == 0
        assert DEFAULT_LIBRARY.buffer_depth == 1


class TestLibraryContainer:
    def test_unknown_cell_raises(self):
        with pytest.raises(ConfigError, match="unknown PCL cell"):
            DEFAULT_LIBRARY["nonexistent"]

    def test_contains(self):
        assert "fa" in DEFAULT_LIBRARY
        assert "bogus" not in DEFAULT_LIBRARY

    def test_default_library_fresh_instance(self):
        assert default_library().cells.keys() == DEFAULT_LIBRARY.cells.keys()


class TestMajority:
    @given(st.booleans(), st.booleans(), st.booleans())
    def test_majority_definition(self, a, b, c):
        assert majority3(a, b, c) == (int(a) + int(b) + int(c) >= 2)

    @given(st.booleans(), st.booleans(), st.booleans())
    def test_majority_symmetric(self, a, b, c):
        assert majority3(a, b, c) == majority3(c, a, b) == majority3(b, c, a)
