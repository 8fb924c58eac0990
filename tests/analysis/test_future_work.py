"""JSRAM-main-memory study tests (future-work extension)."""

from __future__ import annotations

import pytest

from repro.analysis.figures import jsram_main_memory_study
from repro.units import GB
from repro.workloads.llm import LLAMA2_7B


class TestJSRAMStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return jsram_main_memory_study(
            capacities=(4.19 * GB, 32 * GB, 64 * GB), io_tokens=(100, 50)
        )

    def test_small_pool_fits_nothing(self, study):
        small = [e for e in study.entries if e.jsram_capacity_bytes == 4.19 * GB]
        assert all(not e.fits for e in small)
        assert all(e.speedup == 1.0 for e in small)

    def test_32gb_fits_7b_not_13b(self, study):
        at32 = {e.model_name: e for e in study.entries if e.jsram_capacity_bytes == 32 * GB}
        assert at32["Llama2-7B"].fits
        assert not at32["Llama2-13B"].fits

    def test_jsram_residency_speeds_up_inference(self, study):
        fitting = [e for e in study.entries if e.fits]
        assert fitting, "no fitting configuration in the sweep"
        for entry in fitting:
            assert entry.speedup > 1.3
            assert entry.latency_jsram < entry.latency_dram

    def test_dram_latency_does_not_depend_on_the_pool(self, study):
        """The reference blade serves everything from cryo-DRAM, so each
        model has one DRAM latency at every capacity."""
        by_model: dict[str, set[float]] = {}
        for entry in study.entries:
            by_model.setdefault(entry.model_name, set()).add(entry.latency_dram)
        (small,), (large,) = by_model["Llama2-7B"], by_model["Llama2-13B"]
        assert small < large

    def test_footprint_accounting(self, study):
        entry = next(e for e in study.entries if e.model_name == "Llama2-7B")
        expected = LLAMA2_7B.weight_bytes() + LLAMA2_7B.kv_cache_bytes(8)
        assert entry.footprint_bytes == pytest.approx(expected)
