"""Sec. VI L2 KV-cache study tests (the full claims live in benchmarks/)."""

from __future__ import annotations

import pytest

from repro.analysis.figures import l2_kv_cache_study


class TestL2Study:
    def test_entries(self):
        study = l2_kv_cache_study()
        names = [e.model_name for e in study.entries]
        assert names == ["Llama2-7B", "Llama2-13B", "Llama2-70B"]
        assert study.l2_capacity_bytes == pytest.approx(4.19e9)
