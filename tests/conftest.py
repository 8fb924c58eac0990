"""Shared fixtures: expensive system objects built once per session."""

from __future__ import annotations

import pytest

from repro.arch.blade import build_blade
from repro.arch.gpu import build_gpu_system
from repro.units import TBPS


@pytest.fixture(scope="session")
def blade():
    """The baseline Fig. 3c blade."""
    return build_blade()


@pytest.fixture(scope="session")
def scd_system(blade):
    """The blade as a 64-SPU system at the baseline 0.47 TBps/SPU."""
    return blade.system()


@pytest.fixture(scope="session")
def scd_system_16tbps(scd_system):
    """The blade at the paper's 16 TBps effective bandwidth per SPU."""
    return scd_system.with_dram_bandwidth(16 * TBPS)


@pytest.fixture(scope="session")
def gpu_system():
    """64 H100s (8 per NVSwitch node, InfiniBand between nodes)."""
    return build_gpu_system(64)
