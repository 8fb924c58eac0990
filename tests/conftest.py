"""Shared fixtures: expensive system objects built once per session,
plus the live-daemon factory the serving/federation suites share."""

from __future__ import annotations

import itertools
from contextlib import ExitStack

import pytest

from repro.arch.blade import build_blade
from repro.arch.gpu import build_gpu_system
from repro.serving.testing import launch_daemon
from repro.units import TBPS


@pytest.fixture
def live_daemon(tmp_path):
    """Factory for live in-process daemons.

    Each call launches one daemon on an ephemeral port (its own temp
    cache dir unless ``cache=`` is given) and registers a
    guaranteed ``shutdown()`` + ``server_close()`` teardown.  Shared by
    the backend-conformance, federation, wire-fuzz and gzip suites so
    none of them hand-rolls servers.
    """
    stack = ExitStack()
    counter = itertools.count()

    def launch(**server_kwargs):
        if "cache" not in server_kwargs:
            server_kwargs["cache"] = (
                f"file://{tmp_path}/daemon-{next(counter)}"
            )
        return stack.enter_context(launch_daemon(**server_kwargs))

    try:
        yield launch
    finally:
        stack.close()


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
