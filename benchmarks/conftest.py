"""Shared fixtures and collection hooks for the benchmark suite.

Every figure benchmark regenerates one paper artifact (table or figure),
asserts the paper's qualitative claims on the result, and reports the
regenerated rows through ``--benchmark-only -s``.

``benchmarks/perf/`` holds the *performance-trajectory* benchmarks: fast,
assertion-bearing speed checks that are wired into the default pytest run
via :func:`pytest_collect_file` below (the slower per-figure benchmarks
remain opt-in: ``pytest benchmarks/bench_<name>.py``).
"""

from __future__ import annotations

import pytest


def pytest_collect_file(file_path, parent):
    """Collect ``benchmarks/perf/bench_*.py`` in the default test run.

    A file named on the command line is left to pytest, which collects
    any file named there; a second Module would run its tests twice."""
    if (
        file_path.suffix == ".py"
        and file_path.name.startswith("bench_")
        and file_path.parent.name == "perf"
        and not parent.session.isinitpath(file_path)
    ):
        return pytest.Module.from_parent(parent, path=file_path)


@pytest.fixture
def run_once(benchmark):
    """Run the benched callable exactly once (figure sweeps are seconds-long;
    statistical repetition adds nothing to an analytical model)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(
            func, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner
