"""Import every paper-claim benchmark, so a deleted name cannot break one.

``benchmarks/bench_*.py`` assert the paper's claims at full size and run
only on request (``pytest benchmarks/bench_<name>.py``).  Importing each
one here catches an import of a name that ``src/`` no longer has, in the
default run and without the cost of the full-size claims.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("script", BENCHMARKS, ids=lambda p: p.name)
def test_benchmark_imports(script):
    namespace = runpy.run_path(str(script))
    assert any(name.startswith("test_") for name in namespace)
