"""Shared helpers for the system benchmark: paths, statistics, clocks.

Every benchmark process (``run.py``, the daemon launcher,
the preload and cold-sweep children) imports this module first; it puts
the repository's ``src`` directory on ``sys.path`` so the program under
test is always the checkout's own source tree.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for stores, span files and child summaries.  Inside the
#: checkout (the benchmark reads and writes nowhere else) and ignored by
#: git; each run uses its own subdirectory and removes it on exit.
WORK_ROOT = ROOT / ".perfbench"
GOLDEN_PATH = ROOT / "tests" / "data" / "seed_figures_golden.json"

#: Header carrying the generator's operation id; the traced daemon keys
#: every span of a request by it.
REQUEST_ID_HEADER = "X-Bench-Op"

#: Relative tolerance of every numeric output check (the repository's
#: golden-figure contract).
REL_TOL = 1e-9

#: Child processes run with a fixed hash seed, so dict/set iteration
#: inside the program is identical between runs, and with git's
#: repository search stopped at the checkout (the program stamps stored
#: entries with ``git rev-parse``; the benchmark stays inside its tree).
CHILD_ENV = {
    **os.environ,
    "PYTHONHASHSEED": "0",
    "GIT_CEILING_DIRECTORIES": str(ROOT.parent),
}


def use_source_tree() -> None:
    """Make ``import repro`` resolve to this checkout's ``src`` tree."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program source at {SRC}/repro; run from a "
            "checkout of the repository"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now() -> float:
    """A clock shared by every process on the host (CLOCK_MONOTONIC), so a
    child can stamp an instant the parent compares against its own."""
    return time.monotonic()


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_or_zero(values: Sequence[float], q: float) -> float:
    """:func:`percentile`, or 0 for an empty sample (reported-only
    numbers of a run too short to produce one)."""
    return percentile(values, q) if values else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of the calling process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_json(path: Path, data: Any) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)


def read_json(path: Path) -> Any:
    return json.loads(path.read_text())


def relative_error(actual: float, expected: float) -> float:
    if actual == expected:
        return 0.0
    scale = max(abs(actual), abs(expected))
    return abs(actual - expected) / scale if scale else 0.0
