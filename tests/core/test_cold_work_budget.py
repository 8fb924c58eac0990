"""Work budget of the cold compute path: counts, not timings.

A fixed cold set (fig5, fig6, fig7-gpu, fig8-batch, dse, sensitivity) runs
through ``run_cached`` into a fresh ``file://`` store, under cProfile.  An
unprofiled pass into another store runs first, so every lazy import has
happened, and then every engine memo is emptied, so the measured pass
computes each scenario cold, as a fresh process does.  Per scenario, and
as the mean per spec, it counts:

* ``python_calls`` — every call cProfile sees, C builtins included;
* ``kernel_lookups`` / ``kernel_misses`` — the process-wide kernel-timing
  cache's hits + misses, and its misses (each miss runs the roofline or a
  collective model once);
* ``mapping_builds`` — calls of ``map_training`` and ``map_inference``
  (through the mapping cache or, for a strategy search, directly);
* ``backend_writes`` — writes the store's backend took.

These counts repeat exactly from run to run (also across
``PYTHONHASHSEED``), where timings on a shared host do not, so a count
that rises by more than 1% over its pin in
``tests/data/cold_work_budget.json`` fails and names the ten functions
whose call counts grew most.  A count that falls passes; re-pin it so that
the saving is on record (the pins are per Python minor version)::

    PYTHONPATH=src python tests/core/test_cold_work_budget.py
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import re
import sys
import sysconfig
import tempfile
from collections import Counter
from pathlib import Path

import pytest

from repro.arch.config import _build_system
from repro.core.timing_cache import default_timing_cache
from repro.parallel import mapper
from repro.parallel.pipeline import _replay_order
from repro.scenarios import get
from repro.scenarios.store import ResultStore, run_cached

BUDGET = Path(__file__).resolve().parents[1] / "data" / "cold_work_budget.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"
COLD_SET = ("fig5", "fig6", "fig7-gpu", "fig8-batch", "dse", "sensitivity")
#: How far a count may rise over its pin before the budget fails.
TOLERANCE = 0.01
COUNTS = (
    "python_calls",
    "kernel_lookups",
    "kernel_misses",
    "mapping_builds",
    "backend_writes",
)

_STDLIB = sysconfig.get_paths()["stdlib"]
#: The address cProfile prints in some builtins' names differs per run.
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")


def _where(filename: str) -> str:
    """A profiled function's file, without the install prefix."""
    if "/repro/" in filename:
        return "repro/" + filename.rsplit("/repro/", 1)[1]
    if filename.startswith(_STDLIB):
        return filename[len(_STDLIB) :].lstrip("/")
    return filename


def empty_engine_memos() -> None:
    """Empty every memo a cold compute fills, as in a fresh process."""
    default_timing_cache().clear()
    mapper.default_mapping_cache().clear()
    mapper._layer_kernels.cache_clear()
    _replay_order.cache_clear()
    _build_system.cache_clear()


def _code_key(function) -> tuple[str, int, str]:
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def measure(directory: Path) -> dict:
    """The counts of one cold pass over :data:`COLD_SET` into a store in
    ``directory`` (after an unprofiled pass into another one)."""
    warmup = ResultStore(f"file://{directory / 'warmup'}")
    for name in COLD_SET:
        run_cached(get(name), warmup)
    store = ResultStore(f"file://{directory / 'cold'}")
    timing = default_timing_cache()
    builds = {_code_key(mapper.map_training), _code_key(mapper.map_inference)}
    rows: dict[str, dict[str, int]] = {}
    functions: Counter[str] = Counter()
    empty_engine_memos()
    gc.collect()
    gc.disable()  # no collection or finalizer may run inside the profile
    try:
        for name in COLD_SET:
            scenario = get(name)
            lookups = timing.hits + timing.misses
            misses = timing.misses
            writes = store.backend.counters.writes
            profiler = cProfile.Profile()
            profiler.enable()
            run_cached(scenario, store)
            profiler.disable()
            stats = pstats.Stats(profiler).stats
            calls = sum(row[1] for row in stats.values())
            rows[name] = {
                "python_calls": calls,
                "kernel_lookups": timing.hits + timing.misses - lookups,
                "kernel_misses": timing.misses - misses,
                "mapping_builds": sum(
                    row[1] for key, row in stats.items() if key in builds
                ),
                "backend_writes": store.backend.counters.writes - writes,
            }
            for (filename, _, function), row in stats.items():
                function = _ADDRESS.sub("", function)
                functions[f"{_where(filename)}:{function}"] += row[1]
    finally:
        gc.enable()
    per_spec = {
        count: round(sum(row[count] for row in rows.values()) / len(rows), 2)
        for count in COUNTS
    }
    return {
        "per_spec": per_spec,
        "scenarios": rows,
        "functions": dict(sorted(functions.items())),
    }


def rises(pinned: dict, measured: dict) -> list[str]:
    """Every pinned count the measurement exceeds by more than 1%."""
    found = []
    pinned_rows = dict(pinned["scenarios"], per_spec=pinned["per_spec"])
    measured_rows = dict(measured["scenarios"], per_spec=measured["per_spec"])
    for row, counts in pinned_rows.items():
        for count, limit in counts.items():
            value = measured_rows.get(row, {}).get(count)
            if value is None or value > limit * (1 + TOLERANCE) + 1e-9:
                found.append(f"{row}: {count} {limit} -> {value}")
    return found


def _grew_most(pinned: dict, measured: dict) -> list[str]:
    """The ten functions whose call counts grew most over their pins."""
    growth = Counter(measured)
    growth.subtract(pinned)
    return [f"{key} +{n}" for key, n in growth.most_common(10) if n > 0]


def test_cold_path_stays_within_its_work_budget(tmp_path):
    pins = json.loads(BUDGET.read_text())
    if PYTHON not in pins:
        pytest.skip(
            f"no cold work budget pinned for Python {PYTHON}; pin one with "
            "`PYTHONPATH=src python tests/core/test_cold_work_budget.py`"
        )
    pinned = pins[PYTHON]
    measured = measure(tmp_path)
    found = rises(pinned, measured)
    assert not found, (
        "cold work budget exceeded:\n  " + "\n  ".join(found)
        + "\nfunctions whose call counts grew most:\n  "
        + "\n  ".join(_grew_most(pinned["functions"], measured["functions"]))
    )
    assert set(measured["scenarios"]) == set(pinned["scenarios"])


if __name__ == "__main__":
    pins = json.loads(BUDGET.read_text()) if BUDGET.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        pins[PYTHON] = measure(Path(tmp))
    BUDGET.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned Python {PYTHON}: per spec {json.dumps(pins[PYTHON]['per_spec'])}")
