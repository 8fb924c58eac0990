"""A fresh process loads only the modules its entry points use.

The system benchmark's ``peak_rss_mb`` and ``setup_s`` count every module
a fresh process imports, so the import set is pinned by count.  A bare
interpreter (``python -I -S``: no site hooks, no user site, ``src``
first on ``sys.path``) imports the CLI and the store, then the daemon,
and records the modules each step adds.  A third-party import anywhere
in ``src/`` then fails by name, and no site hook enters the count.

* Each step may add at most the pinned number of modules (pinned per
  Python minor version in ``tests/data/cold_imports.json``); a rise
  fails and lists the modules that are new.
* Every module added is the standard library's or ``repro``'s.
* Every compute runs in-process, so nothing needs ``pickle`` or
  ``multiprocessing``; ``statistics`` (which pulls in ``decimal`` and
  ``fractions``) is imported only inside the provenance summary.
* The daemon reads and writes HTTP itself, on ``socketserver``: neither
  step loads ``email``, ``http.client``, ``http.server`` or ``ssl``.

A count that falls passes; re-pin it so that the saving is on record::

    PYTHONPATH=src python tests/test_cold_imports.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PINS = Path(__file__).resolve().parent / "data" / "cold_imports.json"
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

#: Each step of the probe: what it imports.
STEPS = {
    "cold": "import repro.cli, repro.scenarios.store",
    "daemon": "import repro.serving.server",
}
UNWANTED = ("multiprocessing", "pickle", "statistics")
HTTP_LIBRARIES = ("email", "http.client", "http.server", "ssl")

_PROBE = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
added = {{}}
for step, statement in {STEPS!r}.items():
    before = set(sys.modules)
    exec(statement)
    added[step] = sorted(set(sys.modules) - before)
import json
print(json.dumps(added))
"""


def probe() -> dict[str, list[str]]:
    """The modules each step of :data:`STEPS` adds to a bare
    interpreter, by step."""
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def added() -> dict[str, list[str]]:
    return probe()


def test_each_step_adds_no_more_modules_than_its_pin(added):
    pins = json.loads(PINS.read_text())
    if PYTHON not in pins:
        pytest.skip(
            f"no import set pinned for Python {PYTHON}; pin one with "
            "`PYTHONPATH=src python tests/test_cold_imports.py`"
        )
    for step, pinned in pins[PYTHON].items():
        new = sorted(set(added[step]) - set(pinned))
        assert len(added[step]) <= len(pinned), (
            f"{step}: {len(pinned)} -> {len(added[step])} modules; new: "
            + ", ".join(new)
        )


def test_only_the_standard_library_and_repro_are_imported(added):
    tops = {name.partition(".")[0] for step in added.values() for name in step}
    assert sorted(tops - sys.stdlib_module_names - {"repro"}) == []


def test_entry_points_do_not_import_pool_or_summary_modules(added):
    loaded = set(added["cold"] + added["daemon"])
    assert sorted(loaded.intersection(UNWANTED)) == []


@pytest.mark.parametrize("step", STEPS)
def test_no_step_imports_an_http_library(added, step):
    assert sorted(set(added[step]).intersection(HTTP_LIBRARIES)) == []


if __name__ == "__main__":
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins[PYTHON] = probe()
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    counts = {step: len(names) for step, names in pins[PYTHON].items()}
    print(f"pinned Python {PYTHON}: {counts}")
