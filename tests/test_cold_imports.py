"""A cold process loads only the modules its compute and store paths use.

The system benchmark's ``peak_rss_mb`` counts every module a fresh process
imports.  Every compute runs in-process, so nothing needs ``pickle`` or
``multiprocessing``; ``statistics`` (which pulls in ``decimal`` and
``fractions``) is imported only inside the provenance summary.  A fresh
interpreter imports the store, the daemon and the CLI and must load none
of them.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNWANTED = ("multiprocessing", "pickle", "statistics")

_PROBE = f"""
import sys
import repro.cli
import repro.scenarios.store
import repro.serving.server
print(sorted(name for name in {UNWANTED!r} if name in sys.modules))
"""


def test_entry_points_do_not_import_pool_or_summary_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert proc.stdout.strip() == "[]"
