"""A cold process loads only the modules its compute and store paths use.

The system benchmark's ``peak_rss_mb`` counts every module a fresh process
imports.  Every compute runs in-process, so nothing needs ``pickle`` or
``multiprocessing``; ``statistics`` (which pulls in ``decimal`` and
``fractions``) is imported only inside the provenance summary.  A fresh
interpreter imports the store, the daemon and the CLI and must load none
of them.  Before it imports the daemon, the store and the CLI speak no
HTTP, so they must not have loaded ``http.client`` or ``ssl`` either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

UNWANTED = ("multiprocessing", "pickle", "statistics")
HTTP_CLIENTS = ("http.client", "ssl")

_PROBE = f"""
import json
import sys
import repro.cli
import repro.scenarios.store
cold = sorted(name for name in {HTTP_CLIENTS!r} if name in sys.modules)
import repro.serving.server
print(json.dumps({{
    "cold": cold,
    "all": sorted(name for name in {UNWANTED!r} if name in sys.modules),
}}))
"""


@pytest.fixture(scope="module")
def loaded() -> dict[str, list[str]]:
    """The unwanted modules a fresh interpreter has loaded: after the CLI
    and the store (``cold``), and after the daemon too (``all``)."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout)


def test_entry_points_do_not_import_pool_or_summary_modules(loaded):
    assert loaded["all"] == []


def test_cold_entry_points_do_not_import_http_clients(loaded):
    assert loaded["cold"] == []
