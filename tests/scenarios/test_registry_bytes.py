"""Byte identity of every registry scenario's artifacts.

``tests/data/registry_artifact_sha256.json`` pins the sha256 of each
registry scenario's artifact payload (raw + text + csv, canonical JSON) as
computed before the cold-path overhead work (memoized 1F1B order, shared
decode programs, one timing loop).  Those changes must do the same float
operations in the same order, so every payload must reproduce byte for
byte — a tighter contract than the seed-figure golden's 1e-9.

Regenerate the fixture (only when a change is *meant* to move numbers)::

    PYTHONPATH=src python tests/scenarios/test_registry_bytes.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import scenarios
from repro.scenarios.runner import run_scenario
from repro.scenarios.store import artifact_payload

FIXTURE = (
    Path(__file__).resolve().parents[1] / "data" / "registry_artifact_sha256.json"
)


def payload_sha256(name: str) -> str:
    payload = artifact_payload(run_scenario(scenarios.get(name)))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_fixture_covers_the_registry():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(scenarios.REGISTRY)


@pytest.mark.parametrize("name", tuple(scenarios.REGISTRY))
def test_artifacts_byte_identical(name):
    assert payload_sha256(name) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {name: payload_sha256(name) for name in scenarios.REGISTRY}, indent=1
        )
        + "\n"
    )
    print(f"wrote {FIXTURE}")
