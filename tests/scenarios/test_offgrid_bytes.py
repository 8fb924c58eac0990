"""Byte identity of artifacts off the registry's grid.

``tests/scenarios/test_registry_bytes.py`` pins the registry's own
scenarios.  The memos of the cold path (kernel and program timings per
accelerator, layer op lists per shape, built systems, mappings) are also
reached by values the registry never uses, and by specs that share work in
other ways: a strategy search at an odd bandwidth, a PP=8 sweep whose
interior stages repeat, reference systems with calibration overrides, a
set kernel overhead.  ``tests/data/offgrid_artifact_sha256.json`` pins the
artifact payload of each such spec, derived here from a registry template,
as computed before those memos existed.  The specs run in one fixed order
in which every memo is hit, and each payload must reproduce byte for byte.

Two configs that compare equal may still spell a field differently
(``n_gpus`` 64 and 64.0): each must give the artifacts of its own
spelling, whichever of the two is built first.

Regenerate the fixture (only when a change is *meant* to move numbers)::

    PYTHONPATH=src python tests/scenarios/test_offgrid_bytes.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro import scenarios
from repro.analysis.sweep import SweepGrid
from repro.arch.config import SystemConfig
from repro.core.timing_cache import default_timing_cache
from repro.parallel.mapper import default_mapping_cache
from repro.scenarios.runner import run_scenario
from repro.scenarios.store import artifact_payload

FIXTURE = (
    Path(__file__).resolve().parents[1] / "data" / "offgrid_artifact_sha256.json"
)

#: A bandwidth no registry scenario uses; the PP=8 sweep, the strategy
#: search and the batch sweep share it, so their accelerators are equal.
ODD_TBPS = 5.3

#: GPU calibration overrides shared by two reference systems.
GPU_OVERRIDES = {"gpu_stream_low_ai": 0.27, "gpu_ib_alpha_us": 0.61}


def _system(template, **overrides):
    return replace(template.system, **overrides)


def offgrid_specs() -> list:
    """The off-grid specs, in evaluation order."""
    get = scenarios.get
    fig5, dse, fig7_batch = get("fig5"), get("dse"), get("fig7-batch")
    fig7_gpu, fig8_batch = get("fig7-gpu"), get("fig8-batch")
    quick, sensitivity = get("quickstart-training"), get("sensitivity")
    multi, l2 = get("multi-blade-scaling"), get("l2-kv-cache")
    gpu_ref = replace(SystemConfig(kind="gpu"), **GPU_OVERRIDES)
    return [
        # PP=8: the interior stages of one mapping are equal programs.
        replace(fig5, name="pp8-odd-bandwidths").with_grid(
            SweepGrid(names=fig5.grid.names, rows=((3.7,), (ODD_TBPS,), (27.9,)))
        ),
        # 24 strategies, few layer shapes; one strategy is the sweep's.
        replace(
            dse, name="dse-odd-bandwidth",
            system=_system(dse, dram_bandwidth_tbps=ODD_TBPS),
        ),
        # A workload axis: the same system built at every point.
        replace(
            fig7_batch, name="batch-sweep-odd-bandwidth",
            system=_system(fig7_batch, dram_bandwidth_tbps=ODD_TBPS),
        ),
        replace(
            fig7_gpu, name="gpu-with-overridden-ref",
            ref_system=gpu_ref,
            extract=fig7_gpu.extract + ("ref_latency", "speedup"),
        ),
        replace(fig8_batch, name="batch-sweep-overridden-ref", ref_system=gpu_ref),
        replace(
            quick, name="training-kernel-overhead",
            system=_system(quick, kernel_overhead_ns=37.5),
        ),
        replace(
            fig7_batch, name="inference-zero-kernel-overhead",
            system=_system(fig7_batch, kernel_overhead_ns=0.0),
        ),
        replace(
            sensitivity, name="sensitivity-odd-bandwidth",
            system=_system(sensitivity, dram_bandwidth_tbps=11.3),
        ),
        replace(
            multi, name="multi-blade-odd-bandwidth",
            system=_system(multi, dram_bandwidth_tbps=7.1),
        ),
        replace(l2, name="l2-odd-capacity", system=_system(l2, l2_total_bytes=9.1e9)),
    ]


def spelling_specs() -> list:
    """Pairs of one GPU spec whose configs compare equal but spell
    ``n_gpus`` as an int and as a float: the first pair builds the int
    first, the second the float.  Each pair's other knobs are its own, so
    neither spelling can have been built before."""
    fig7_gpu = scenarios.get("fig7-gpu")
    specs = []
    for low_ai, order in ((0.2345, (32, 32.0)), (0.3456, (32.0, 32))):
        for n_gpus in order:
            system = SystemConfig(kind="gpu", n_gpus=n_gpus, gpu_stream_low_ai=low_ai)
            specs.append(
                replace(fig7_gpu, name=f"gpu-{n_gpus!r}-low-ai-{low_ai}", system=system)
            )
    return specs


def payload_sha256(scenario) -> str:
    payload = artifact_payload(run_scenario(scenario))
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def artifact_digests() -> dict[str, str]:
    """Every spec's payload sha256, evaluated in order from empty timing
    and mapping caches."""
    default_timing_cache().clear()
    default_mapping_cache().clear()
    return {
        spec.name: payload_sha256(spec)
        for spec in offgrid_specs() + spelling_specs()
    }


def test_offgrid_artifacts_byte_identical():
    pinned = json.loads(FIXTURE.read_text())
    assert artifact_digests() == pinned


def test_equal_configs_spelled_differently_build_their_own_systems():
    for spec in spelling_specs():
        system = spec.system.build()
        assert system.n_accelerators == 32
        assert type(system.n_accelerators) is type(spec.system.n_gpus)
        assert system.name == f"{spec.system.n_gpus}x H100"


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(artifact_digests(), indent=1) + "\n")
    print(f"wrote {FIXTURE}")
