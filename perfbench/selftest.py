"""Self-test of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/selftest.py -q

Runs every workload at a tiny size, untraced and traced, and checks the
benchmark's own contract: every metric ``BENCHMARK.json`` names prints
with its unit, the seed alone determines the inputs, a corrupted
expected value makes the output checks count a failure, and a directory
without the program refuses to produce a result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import GOLDEN_PATH, ROOT, WORK_ROOT, use_source_tree  # noqa: E402

use_source_tree()

import checks  # noqa: E402
import inputs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seconds: float = 2, seed: int = 1):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {metric["name"] for metric in expected}
    printed = {tuple(line.split()[::2]) for line in lines[:-1] if len(line.split()) == 3}
    for metric in expected:
        entry = record["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert (metric["name"], metric["unit"]) in printed
        if not trace:
            assert entry["value"] > 0, metric["name"]


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
def as_dicts(specs):
    return [spec.to_dict() for spec in specs]


def fake_entries():
    specs = inputs.pool_specs(0, 12, "entry")
    return [
        inputs.WarmEntry(
            digest=f"{i:064x}",
            name="fig5" if i % 3 == 0 else None,
            spec=spec.to_dict(),
            has_csv=spec.grid is not None,
            size_bytes=1000 + i,
        )
        for i, spec in enumerate(specs)
    ]


def warm_payloads(seed: int) -> list[bytes]:
    mix = inputs.WarmMix(fake_entries(), seed)
    return [mix.next(f"w{i}")[1] for i in range(200)]


def cold_payloads(seed: int) -> list[bytes]:
    specs = inputs.pool_specs(seed, 20, "cold")
    return [op.post for op in inputs.cold_ops(specs, [f"{i:064x}" for i in range(20)], seed)]


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: as_dicts(inputs.sweep_specs(seed, 60)),
        lambda seed: as_dicts(inputs.pool_specs(seed, 60, "warm")),
        warm_payloads,
        cold_payloads,
    ],
    ids=["cold-sweep specs", "pooled specs", "warm requests", "cold requests"],
)
def test_seed_determines_inputs(generate):
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_sweep_points_never_repeat_and_pooled_points_do():
    assert inputs.repeated_point_share(inputs.sweep_specs(3, 80)) < 0.05
    assert inputs.repeated_point_share(inputs.pool_specs(3, 80, "cold")) > 0.3


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
def test_corrupted_golden_value_counts_a_failure():
    from repro.scenarios.registry import REGISTRY

    raw = REGISTRY["fig7-batch"].run().to_raw()
    golden = json.loads(GOLDEN_PATH.read_text())
    assert checks.golden_check("fig7-batch", raw, golden).failed_items == 0
    corrupted = copy.deepcopy(golden)
    corrupted["fig7"]["batch_latencies"][2] *= 1 + 1e-6
    assert checks.golden_check("fig7-batch", raw, corrupted).failed_items == 1


def test_corrupted_point_value_fails_the_flat_path_check():
    spec = next(s for s in inputs.pool_specs(5, 40, "check") if s.grid is not None and s.kind == "inference")
    raw = spec.run().to_raw()
    assert checks.flat_check([(spec, raw)], seed=0, k=2).failed_items == 0
    corrupted = copy.deepcopy(raw)
    for point in corrupted["points"]:
        for name in point["values"]:
            point["values"][name] *= 1 + 1e-6
    assert checks.flat_check([(spec, corrupted)], seed=0, k=2).failed_items == 2


def test_corrupted_expected_artifact_fails_the_byte_check():
    digest = "ab" * 32
    artifacts = {"raw": {"series": {"x": [1.0]}}, "text": "table", "csv": "x\n1.0\n"}
    body = json.dumps({"digest": digest, "artifacts": artifacts}).encode()
    etag = f'"{digest}"'
    assert checks.warm_reply_ok("result", digest, 200, etag, False, body, artifacts)
    assert not checks.warm_reply_ok("result", digest, 200, etag, False, body, dict(artifacts, text="tablE"))
    assert checks.warm_reply_ok("csv", digest, 200, etag, False, b"x\n1.0\n", artifacts)
    assert not checks.warm_reply_ok("csv", digest, 200, etag, False, b"x\n1.1\n", artifacts)
    assert checks.warm_reply_ok("inm-run", digest, 304, etag, False, b"", artifacts)
    assert not checks.warm_reply_ok("inm-run", digest, 304, '"other"', False, b"", artifacts)


# ---------------------------------------------------------------------------
# No program, no result
# ---------------------------------------------------------------------------
def test_refuses_without_the_program():
    bare = WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0, seconds=1)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
