"""Output checks: every result the benchmark times is verified.

* Figure scenarios against the seed goldens (``tests/data/
  seed_figures_golden.json``, read only) to :data:`~common.REL_TOL`.
* A seeded sample of generated points re-evaluated, outside the timed
  window, through the seed's flat path —
  ``Optimus(system, cache=NullTimingCache(), use_programs=False)`` on an
  uncached mapping — to the same tolerance.
* Warm replies byte-for-byte against the preloaded entries.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from common import REL_TOL, relative_error

#: registry scenario -> (series name, golden section, golden key)
GOLDEN_SERIES: dict[str, tuple[tuple[str, str, str], ...]] = {
    "fig5": (
        ("achieved_pflops_per_pu", "fig5", "achieved_pflops_per_spu"),
        ("gemm_time_per_layer", "fig5", "gemm_time_per_layer"),
        ("gemm_memory_bound_time", "fig5", "gemm_memory_bound_time"),
        ("gemm_compute_bound_time", "fig5", "gemm_compute_bound_time"),
    ),
    "fig6": (
        ("time_per_batch", "fig6", "spu_time_per_batch"),
        ("ref_time_per_batch", "fig6", "gpu_time_per_batch"),
        ("speedup", "fig6", "speedups"),
    ),
    "fig7-bandwidth": (("latency", "fig7", "latencies"),),
    "fig7-dram-latency": (
        ("achieved_pflops_per_pu", "fig7", "latency_sweep_pflops_per_spu"),
    ),
    "fig7-batch": (
        ("latency", "fig7", "batch_latencies"),
        ("achieved_pflops_per_pu", "fig7", "batch_pflops_per_spu"),
    ),
    "fig7-gpu": (
        ("latency", "fig7", "gpu_latency"),
        ("achieved_pflops_per_pu", "fig7", "gpu_pflops_per_pu"),
    ),
    "fig8-models": (("speedup", "fig8", "model_speedups"),),
    "fig8-batch": (
        ("speedup", "fig8", "batch_speedups"),
        ("kv_cache_bytes", "fig8", "kv_cache_bytes"),
    ),
}


@dataclass
class CheckResult:
    """Outcome of one batch of value comparisons."""

    checked: int = 0
    failed: int = 0
    max_rel_err: float = 0.0
    #: Checked items (a scenario, a sampled point) with any failed value:
    #: each is one failed operation.
    failed_items: int = 0

    def compare(self, actual: Any, expected: Any) -> bool:
        self.checked += 1
        try:
            err = relative_error(float(actual), float(expected))
        except (TypeError, ValueError):
            err = float("inf")
        self.max_rel_err = max(self.max_rel_err, err)
        if not err <= REL_TOL:
            self.failed += 1
            return False
        return True

    def merge(self, other: "CheckResult") -> None:
        self.checked += other.checked
        self.failed += other.failed
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)
        self.failed_items += other.failed_items


def golden_check(name: str, raw: Mapping[str, Any], golden: Mapping) -> CheckResult:
    """Compare a figure scenario's extracted series with the goldens."""
    result = CheckResult()
    series = raw.get("series", {})
    for series_name, section, key in GOLDEN_SERIES[name]:
        expected = golden[section][key]
        if not isinstance(expected, list):
            expected = [expected]
        actual = series.get(series_name, [])
        if len(actual) != len(expected):
            result.checked += 1
            result.failed += 1
            result.max_rel_err = float("inf")
            continue
        for a, e in zip(actual, expected):
            result.compare(a, e)
    result.failed_items = int(result.failed > 0)
    return result


# ---------------------------------------------------------------------------
# Seed flat path
# ---------------------------------------------------------------------------
def _flat_report(point, system_config, parallel=None):
    from repro.core.model import Optimus
    from repro.core.timing_cache import NullTimingCache
    from repro.parallel.mapper import map_inference, map_training

    system = system_config.build()
    workload = point.workload
    model = workload.llm()
    flat = Optimus(system, cache=NullTimingCache(), use_programs=False)
    if point.kind in ("training", "dse"):
        mapped = map_training(
            model,
            system,
            parallel or point.parallel,
            workload.batch,
            workload.seq_len,
            workload.precision_bytes,
        )
        return flat.evaluate_training(mapped)
    mapped = map_inference(
        model,
        system,
        point.parallel,
        workload.batch,
        workload.input_tokens,
        workload.output_tokens,
        workload.precision_bytes,
    )
    return flat.evaluate_inference(mapped)


def flat_point_values(scenario, params: Mapping[str, Any]) -> dict[str, Any]:
    """One grid point's extracted values through the seed flat path."""
    from repro.scenarios.extractors import PointOutcome, extract
    from repro.scenarios.runner import apply_axes

    point = apply_axes(scenario.with_grid(None), params)
    outcome = PointOutcome(
        report=_flat_report(point, point.system),
        ref_report=(
            _flat_report(point, point.ref_system)
            if point.ref_system is not None
            else None
        ),
        params=dict(params),
    )
    return {name: extract(name, outcome) for name in point.extract}


def flat_strategy_values(scenario, strategy: Mapping[str, Any]) -> dict[str, float]:
    """One ranked DSE strategy re-scored through the seed flat path."""
    from repro.parallel.strategy import ParallelConfig

    parallel = ParallelConfig(
        tensor_parallel=strategy["tensor_parallel"],
        pipeline_parallel=strategy["pipeline_parallel"],
        data_parallel=strategy["data_parallel"],
    )
    report = _flat_report(scenario, scenario.system, parallel)
    return {
        "time_per_batch": report.time_per_batch,
        "achieved_pflops_per_pu": report.achieved_flops_per_pu / 1e15,
    }


class PointSample:
    """A seeded uniform sample of ``k`` computed points (reservoir
    sampling), fed one ``(scenario, raw artifact)`` at a time as results
    come out.  It keeps only the sampled points, never a whole artifact,
    so its memory does not grow with the number of results."""

    def __init__(self, seed: int, k: int) -> None:
        self.rng = random.Random(f"flat/{seed}")
        self.k = k
        self.seen = 0
        #: (scenario, "point"|"strategy", the point's or strategy's dict)
        self.items: list[tuple[Any, str, Mapping[str, Any]]] = []

    def offer(self, scenario: Any, raw: Mapping[str, Any]) -> None:
        kind = "strategy" if "strategies" in raw else "point"
        for entry in raw["strategies"] if kind == "strategy" else raw.get("points", []):
            self.seen += 1
            if len(self.items) < self.k:
                self.items.append((scenario, kind, entry))
            else:
                slot = self.rng.randrange(self.seen)
                if slot < self.k:
                    self.items[slot] = (scenario, kind, entry)

    def check(self) -> CheckResult:
        """Re-evaluate the sampled points through the flat path and
        compare with the values the program returned."""
        check = CheckResult()
        for scenario, kind, entry in self.items:
            if kind == "strategy":
                actual, expected = entry, flat_strategy_values(scenario, entry)
            else:
                actual, expected = entry["values"], flat_point_values(scenario, entry["params"])
            item = CheckResult()
            for name, value in expected.items():
                item.compare(actual.get(name), value)
            item.failed_items = int(item.failed > 0)
            check.merge(item)
        return check


def flat_check(
    results: Sequence[tuple[Any, Mapping[str, Any]]], seed: int, k: int
) -> CheckResult:
    """:class:`PointSample` over ``results``, checked."""
    sample = PointSample(seed, k)
    for scenario, raw in results:
        sample.offer(scenario, raw)
    return sample.check()


# ---------------------------------------------------------------------------
# Warm replies
# ---------------------------------------------------------------------------
def canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def warm_reply_ok(
    kind: str,
    digest: str,
    status: int,
    etag: str,
    gzipped: bool,
    body: bytes,
    artifacts: Mapping[str, Any],
) -> bool:
    """Whether one warm reply is exactly the preloaded entry's bytes."""
    if etag != f'"{digest}"':
        return False
    if kind.startswith("inm-"):
        return status == 304 and body == b""
    if status != 200:
        return False
    if gzipped:
        body = gzip.decompress(body)
    if kind == "csv":
        return body == artifacts["csv"].encode()
    if kind == "text":
        return body == (artifacts["text"] + "\n").encode()
    reply = json.loads(body)
    return reply.get("digest") == digest and canonical(reply.get("artifacts")) == canonical(
        artifacts
    )


def bad_warm_replies(
    first_bodies: Mapping[tuple[int, bytes], tuple[int, str, bool, bytes]],
    templates: Sequence,
    expected: Mapping[str, Mapping[str, Any]],
) -> set[tuple[int, bytes]]:
    """The (template, body hash) groups whose representative reply is
    wrong.  Every reply of a group carries the same bytes (same hash),
    so checking one representative checks them all."""
    bad = set()
    for key, (status, etag, gzipped, body) in first_bodies.items():
        template = templates[key[0]]
        if not warm_reply_ok(
            template.kind,
            template.digest,
            status,
            etag,
            gzipped,
            body,
            expected[template.digest],
        ):
            bad.add(key)
    return bad


def result_raw(body: bytes) -> dict:
    """The raw artifact of a ``POST /run`` or ``GET /results`` reply."""
    return json.loads(body)["artifacts"]["raw"]
