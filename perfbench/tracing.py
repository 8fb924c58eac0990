"""Span tracing from outside the program: wrap each layer's public
functions, record spans in memory, write them when the process exits.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` indexes the
enclosing span on the same thread (``-1`` for a root) and ``op`` is the
operation the span serves — the id the generator sends in the
``X-Bench-Op`` header, ``job:<digest>`` for a job-engine compute, or the
cold-sweep call index.  Semantics follow Dapper (Sigelman et al., 2010):
a span's *self time* is its duration minus the time its children cover.

The wrappers are installed by the benchmark process that runs the code —
the daemon launcher before ``create_server``, the cold-sweep child before
its loop — and every module-level binding of a wrapped function is
replaced, including the names modules import from each other
(``repro.core.model.simulate_1f1b``, ``repro.serving.jobs.run_cached``).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Mapping

from common import REQUEST_ID_HEADER

#: span name -> (module, attribute path) of every function wrapped for it.
#: Span names are the per-layer metric names their self time feeds.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "serving.app.self_ms": (("repro.serving.app", "ServingApp.handle"),),
    "serving.app.encode_ms": (("repro.serving.app", "Response.body_bytes"),),
    "scenarios.spec.self_ms": (("repro.scenarios.spec", "Scenario.from_dict"),),
    "scenarios.store.digest_ms": (("repro.scenarios.store", "scenario_digest"),),
    "scenarios.store.read_ms": (
        ("repro.scenarios.store", "ResultStore.get"),
        ("repro.scenarios.store", "ResultStore.read_digest"),
    ),
    "scenarios.store.put_ms": (("repro.scenarios.store", "ResultStore.put"),),
    "scenarios.backends.mem_read_ms": (
        ("repro.scenarios.backends.memory", "InMemoryBackend.read"),
    ),
    "scenarios.backends.file_read_ms": (
        ("repro.scenarios.backends.localfs", "LocalFSBackend.read"),
    ),
    "scenarios.backends.file_write_ms": (
        ("repro.scenarios.backends.localfs", "LocalFSBackend.write"),
    ),
    "scenarios.runner.self_ms": (
        ("repro.scenarios.runner", "run_scenario"),
        ("repro.scenarios.runner", "apply_axes"),
    ),
    "scenarios.runner.render_ms": (("repro.scenarios.store", "artifact_payload"),),
    "analysis.sweep.self_ms": (("repro.analysis.sweep", "run_sweep"),),
    "arch.config.self_ms": (("repro.arch.config", "SystemConfig.build"),),
    "parallel.mapper.self_ms": (
        ("repro.parallel.mapper", "MappingCache.map_training"),
        ("repro.parallel.mapper", "MappingCache.map_inference"),
        ("repro.parallel.mapper", "map_training"),
        ("repro.parallel.mapper", "map_inference"),
    ),
    "core.model.self_ms": (
        ("repro.core.model", "Optimus.evaluate_training"),
        ("repro.core.model", "Optimus.evaluate_inference"),
    ),
    "parallel.pipeline.self_ms": (("repro.parallel.pipeline", "simulate_1f1b"),),
    "core.roofline.self_ms": (("repro.core.roofline", "time_compute_kernel"),),
    "core.comm_perf.self_ms": (("repro.core.comm_perf", "time_comm_kernel"),),
    "core.optimizer.self_ms": (("repro.core.optimizer", "search_strategies"),),
}

#: Span names whose call count per operation is reported as ``<layer>.calls``.
COUNTED = {
    "scenarios.spec.self_ms": "scenarios.spec.calls",
    "arch.config.self_ms": "arch.config.calls",
    "core.model.self_ms": "core.model.calls",
    "parallel.pipeline.self_ms": "parallel.pipeline.calls",
}


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.spans: list[list] | None = None
        self.stack: list[int] = []
        self.op: str = ""


class Tracer:
    """In-memory span recorder: one span list per thread."""

    def __init__(self) -> None:
        self._state = _ThreadState()
        self._threads: list[list[list]] = []
        self._lock = threading.Lock()

    def _spans(self) -> list[list]:
        state = self._state
        if state.spans is None:
            state.spans = []
            with self._lock:
                self._threads.append(state.spans)
        return state.spans

    def set_op(self, op: str) -> None:
        """Key the calling thread's following spans to operation ``op``."""
        self._state.op = op

    def wrap(self, name: str, fn: Callable) -> Callable:
        state = self._state
        spans_of = self._spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = spans_of()
            stack = state.stack
            record = [name, 0, 0, stack[-1] if stack else -1, state.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def dump(self) -> list[list[list]]:
        with self._lock:
            return [list(spans) for spans in self._threads]


def _patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name of ``original`` in the program."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function named in :data:`SPANS`, plus the two entry
    points that key spans to their operation."""
    import importlib

    import repro.serving.jobs  # noqa: F401 — bind its imported names first
    from repro.scenarios.store import scenario_digest

    for name, targets in SPANS.items():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, tracer.wrap(name, raw))
            else:
                original = getattr(module, attr)
                _patch_everywhere(original, tracer.wrap(name, original))

    from repro.serving.app import ServingApp

    traced_handle = ServingApp.handle

    def handle(self, method, path, body=b"", headers=None):
        tracer.set_op((headers or {}).get(REQUEST_ID_HEADER, ""))
        return traced_handle(self, method, path, body, headers)

    ServingApp.handle = handle

    import repro.serving.jobs as jobs

    run_cached = jobs.run_cached

    def job_compute(scenario, *args, **kwargs):
        tracer.set_op("job:" + scenario_digest(scenario))
        return run_cached(scenario, *args, **kwargs)

    jobs.run_cached = job_compute


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def self_times(
    threads: Iterable[list[list]], op_of: Mapping[str, str]
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Aggregate spans of the operations in ``op_of`` (span op key ->
    operation id): total self ms and call count per span name, and per
    operation the ms its root spans cover."""
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root_ms: dict[str, float] = defaultdict(float)
    for spans in threads:
        child_ns = [0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0 and end:
                child_ns[parent] += end - start
        for (name, start, end, parent, op), children in zip(spans, child_ns):
            target = op_of.get(op)
            if target is None or not end:
                continue
            self_ms[name] += (end - start - children) / 1e6
            calls[name] += 1
            if parent < 0:
                root_ms[target] += (end - start) / 1e6
    return dict(self_ms), dict(calls), dict(root_ms)


def layer_metrics(
    threads: Iterable[list[list]], op_of: Mapping[str, str], n_ops: int
) -> dict[str, float]:
    """Per-operation self time of every span name, and per-operation
    calls of the :data:`COUNTED` ones (0 where a layer never ran)."""
    totals, calls, _ = self_times(threads, op_of)
    metrics: dict[str, float] = {}
    for name in SPANS:
        metrics[name] = totals.get(name, 0.0) / n_ops
    for name, calls_name in COUNTED.items():
        metrics[calls_name] = calls.get(name, 0) / n_ops
    return metrics


def span_count(threads: Iterable[list[list]]) -> int:
    return sum(len(spans) for spans in threads)


__all__ = ["COUNTED", "SPANS", "Tracer", "install", "layer_metrics", "self_times"]
