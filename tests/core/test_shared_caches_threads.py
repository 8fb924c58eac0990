"""The process-wide timing, mapping and system caches under thread contention.

The serving daemon's job workers compute cold scenarios concurrently and
share these caches.  Each cache keeps an LRU order; a lookup that finds an
entry and then moves it to the end must not race an eviction by another
thread.  The stress test below runs more threads than cores with a tiny
switch interval and tiny caps, so evictions land between those two steps
if nothing guards them.  Besides inference, the threads evaluate a PP=8
training mapping (equal interior stages meet in the program memo) on
systems they build from more recipes than the build memo keeps.
"""

from __future__ import annotations

import os
import sys
import threading
import time

from repro.arch.config import _BUILT_SYSTEMS, SystemConfig
from repro.core.model import Optimus
from repro.core.timing_cache import KernelTimingCache
from repro.parallel.mapper import MappingCache, map_inference, map_training
from repro.parallel.strategy import ParallelConfig
from repro.units import TBPS
from repro.workloads.llm import GPT3_76B, LLAMA_405B

STRESS_SECONDS = 1.5


def test_caches_survive_concurrent_eviction_and_reports_match_serial(scd_system):
    systems = [scd_system.with_dram_bandwidth(bw * TBPS) for bw in (1, 2, 4, 8, 16)]
    accelerators = [system.accelerator for system in systems]
    timing = KernelTimingCache(max_configs=2)
    mapping = MappingCache(max_entries=2)
    n_threads = max(6, 2 * (os.cpu_count() or 1))

    shared = map_inference(LLAMA_405B, systems[0], batch=8, output_tokens=64)
    serial = Optimus(systems[0], cache=KernelTimingCache()).evaluate_inference(
        shared
    )
    # More recipes than the build memo keeps, so building them evicts.
    recipes = [
        SystemConfig(dram_bandwidth_tbps=1.0 + i / 8)
        for i in range(_BUILT_SYSTEMS + 8)
    ]
    training = map_training(
        GPT3_76B,
        systems[0],
        ParallelConfig(tensor_parallel=8, pipeline_parallel=8),
        batch=64,
    )
    trained = recipes[::9]
    serial_training = [
        Optimus(recipe.build(), cache=KernelTimingCache()).evaluate_training(
            training
        )
        for recipe in trained
    ]
    training_reports = []

    errors: list[Exception] = []
    reports = []
    start = threading.Barrier(n_threads)

    def churn(index: int) -> None:
        try:
            start.wait(timeout=30)
            deadline = time.monotonic() + STRESS_SECONDS
            step = index
            while time.monotonic() < deadline:
                step += 1
                for accelerator in accelerators[step % 2 :: 2]:
                    timing.bind(accelerator)
                # Mostly hits on one key, then a miss that evicts another.
                system = systems[step % len(systems)]
                for batch in (1 + step % 3,) * 4 + (1 + (step + 1) % 3,):
                    mapping.map_inference(
                        LLAMA_405B, system, batch=batch, output_tokens=4
                    )
                if index % 3 == 0 and step % 25 == 0:
                    reports.append(
                        Optimus(systems[0], cache=timing).evaluate_inference(
                            shared
                        )
                    )
                if index % 3 == 1 and step % 5 == 0:
                    for recipe in recipes[step % 9 :: 9]:
                        recipe.build()
                    which = step % len(trained)
                    report = Optimus(
                        trained[which].build(), cache=timing
                    ).evaluate_training(training)
                    training_reports.append((which, report))
            reports.append(
                Optimus(systems[0], cache=timing).evaluate_inference(shared)
            )
            report = Optimus(trained[0].build(), cache=timing).evaluate_training(
                training
            )
            training_reports.append((0, report))
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert len(reports) >= n_threads
    assert all(report == serial for report in reports)
    assert len(training_reports) >= n_threads
    assert all(
        report == serial_training[which] for which, report in training_reports
    )
    assert timing.n_configs <= 2 and mapping.n_entries <= 2
