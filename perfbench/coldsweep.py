"""The cold-sweep caller: one fresh process, one closed loop.

    python perfbench/coldsweep.py --seed N --seconds S --workdir DIR
                                  --out FILE [--setup-only] [--trace]

Starts with empty caches, the way a ``run-all`` user starts: imports the
program, generates the seeded spec stream, then calls ``run_cached`` once
per spec into a fresh ``file://`` store until ``S`` seconds have passed.
The figure scenarios are checked against the seed goldens as they come
out; peak RSS is read when the loop ends; then a seeded sample of points
is checked against the seed flat path, and a summary goes to ``FILE``.
``--setup-only`` stops after set-up (``run.py`` repeats set-up to report
its median; the input stream depends on ``S``, so pass the same ``S``).
"""

from __future__ import annotations

import argparse
import sys
import time
from array import array
from pathlib import Path

from common import GOLDEN_PATH, now, peak_rss_mb, read_json, use_source_tree, write_json

#: Specs generated per second of timed loop: comfortably more than a
#: fresh process computes, so the loop is bounded by time, not by input.
SPECS_PER_SECOND = 200

#: Points re-evaluated through the seed flat path after the loop.
FLAT_CHECKS = 8


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    use_source_tree()
    from repro.core.timing_cache import default_timing_cache
    from repro.parallel.mapper import default_mapping_cache
    from repro.scenarios.store import ResultStore, run_cached

    import checks
    import inputs

    specs = inputs.sweep_specs(args.seed, int(args.seconds * SPECS_PER_SECOND) + 50)
    args.workdir.mkdir(parents=True, exist_ok=True)
    store = ResultStore(f"file://{args.workdir / 'store'}")
    golden_values = read_json(GOLDEN_PATH)
    setup_end = now()
    if args.setup_only:
        write_json(args.out, {"setup_end": setup_end})
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    # Results are checked as they come out and then dropped, so what the
    # loop keeps (two numbers per call and the point sample) stays small
    # and the peak RSS is the program's.
    latencies, points = array("d"), array("q")
    golden = checks.CheckResult()
    figures_checked: list[str] = []
    sample = checks.PointSample(args.seed, FLAT_CHECKS)
    cpu_s = 0.0
    deadline = now() + args.seconds
    for index, spec in enumerate(specs):
        if now() >= deadline:
            break
        if tracer is not None:
            tracer.set_op(str(index))
        cpu_start, start = time.process_time(), now()
        raw = run_cached(spec, store).raw
        latencies.append(now() - start)
        cpu_s += time.process_time() - cpu_start
        points.append(len(raw["strategies"]) if "strategies" in raw else len(raw["points"]))
        if spec.name in checks.GOLDEN_SERIES:
            golden.merge(checks.golden_check(spec.name, raw, golden_values))
            figures_checked.append(spec.name)
        sample.offer(spec, raw)
    rss_mb = peak_rss_mb()
    if tracer is not None:
        tracer.set_op("")
    timing, mapping = default_timing_cache(), default_mapping_cache()
    counters = {
        "timing_cache": {"hits": timing.hits, "misses": timing.misses},
        "mapping_cache": {"hits": mapping.hits, "misses": mapping.misses},
        "store": store.stats.to_dict(),
    }

    write_json(
        args.out,
        {
            "setup_end": setup_end,
            "latencies": list(latencies),
            "cpu_s": cpu_s,
            "points": list(points),
            "figures_checked": figures_checked,
            "golden": golden.__dict__,
            "flat": sample.check().__dict__,
            "repeated_point_share": inputs.repeated_point_share(specs[: len(latencies)]),
            "peak_rss_mb": rss_mb,
            "counters": counters,
            "spans": tracer.dump() if tracer is not None else None,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
