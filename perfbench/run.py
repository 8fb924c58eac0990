"""System benchmark of the serving daemon and the cold compute path.

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 20 --trace 0

Runs one seeded workload (``warm-serve``, ``cold-sweep``,
``mixed-serve``; see ``perfbench/README.md``), checks every output, prints
each metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` re-runs the same inputs with span
wrappers installed and reports the per-layer metrics.  ``--raw-dir DIR``
also stores the full run record as ``DIR/<workload>-s<seed>-t<trace>.json``
(the first stage of ``perfbench/trajectory``).
"""

from __future__ import annotations

import time

_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from common import WORK_ROOT, now, use_source_tree, write_json  # noqa: E402


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--raw-dir", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    use_source_tree()
    import repro.scenarios.batch  # noqa: F401 — the program, imported once
    import repro.serving.server  # noqa: F401

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        import_s=now() - _START,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if outcome.reported:
        print("# reported, not gated:")
        for name, (value, unit) in outcome.reported.items():
            print(f"{name:36s} {value:14.6g} {unit}")
    for key, value in outcome.details.items():
        print(f"# {key}: {json.dumps(value, default=str)}")
    record = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    if args.raw_dir is not None:
        args.raw_dir.mkdir(parents=True, exist_ok=True)
        write_json(
            args.raw_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json",
            record | {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "seconds": args.seconds, "details": outcome.details,
                      "reported": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in outcome.reported.items()}},
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
