"""Stage 2 of the trajectory: raw run records -> one CSV.

    python3 perfbench/trajectory/to_csv.py raw/ [more raw dirs...] -o results.csv

Each raw directory holds the ``<workload>-s<seed>-t<trace>.json`` records
``run.py --raw-dir`` writes; the directory name becomes the ``label``
column (a commit, a branch, a date), so one CSV can hold the runs of many
revisions side by side.  One row per (run, metric), for the gated metrics
and the reported-only ones (``gated`` column).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

COLUMNS = (
    "label",
    "workload",
    "trace",
    "seed",
    "metric",
    "gated",
    "value",
    "unit",
    "correct",
    "attempted",
    "failed",
)


def rows(raw_dir: Path):
    for path in sorted(raw_dir.glob("*.json")):
        record = json.loads(path.read_text())
        metrics = [(name, entry, True) for name, entry in record["metrics"].items()]
        metrics += [(name, entry, False) for name, entry in record.get("reported", {}).items()]
        for metric, entry, gated in metrics:
            yield {
                "label": raw_dir.name,
                "workload": record["workload"],
                "trace": record["trace"],
                "seed": record["seed"],
                "metric": metric,
                "gated": gated,
                "value": repr(float(entry["value"])),
                "unit": entry["unit"],
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
            }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("raw_dirs", nargs="+", type=Path)
    parser.add_argument("-o", "--out", type=Path, default=Path("results.csv"))
    args = parser.parse_args(argv)
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=COLUMNS)
        writer.writeheader()
        count = 0
        for raw_dir in args.raw_dirs:
            for row in rows(raw_dir):
                writer.writerow(row)
                count += 1
    print(f"wrote {count} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
