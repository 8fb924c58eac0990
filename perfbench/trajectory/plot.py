"""Stage 3 of the trajectory: results.csv -> a text table per workload.

    python3 perfbench/trajectory/plot.py results.csv [--png DIR]

For every (workload, metric) it prints each label's median over seeds and
the spread between its quartiles as a share of the median — the same
statistic the benchmark's bounds are checked against.  Labels keep the
order they first appear in the CSV.  With ``--png`` and matplotlib
installed it also draws one chart per workload; matplotlib is optional.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: Path):
    """{(workload, trace): {metric: {label: [values]}}}, units, labels."""
    table: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    units: dict[str, str] = {}
    labels: list[str] = []
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["label"] not in labels:
                labels.append(row["label"])
            key = (row["workload"], row["trace"])
            table[key][row["metric"]][row["label"]].append(float(row["value"]))
            units[row["metric"]] = row["unit"]
    return table, units, labels


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def render(table, units, labels) -> str:
    lines = []
    for (workload, trace), metrics in sorted(table.items()):
        lines.append(f"== {workload} (trace {trace}) ==")
        header = f"{'metric':38s} {'unit':9s}" + "".join(f"{label:>24s}" for label in labels)
        lines.append(header)
        for metric, by_label in metrics.items():
            cells = []
            for label in labels:
                values = by_label.get(label)
                if not values:
                    cells.append(f"{'-':>24s}")
                    continue
                cells.append(f"{statistics.median(values):>12.4g} ±{spread(values):6.3f} n{len(values):<2d}")
            lines.append(f"{metric:38s} {units[metric]:9s}" + "".join(cells))
        lines.append("")
    return "\n".join(lines)


def draw(table, labels, out_dir: Path) -> None:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    out_dir.mkdir(parents=True, exist_ok=True)
    for (workload, trace), metrics in table.items():
        names = list(metrics)
        fig, axes = plt.subplots(len(names), 1, figsize=(6, 2 * len(names)), squeeze=False)
        for ax, metric in zip(axes[:, 0], names):
            medians = [
                statistics.median(metrics[metric][label]) if metrics[metric].get(label) else float("nan")
                for label in labels
            ]
            ax.plot(labels, medians, marker="o")
            ax.set_ylabel(metric, fontsize=7)
        fig.tight_layout()
        fig.savefig(out_dir / f"{workload}-t{trace}.png")
        plt.close(fig)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("csv", type=Path)
    parser.add_argument("--png", type=Path, default=None, help="also draw charts (needs matplotlib)")
    args = parser.parse_args(argv)
    table, units, labels = load(args.csv)
    print(render(table, units, labels))
    if args.png is not None:
        try:
            draw(table, labels, args.png)
        except ImportError:
            print("matplotlib is not installed; text table only", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
