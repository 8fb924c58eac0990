"""Preload a result store with the warm working set.

    python perfbench/preload.py --store URL --specs FILE

Computes every registry scenario plus the spec dicts listed in ``FILE``
through ``run_many`` into the store at ``URL``.  It runs in a process of
its own, so the daemon under test starts with empty compute caches.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from common import read_json, use_source_tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--specs", required=True, type=Path)
    args = parser.parse_args(argv)

    use_source_tree()
    from repro.scenarios.batch import run_many
    from repro.scenarios.registry import REGISTRY
    from repro.scenarios.spec import Scenario
    from repro.scenarios.store import ResultStore

    specs = [Scenario.from_dict(data) for data in read_json(args.specs)]
    run_many([*REGISTRY.values(), *specs], store=ResultStore(args.store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
