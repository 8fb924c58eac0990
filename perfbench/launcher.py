"""Daemon launcher: the serving daemon under test, in its own process.

    python perfbench/launcher.py --store URL --out FILE [--trace]

Starts ``create_server(port=0)`` on ``URL`` (through the repository's
``launch_daemon`` harness) and prints the bound port on stdout.  With
``--trace`` the span wrappers are installed before the server is built;
traced and untraced runs share this launcher, so the wrappers are the
only difference between them.  On SIGTERM it stops the server and writes
``FILE``: peak RSS, the process-wide compute-cache counters and, when
traced, every recorded span.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

from common import peak_rss_mb, use_source_tree, write_json


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, help="store URL")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    use_source_tree()
    from repro.core.timing_cache import default_timing_cache
    from repro.parallel.mapper import default_mapping_cache
    from repro.serving.testing import launch_daemon

    tracer = None
    if args.trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    parent = os.getppid()
    with launch_daemon(port=0, cache=args.store) as live:
        print(live.port, flush=True)
        # A launcher must never outlive the benchmark that started it.
        while not stop.wait(0.2):
            if os.getppid() != parent:
                break
    timing, mapping = default_timing_cache(), default_mapping_cache()
    write_json(
        args.out,
        {
            "peak_rss_mb": peak_rss_mb(),
            "timing_cache": {"hits": timing.hits, "misses": timing.misses},
            "mapping_cache": {"hits": mapping.hits, "misses": mapping.misses},
            "spans": tracer.dump() if tracer is not None else None,
        },
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
