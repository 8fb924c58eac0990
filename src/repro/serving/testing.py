"""In-process daemon harness shared by tests, benchmarks and tooling.

Every caller that needs a live daemon — the server golden and wire
tests, the reachability trace in ``benchmarks/`` — gets a server, a
thread and a teardown from :func:`launch_daemon`: ephemeral port, any
:func:`~repro.serving.server.create_server` configuration, and a
guaranteed ``shutdown()`` + ``server_close()`` (which also stops the
job engine's worker pool) on exit.

Lives in ``src`` rather than a conftest because the benchmark tree has
its own conftest chain and the CLI's smoke tooling wants it too.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.serving.server import ReproHTTPServer, create_server


@dataclass
class LiveDaemon:
    """A serving daemon running on its own thread."""

    server: ReproHTTPServer

    @property
    def host(self) -> str:
        return self.server.server_address[0]

    @property
    def port(self) -> int:
        return self.server.server_address[1]


@contextmanager
def launch_daemon(
    *, join_timeout_s: float = 10.0, **server_kwargs: Any
) -> Iterator[LiveDaemon]:
    """A live daemon for the duration of the ``with`` block.

    ``server_kwargs`` go to :func:`create_server` verbatim (``port``
    defaults to 0 — an ephemeral bind).  Teardown always runs
    ``shutdown()`` then ``server_close()``, so neither the socket nor the
    job-engine worker pool outlives the block.
    """
    server = create_server(**server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield LiveDaemon(server)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=join_timeout_s)


__all__ = ["LiveDaemon", "launch_daemon"]
