"""Digest-cached scenario serving daemon (``python -m repro serve``).

The HTTP/IPC front-end over the content-addressed result store:
``GET /scenarios`` lists the registry, ``POST /run`` runs named
scenarios, inline specs or whole batches as jobs on
:mod:`~repro.serving.jobs` (the one cold path), and warm results are served
straight from the :class:`~repro.scenarios.store.ResultStore` as pure
file reads with the spec digest as the ``ETag`` (``If-None-Match`` ⇒
``304``).  Routing lives in :mod:`~repro.serving.app` (socket-free,
fuzz-tested); the HTTP/1.1 transport on the stdlib's
``socketserver.ThreadingTCPServer`` in :mod:`~repro.serving.server`.

>>> from repro.serving import create_server
>>> server = create_server(port=0)          # ephemeral port
>>> server.url
'http://127.0.0.1:...'
"""

from repro.serving.app import (
    MAX_BATCH_ITEMS,
    MAX_BODY_BYTES,
    Response,
    ServeStats,
    ServingApp,
    error_response,
    etag_for,
    if_none_match_matches,
)
from repro.serving.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_MAX_QUEUE,
    Job,
    JobManager,
    QueueFullError,
)
from repro.serving.server import ReproHTTPServer, create_server, serve_forever
from repro.serving.testing import LiveDaemon, launch_daemon

__all__ = [
    "LiveDaemon",
    "launch_daemon",
    "DEFAULT_JOB_WORKERS",
    "DEFAULT_MAX_QUEUE",
    "Job",
    "JobManager",
    "MAX_BATCH_ITEMS",
    "MAX_BODY_BYTES",
    "QueueFullError",
    "Response",
    "ServeStats",
    "ServingApp",
    "ReproHTTPServer",
    "create_server",
    "error_response",
    "etag_for",
    "if_none_match_matches",
    "serve_forever",
]
