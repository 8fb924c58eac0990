"""Routing core of the scenario serving daemon — HTTP-free and testable.

:class:`ServingApp` maps ``(method, path, body, headers)`` to a
:class:`Response` without touching a socket, so the request-handling
contract (status codes, structured error JSON, ``ETag``/``If-None-Match``
semantics) can be unit- and fuzz-tested in-process at memory speed; the
thin :mod:`repro.serving.server` layer adapts it onto
``http.server.ThreadingHTTPServer``.

Routes (responses are JSON unless noted)::

    GET  /healthz                 liveness + schema version
    GET  /stats                   server counters + job-engine gauges +
                                  store/backend stats (per-tier
                                  breakdowns) + provenance ages
    GET  /scenarios               the registry (name, kind, description,
                                  digest)
    GET  /scenarios/<name>        one spec (the ``to_dict`` form) + digest
    POST /run                     run one scenario ({"scenario":
                                  name-or-spec}) or a batch
                                  ({"scenarios": [...]}); cold digests are
                                  enqueued as jobs and answered 202 unless
                                  ``?wait=1`` / ``Prefer: wait`` asks to
                                  block until they are done
    GET  /jobs                    in-flight + recent terminal jobs
    GET  /jobs/<digest>           one job: queued|running|done|failed with
                                  queue position, timings, provenance
                                  (done ⇒ 303 to /results/<digest>)
    GET  /results/<digest>        one stored entry by bare content address
    GET  /results/<digest>/csv    the cached CSV artifact (``text/csv``)
    GET  /results/<digest>/text   the rendered figure/table
                                  (``text/plain``)

Caching contract: the response to ``POST /run`` and ``GET /results/…``
(all three representations) is fully determined by the spec digest (the
store's content address), so the digest **is** the ``ETag`` — a request
carrying a matching ``If-None-Match`` is answered ``304`` before the
store is even consulted, a warm digest is served straight from the
:class:`ResultStore` backend (with a ``mem://`` tier stacked over the
cache dir, hot digests never touch the filesystem at all) as a compact
JSON envelope spliced around the entry's stored bytes, and only genuine
misses enter the compute path.

Every cold compute is a *job*, and the job engine is the only cold path:
a miss is enqueued on the app's :class:`~repro.serving.jobs.JobManager`
(bounded queue, small worker pool, duplicate digests coalesced onto one
computation) and the request is answered ``202 {"digest", "status",
"status_url"}`` immediately; the client polls ``GET /jobs/<digest>``
until it is redirected (``303``) to the stored result.  ``?wait=1`` (or
``Prefer: wait``) submits the same job, or joins the one in flight, and
answers ``200`` with the artifacts once it is done.  Either way a full
queue answers a structured ``429`` carrying ``Retry-After``.

Error contract: every failure is a structured JSON body
``{"error": <slug>, "detail": <human text>}`` with the right 4xx status —
malformed JSON is 400, an unknown scenario or digest is 404, an over-size
body is 413, a wrong method on a known path is 405 (every route but
``POST /run`` is GET-only), an overloaded job queue is 429.  A
*compute-time* failure is classified by whose spec blew up: an inline
(client-sent) spec is ``invalid-scenario``, a registry (server-owned)
spec is ``compute-failed``.  That is the failed job's state on the async
path; a waiting request gets a 400 for ``invalid-scenario`` and a 500 for
anything else.  Unexpected exceptions become a 500 with a generic body:
no traceback ever leaves the process.

Scenario references over the wire are **registry names or inline spec
dicts only** — unlike the CLI, a request body can not name a server-side
file path (a network client must never drive local file reads).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ConfigError
from repro.scenarios.backends import StoreBackend
from repro.scenarios.registry import REGISTRY
from repro.scenarios.spec import Scenario
from repro.scenarios.store import (
    ResultStore,
    StoredResult,
    compact_json,
    is_digest,
    provenance_summary,
)
from repro.serving.jobs import (
    DEFAULT_JOB_WORKERS,
    DEFAULT_MAX_QUEUE,
    DONE,
    JobManager,
    QueueFullError,
)

#: Default request-body ceiling: far above any sane inline spec (the
#: largest registry spec serializes to ~2 KiB) yet small enough that a
#: misdirected upload cannot balloon the process.
MAX_BODY_BYTES = 1 << 20

#: Batch ceiling for one ``POST /run`` request.
MAX_BATCH_ITEMS = 256

#: ``/stats`` provenance scan ceiling: summarizing provenance means JSON-
#: parsing whole entry files (artifact payloads included), so a monitoring
#: endpoint polled against a huge store must bound how many it opens.
#: Entry counts and byte totals always come from ``stat`` alone.
MAX_STATS_PROVENANCE_SCAN = 256


@dataclass(frozen=True)
class Response:
    """One routed response: status, body (``None`` ⇒ bodyless 304), extra
    headers (``ETag``) and an optional content type.

    ``content_type=None`` (the default) means a JSON body: a value that
    :meth:`body_bytes` encodes compactly, or bytes that already are
    compact JSON (a warm result spliced from its stored entry).  The
    artifact routes (``…/csv``, ``…/text``) set an explicit type and carry
    their body as raw text, byte-identical to the CLI-written artifact
    files.
    """

    status: int
    body: Any
    headers: Mapping[str, str] = field(default_factory=dict)
    #: ``None`` ⇒ ``application/json``; otherwise sent verbatim and the
    #: body is raw text, not JSON-serialized.
    content_type: str | None = None

    def body_bytes(self) -> bytes:
        """The serialized body (empty for bodyless responses)."""
        if self.body is None:
            return b""
        if self.content_type is not None:
            return str(self.body).encode()
        if isinstance(self.body, bytes):
            return self.body + b"\n"
        return compact_json(self.body) + b"\n"


def _json_object(head: Mapping[str, Any], **fragments: bytes) -> bytes:
    """A compact JSON object: ``head``'s members, then each of
    ``fragments`` (already-encoded JSON values) under its keyword."""
    members = [compact_json(head)[1:-1]] if head else []
    members += [
        b'"%s":%s' % (key.encode(), value) for key, value in fragments.items()
    ]
    return b"{%s}" % b",".join(members)


def error_response(
    status: int,
    error: str,
    detail: str,
    headers: Mapping[str, str] | None = None,
) -> Response:
    """A structured error body — the only shape failures ever take.

    ``headers`` carries response headers that are part of the error
    contract itself (a 429's ``Retry-After``).
    """
    return Response(status, {"error": error, "detail": detail}, headers or {})


def etag_for(digest: str) -> str:
    """The strong validator for a digest-addressed representation."""
    return f'"{digest}"'


def _path_digest(raw: str, what: str) -> tuple[str, Response | None]:
    """A URL-path digest, lowercased (so ``/results/ABC…`` matches the
    lowercase ``ETag`` handed out) — with the 400 ``bad-digest`` if bad."""
    digest = raw.lower()
    if is_digest(digest):
        return digest, None
    return digest, error_response(
        400,
        "bad-digest",
        f"malformed {what} digest {digest!r}: expected 64 hex chars",
    )


def if_none_match_matches(header: str | None, digest: str) -> bool:
    """RFC-ish ``If-None-Match`` check against a digest ETag.

    Accepts a comma-separated list, quoted or bare tags, weak (``W/``)
    prefixes and ``*``; anything unparseable simply does not match.
    """
    if not header:
        return False
    for candidate in header.split(","):
        tag = candidate.strip()
        if tag == "*":
            return True
        if tag.startswith(("W/", "w/")):
            tag = tag[2:]
        if tag.startswith('"') and tag.endswith('"') and len(tag) >= 2:
            tag = tag[1:-1]
        if tag == digest:
            return True
    return False


@dataclass
class ServeStats:
    """Process-lifetime serving counters (the ``/stats`` ``server`` block).

    ``started_unix`` is wall-clock, for display only; ``uptime_s`` is
    derived from the monotonic clock, so an NTP step (or a ``date -s``)
    can never make uptime jump or go negative.
    """

    started_unix: float = field(default_factory=time.time)
    started_monotonic: float = field(default_factory=time.monotonic)
    requests: int = 0
    runs: int = 0
    served_from_store: int = 0
    computed: int = 0
    not_modified: int = 0
    accepted_jobs: int = 0
    rejected_jobs: int = 0
    client_errors: int = 0
    server_errors: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "started_unix": self.started_unix,
            "uptime_s": time.monotonic() - self.started_monotonic,
            "requests": self.requests,
            "runs": self.runs,
            "served_from_store": self.served_from_store,
            "computed": self.computed,
            "not_modified": self.not_modified,
            "accepted_jobs": self.accepted_jobs,
            "rejected_jobs": self.rejected_jobs,
            "client_errors": self.client_errors,
            "server_errors": self.server_errors,
        }


class ServingApp:
    """The daemon's request router over one :class:`ResultStore`."""

    def __init__(
        self,
        store: "ResultStore | str | Path | StoreBackend | None" = None,
        *,
        max_body_bytes: int = MAX_BODY_BYTES,
        job_workers: int = DEFAULT_JOB_WORKERS,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        # Anything that names a store (a URL, a bare cache-dir path, a
        # backend) goes through ResultStore; None is the default cache dir.
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.max_body_bytes = max_body_bytes
        self.stats = ServeStats()
        self._stats_lock = threading.Lock()
        #: Registry name -> (its scenario, that scenario's digest here).
        self._registry_digests: dict[str, tuple[Scenario, str]] = {}
        #: The job engine behind every cold ``POST /run`` (202 or waited,
        #: coalesced, 429 when full) and the ``/jobs`` routes.  Worker
        #: threads start lazily on the first submission.
        self.jobs = JobManager(
            self.store,
            n_workers=job_workers,
            max_queue=max_queue,
            on_terminal=self._job_finished,
        )

    def _job_finished(self, job) -> None:
        """Job-engine terminal hook: the one place a cold compute is
        counted, whether its requests waited or polled."""
        if job.state == DONE:
            self._count("served_from_store" if job.from_cache else "computed")

    def close(self) -> None:
        """Stop the job engine's worker pool (idempotent)."""
        self.jobs.shutdown()

    # -- entry point --------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Mapping[str, str] | None = None,
    ) -> Response:
        """Route one request; never raises."""
        lowered = {
            str(key).lower(): str(value)
            for key, value in (headers or {}).items()
        }
        self._count("requests")
        try:
            # No blanket ConfigError → 400 here: request-resolution errors
            # are answered 4xx at their source, so a ConfigError escaping
            # to this level is a server-side defect and must say so.
            response = self._route(method.upper(), path, body, lowered)
        except Exception as exc:  # noqa: BLE001 — the no-traceback contract
            response = error_response(
                500, "internal", f"unexpected {type(exc).__name__}"
            )
        if 400 <= response.status < 500:
            self._count("client_errors")
        elif response.status >= 500:
            self._count("server_errors")
        elif response.status == 304:
            self._count("not_modified")
        return response

    def _count(self, counter: str, n: int = 1) -> None:
        with self._stats_lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + n)

    def _registry_digest(self, name: str, scenario: Scenario) -> str:
        """A registry scenario's digest, computed once per registered
        spec: a request by name need not hash a frozen constant again (a
        spec swapped in by ``register(..., replace=True)`` is hashed
        anew)."""
        known = self._registry_digests.get(name)
        if known is None or known[0] is not scenario:
            known = (scenario, self.store.digest(scenario))
            self._registry_digests[name] = known
        return known[1]

    # -- routing ------------------------------------------------------------
    def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Mapping[str, str],
    ) -> Response:
        path, _, query = path.partition("?")
        parts = [part for part in path.split("/") if part]

        if parts == ["healthz"]:
            return self._require_get(method) or self._handle_healthz()
        if parts == ["stats"]:
            return self._require_get(method) or self._handle_stats()
        if parts == ["scenarios"]:
            return self._require_get(method) or self._handle_scenarios()
        if len(parts) == 2 and parts[0] == "scenarios":
            return self._require_get(method) or self._handle_scenario(
                parts[1], headers
            )
        if parts == ["jobs"]:
            return self._require_get(method) or self._handle_jobs()
        if len(parts) == 2 and parts[0] == "jobs":
            return self._require_get(method) or self._handle_job(parts[1])
        if len(parts) == 2 and parts[0] == "results":
            return self._require_get(method) or self._handle_result(
                parts[1], headers
            )
        if len(parts) == 3 and parts[0] == "results":
            return self._require_get(method) or self._handle_result_artifact(
                parts[1], parts[2], headers
            )
        if parts == ["run"]:
            if method != "POST":
                return error_response(
                    405, "method-not-allowed", "POST /run"
                )
            return self._handle_run(body, headers, query)
        return error_response(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _require_get(method: str) -> Response | None:
        if method != "GET":
            return error_response(
                405, "method-not-allowed", "this route is GET-only"
            )
        return None

    # -- GET routes ---------------------------------------------------------
    def _handle_healthz(self) -> Response:
        return Response(
            200,
            {"status": "ok", "schema_version": self.store.schema_version},
        )

    def _handle_stats(self) -> Response:
        # One backend scan covers sizes *and* the per-tier breakdown; the
        # top-level n_entries/total_bytes are read out of the same block
        # instead of a second disk_usage() walk.
        backend_block = self.store.backend.stats()
        provenance_block = provenance_summary(
            itertools.islice(self.store.entries(), MAX_STATS_PROVENANCE_SCAN)
        )
        cache_dir = self.store.cache_dir
        return Response(
            200,
            {
                "server": self.stats.to_dict(),
                "jobs": self.jobs.stats(),
                "store": {
                    "url": self.store.url,
                    "cache_dir": (
                        str(cache_dir) if cache_dir is not None else None
                    ),
                    "schema_version": self.store.schema_version,
                    # stat-only: never scales with cached payload bytes.
                    "n_entries": backend_block["n_entries"],
                    "total_bytes": backend_block["total_bytes"],
                    "counters": self.store.stats.to_dict(),
                    # Per-backend (and, for tiered stores, per-tier)
                    # breakdown, caps included — how the hot tier and
                    # the cache dir are audited.
                    "backend": backend_block,
                    "provenance": provenance_block,
                },
            },
        )

    def _handle_scenarios(self) -> Response:
        return Response(
            200,
            {
                "scenarios": [
                    {
                        "name": scenario.name,
                        "kind": scenario.kind,
                        "description": scenario.description,
                        "digest": self._registry_digest(name, scenario),
                    }
                    for name, scenario in REGISTRY.items()
                ]
            },
        )

    def _handle_scenario(
        self, name: str, headers: Mapping[str, str]
    ) -> Response:
        scenario = REGISTRY.get(name)
        if scenario is None:
            return error_response(
                404, "unknown-scenario", f"no registered scenario {name!r}"
            )
        digest = self._registry_digest(name, scenario)
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        return Response(
            200,
            {"name": name, "digest": digest, "spec": scenario.to_dict()},
            {"ETag": etag_for(digest)},
        )

    # -- job status routes --------------------------------------------------
    def _handle_jobs(self) -> Response:
        return Response(
            200,
            {"jobs": self.jobs.list_jobs(), "counters": self.jobs.stats()},
        )

    def _handle_job(self, digest: str) -> Response:
        digest, bad = _path_digest(digest, "job")
        if bad:
            return bad
        snapshot = self.jobs.describe(digest)
        if snapshot is None:
            # The job engine never saw this digest (or GC'd it), but the
            # result may exist anyway — computed by the CLI, copied into
            # the cache dir, or in a previous daemon life.  Existence is
            # what the client is really asking about, so answer done.
            if self.store.contains(digest):
                return Response(
                    303,
                    {
                        "digest": digest,
                        "status": DONE,
                        "result_url": f"/results/{digest}",
                    },
                    {"Location": f"/results/{digest}"},
                )
            return error_response(
                404,
                "unknown-job",
                f"no job (and no stored result) for digest {digest!r}",
            )
        if snapshot["status"] == DONE:
            return Response(
                303, snapshot, {"Location": f"/results/{digest}"}
            )
        return Response(200, snapshot)

    def _handle_result(
        self, digest: str, headers: Mapping[str, str]
    ) -> Response:
        digest, bad = _path_digest(digest, "result")
        if bad:
            return bad
        # The representation is immutable per digest: a matching validator
        # plus a stat-only existence probe answers the bodyless 304 without
        # reading (or even JSON-parsing) the artifact payload.
        if if_none_match_matches(headers.get("if-none-match"), digest):
            if self.store.contains(digest):
                return Response(304, None, {"ETag": etag_for(digest)})
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        entry = self.store.read_digest(digest)
        if entry is None:
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        return Response(
            200,
            _json_object(
                {"digest": digest},
                scenario=entry.fragment("scenario"),
                provenance=entry.fragment("provenance"),
                artifacts=entry.fragment("artifacts"),
            ),
            {"ETag": etag_for(digest)},
        )

    #: Content negotiation (the ``/results/<digest>/<stage>`` routes): each
    #: cached artifact stage served raw with its own media type.  Bytes
    #: match the CLI-written artifact files exactly (text files carry the
    #: trailing newline ``write_artifacts`` adds).
    ARTIFACT_STAGES = {
        "csv": ("csv", "text/csv; charset=utf-8"),
        "text": ("text", "text/plain; charset=utf-8"),
    }

    def _handle_result_artifact(
        self, digest: str, stage: str, headers: Mapping[str, str]
    ) -> Response:
        if stage not in self.ARTIFACT_STAGES:
            return error_response(
                404,
                "unknown-artifact",
                f"no artifact stage {stage!r}: expected one of "
                f"{sorted(self.ARTIFACT_STAGES)}",
            )
        digest, bad = _path_digest(digest, "result")
        if bad:
            return bad
        key, content_type = self.ARTIFACT_STAGES[stage]
        # Unlike the JSON route, a matching If-None-Match cannot be
        # answered from a bare existence probe: the entry may exist while
        # *this stage* does not (a table scenario has no CSV), and a 304
        # would wrongly assert the client's cached representation is still
        # valid.  So the entry is read either way and the 304 only covers
        # representations that actually exist.
        entry = self.store.read_digest(digest)
        if entry is None:
            return error_response(
                404, "unknown-digest", f"no stored result {digest!r}"
            )
        artifact = entry.value(key)
        if not isinstance(artifact, str):
            return error_response(
                404,
                f"no-{stage}-artifact",
                f"stored result {digest!r} has no {stage} artifact"
                + (" (not a grid scenario)" if key == "csv" else ""),
            )
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        if key == "text":
            # write_artifacts() emits <name>.txt with a trailing newline;
            # serve the same bytes.
            artifact = artifact + "\n"
        return Response(
            200,
            artifact,
            {"ETag": etag_for(digest)},
            content_type=content_type,
        )

    # -- POST /run ----------------------------------------------------------
    @staticmethod
    def _wants_wait(query: str, headers: Mapping[str, str]) -> bool:
        """Whether this request asked to wait for its cold computes
        (``?wait=1`` or an RFC-7240-style ``Prefer: wait`` header)."""
        params = urllib.parse.parse_qs(query, keep_blank_values=True)
        values = params.get("wait")
        if values:
            return values[-1].strip().lower() not in ("0", "false", "no")
        prefer = headers.get("prefer", "")
        return any(
            token.split("=", 1)[0].strip().lower() == "wait"
            for token in prefer.split(",")
        )

    def _handle_run(
        self, body: bytes, headers: Mapping[str, str], query: str = ""
    ) -> Response:
        if len(body) > self.max_body_bytes:
            return error_response(
                413,
                "payload-too-large",
                f"body exceeds {self.max_body_bytes} bytes",
            )
        if not body:
            return error_response(
                400, "empty-body", 'expected {"scenario": …} JSON'
            )
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return error_response(400, "invalid-json", str(exc))
        if not isinstance(request, dict):
            return error_response(
                400, "invalid-request", "request body must be a JSON object"
            )
        has_single = "scenario" in request
        has_batch = "scenarios" in request
        if has_single == has_batch:
            return error_response(
                400,
                "invalid-request",
                'exactly one of "scenario" or "scenarios" is required',
            )
        wait = self._wants_wait(query, headers)
        if has_single:
            return self._run_single(request["scenario"], headers, wait)
        return self._run_batch(request["scenarios"], wait)

    def _resolve(self, item: Any) -> tuple[Scenario, str] | Response:
        """A registry name or inline spec dict — never a server-side path
        — as its scenario and digest."""
        if isinstance(item, str):
            scenario = REGISTRY.get(item)
            if scenario is None:
                return error_response(
                    404,
                    "unknown-scenario",
                    f"no registered scenario {item!r} "
                    "(inline specs must be JSON objects)",
                )
            return scenario, self._registry_digest(item, scenario)
        if isinstance(item, dict):
            try:
                scenario = Scenario.from_dict(item)
            except (ConfigError, ValueError, TypeError, KeyError) as exc:
                return error_response(
                    400, "invalid-scenario", f"not a scenario spec: {exc}"
                )
            return scenario, self.store.digest(scenario)
        return error_response(
            400,
            "invalid-scenario",
            "a scenario reference must be a registry name or a spec object",
        )

    def _overloaded(self, exc: QueueFullError) -> Response:
        self._count("rejected_jobs")
        return error_response(
            429,
            "overloaded",
            str(exc),
            {"Retry-After": str(exc.retry_after_s)},
        )

    def _wait_for_jobs(
        self, cold: list[tuple[Scenario, str, str]]
    ) -> dict[str, StoredResult] | Response:
        """Submit (or join) the jobs for ``cold`` and block until they are
        done: their results, or the 429 / failure response.

        A failed job's slug sets the status: the client's own inline spec
        (``invalid-scenario``) is a 400, anything else is a server-side
        500; in a batch, an inline item's failure wins.
        """
        try:
            outcomes = self.jobs.run(cold)
        except QueueFullError as exc:
            return self._overloaded(exc)
        errors = [o for o in outcomes.values() if isinstance(o, dict)]
        if not errors:
            return outcomes
        error = next(
            (e for e in errors if e["error"] == "invalid-scenario"), errors[0]
        )
        status = 400 if error["error"] == "invalid-scenario" else 500
        return error_response(status, error["error"], error["detail"])

    def _run_single(
        self, item: Any, headers: Mapping[str, str], wait: bool
    ) -> Response:
        resolved = self._resolve(item)
        if isinstance(resolved, Response):
            return resolved
        resolved, digest = resolved
        origin = "inline" if isinstance(item, dict) else "registry"
        # Count the run before the conditional check: a 304-revalidated
        # run is still a run, and must not vanish from /stats.
        self._count("runs")
        if if_none_match_matches(headers.get("if-none-match"), digest):
            return Response(304, None, {"ETag": etag_for(digest)})
        result = self.store.get(resolved, _digest=digest)
        if result is not None:
            self._count("served_from_store")
        elif wait:
            results = self._wait_for_jobs([(resolved, digest, origin)])
            if isinstance(results, Response):
                return results
            result = results[digest]
        else:
            # Cold, asynchronous: enqueue (or coalesce) and answer 202.
            try:
                snapshot = self.jobs.submit(resolved, digest, origin=origin)
            except QueueFullError as exc:
                return self._overloaded(exc)
            self._count("accepted_jobs")
            return Response(
                202,
                {
                    "name": resolved.name,
                    "digest": digest,
                    "status": snapshot["status"],
                    "status_url": f"/jobs/{digest}",
                    "queue_position": snapshot["queue_position"],
                    "coalesced": snapshot["coalesced_onto_existing"],
                },
                {"Location": f"/jobs/{digest}"},
            )
        return Response(
            200,
            _json_object(
                {
                    "name": resolved.name,
                    "digest": digest,
                    "from_cache": result.from_cache,
                },
                provenance=result.entry.fragment("provenance"),
                artifacts=result.entry.fragment("artifacts"),
            ),
            {"ETag": etag_for(digest)},
        )

    def _run_batch(self, items: Any, wait: bool) -> Response:
        if not isinstance(items, list) or not items:
            return error_response(
                400, "invalid-request", '"scenarios" must be a non-empty list'
            )
        if len(items) > MAX_BATCH_ITEMS:
            return error_response(
                413,
                "batch-too-large",
                f"at most {MAX_BATCH_ITEMS} scenarios per request",
            )
        resolved: list[Scenario] = []
        digests: list[str] = []
        origins: list[str] = []
        for item in items:
            outcome = self._resolve(item)
            if isinstance(outcome, Response):
                return outcome
            resolved.append(outcome[0])
            digests.append(outcome[1])
            origins.append("inline" if isinstance(item, dict) else "registry")
        self._count("runs", len(resolved))
        # A stat-only probe picks the answer: a batch with cold items
        # that will not wait gets the 202 status sheet.
        warmness = [self.store.contains(digest) for digest in digests]
        if not wait and not all(warmness):
            return self._enqueue_batch(resolved, digests, origins, warmness)
        # Answered inline: warm entries are read here, without touching
        # the job engine; cold ones — and any entry the probe promised
        # but that reads as a miss — wait on their jobs.
        results: dict[str, StoredResult] = {}
        cold: dict[str, tuple[Scenario, str, str]] = {}
        for scenario, digest, origin, warm in zip(
            resolved, digests, origins, warmness
        ):
            if digest in results or digest in cold:
                continue
            result = self.store.get(scenario, _digest=digest) if warm else None
            if result is None:
                cold[digest] = (scenario, digest, origin)
            else:
                results[digest] = result
        n_read = len(results)
        if cold:
            computed = self._wait_for_jobs(list(cold.values()))
            if isinstance(computed, Response):
                return computed
            results.update(computed)
        self._count("served_from_store", n_read)
        entries = []
        seen: set[str] = set()
        for scenario, digest in zip(resolved, digests):
            result = results[digest]
            entries.append(
                _json_object(
                    {
                        "name": scenario.name,
                        "digest": digest,
                        "from_cache": result.from_cache,
                        "deduplicated": digest in seen,
                    },
                    artifacts=result.entry.fragment("artifacts"),
                )
            )
            seen.add(digest)
        n_unique = len(results)
        n_from_store = sum(result.from_cache for result in results.values())
        stats = {
            "n_items": len(entries),
            "n_unique": n_unique,
            "n_from_store": n_from_store,
            "n_computed": n_unique - n_from_store,
            "n_deduplicated": len(entries) - n_unique,
            "store_hit_rate": n_from_store / n_unique,
        }
        return Response(
            200,
            _json_object(
                {},
                entries=b"[" + b",".join(entries) + b"]",
                stats=compact_json(stats),
            ),
        )

    def _enqueue_batch(
        self,
        resolved: list[Scenario],
        digests: list[str],
        origins: list[str],
        warmness: list[bool],
    ) -> Response:
        """Async batch admission: every unique cold digest becomes a job
        (admitted atomically — the whole batch or nothing), warm items are
        pointed at their stored results, and the response is a 202 status
        sheet rather than a pile of artifacts."""
        cold = [
            (scenario, digest, origin)
            for scenario, digest, origin, warm in zip(
                resolved, digests, origins, warmness
            )
            if not warm
        ]
        try:
            snapshots = self.jobs.submit_many(cold)
        except QueueFullError as exc:
            return self._overloaded(exc)
        self._count("accepted_jobs", len(snapshots))
        entries = []
        for scenario, digest, warm in zip(resolved, digests, warmness):
            if warm:
                entries.append(
                    {
                        "name": scenario.name,
                        "digest": digest,
                        "status": DONE,
                        "result_url": f"/results/{digest}",
                    }
                )
            else:
                snapshot = snapshots[digest]
                entries.append(
                    {
                        "name": scenario.name,
                        "digest": digest,
                        "status": snapshot["status"],
                        "status_url": f"/jobs/{digest}",
                        "queue_position": snapshot["queue_position"],
                    }
                )
        return Response(
            202,
            {
                "entries": entries,
                "stats": {
                    "n_items": len(entries),
                    "n_warm": sum(warmness),
                    "n_jobs": len(snapshots),
                },
            },
        )


__all__ = [
    "MAX_BATCH_ITEMS",
    "MAX_BODY_BYTES",
    "MAX_STATS_PROVENANCE_SCAN",
    "Response",
    "ServeStats",
    "ServingApp",
    "error_response",
    "etag_for",
    "if_none_match_matches",
]
