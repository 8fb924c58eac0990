"""Content-addressed scenario result store: serve-many, compute-once.

Every :class:`~repro.scenarios.spec.Scenario` round-trips losslessly through
``to_dict``, so a stable digest of that dict **is** the result's identity: a
sha256 over the canonical (sorted-key, separator-normalized) JSON of the
spec plus the store's *schema version* — the code-version stamp that is
bumped whenever the runner, the extractors or the artifact layout change
meaning.  Any field mutation anywhere in the spec (a swept bandwidth, a
different batch, a renamed extractor) changes the digest; any schema bump
orphans every old entry.

:class:`ResultStore` is a thin digest/orchestration front-end over a
pluggable :class:`~repro.scenarios.backends.base.StoreBackend` — *where*
the entry bytes live is the backend's business (a local cache directory,
an in-process LRU, or a tier stack of both; see
:mod:`repro.scenarios.backends`).  The front-end owns addressing,
validation, the corrupt/self-heal policy and the store-level stats.  The
default backend keeps one JSON file per digest under a cache directory,
written compactly on one line (wrapped here)::

    <cache_dir>/<sha256-digest>.json
        {"format":"repro-scenario-result","digest":"…","schema_version":1,
         "lengths":[S,P,R,T,C],"sha256":"…",
         "scenario":{…Scenario.to_dict()…},"provenance":{…},
         "artifacts":{"raw":{…},"text":"…","csv":"…"|null}}

``lengths`` are the byte lengths of the scenario, provenance, raw, text
and csv values, and ``sha256`` covers every byte from ``"scenario":`` to
the ``}`` closing ``artifacts``.  So a read finds each part by arithmetic
and validates it by one hash, without decoding anything: a warm reply is
an envelope spliced around these stored bytes, and a bit flip that keeps
the entry valid JSON is still caught, as a corrupt miss.  Only ``put``
starts an entry with these head bytes, so one that does but breaks the
layout (a flipped key or length, outside the checksum) is corrupt too.
An entry is read this one way: bytes not in this layout (foreign JSON,
an entry re-serialized by hand or written before the layout existed)
are a corrupt miss, healed and recomputed.  The layout is defined once,
in :mod:`repro.scenarios.backends.base`, for this reader and for the
tier stack's plausibility probe alike.

What is cached is the *artifact payload* — the raw-JSON stage, the rendered
text figure/table and the CSV stage of the ``python -m repro`` pipeline —
so a warm :func:`run_cached` is a pure backend read: no systems are built,
no workloads mapped, no kernels timed (the cache-correctness suite asserts
the kernel-timing counters do not move), and the replayed artifacts are
byte-identical to the cold run's regardless of which backend served them.

A store is named by a URL or a bare cache-dir path, and by nothing else,
everywhere one is accepted (:func:`run_cached`,
:func:`~repro.scenarios.batch.run_many`, the serving daemon, the CLI's
``--cache``): ``mem://``, ``file:///path?max_bytes=N&max_entries=N``, or
comma-separated tiers — see :mod:`repro.scenarios.backends.url`.  Each of
those places also takes a ready-built :class:`ResultStore`, or a backend
object, which :class:`ResultStore` wraps.

:func:`run_cached` is the store-aware single-scenario entry point; the
batch runner (:mod:`repro.scenarios.batch`) and the CLI both route through
it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import ConfigError
from repro.scenarios.backends import (
    STORE_FORMAT,
    LocalFSBackend,
    StoreBackend,
    backend_from_url,
    is_store_url,
)
from repro.scenarios.backends.base import (
    DIGEST_RE,
    ENTRY_PARTS,
    STALE_TMP_SECONDS,
    EntryError,
    encode_entry,
    entry_spans,
    entry_totals,
)
from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import Scenario

#: Result-schema/code version.  Bump whenever the runner, the extractor
#: vocabulary or the artifact layout change what a stored payload means —
#: the digest folds it in, so every old entry simply stops matching.
SCHEMA_VERSION = 1

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The store location when none is given: ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro/scenarios``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "scenarios"


def canonical_spec_json(
    scenario: Scenario, schema_version: int = SCHEMA_VERSION
) -> str:
    """The canonical serialization the digest is computed over."""
    return json.dumps(
        {"schema_version": schema_version, "scenario": scenario.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    )


def scenario_digest(
    scenario: Scenario, schema_version: int = SCHEMA_VERSION
) -> str:
    """Content address of a scenario's result: sha256 of the canonical spec
    JSON + schema version."""
    return hashlib.sha256(
        canonical_spec_json(scenario, schema_version).encode()
    ).hexdigest()


def is_digest(value: str) -> bool:
    """Whether ``value`` is a well-formed content address (64 lowercase hex
    chars) — the validation behind :meth:`ResultStore.read_digest` and the
    serving daemon's ``/results`` routes."""
    return bool(DIGEST_RE.fullmatch(value))


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def compact_json(value: Any) -> bytes:
    """``value`` as compact JSON bytes: how entries are stored and replies
    sent (``indent`` would keep CPython off its C encoder)."""
    return _COMPACT.encode(value).encode()


class EntryView:
    """One validated entry: each part's JSON bytes, and its value decoded
    on first use.

    The parts are ``scenario``, ``provenance``, ``artifacts`` and the three
    artifact stages ``raw``, ``text`` and ``csv``.  A view over an entry in
    the layout :meth:`ResultStore.put` writes hands out :meth:`fragment`
    as slices of the stored bytes; a view over values (a result computed
    without a store) encodes them on demand.
    """

    __slots__ = ("digest", "_data", "_spans", "_values")

    def __init__(
        self,
        digest: str,
        data: bytes = b"",
        spans: Mapping[str, tuple[int, int]] | None = None,
        values: dict[str, Any] | None = None,
    ) -> None:
        self.digest = digest
        self._data = data
        self._spans = spans or {}
        self._values = values if values is not None else {}

    def fragment(self, part: str) -> bytes:
        """``part`` as compact JSON bytes."""
        span = self._spans.get(part)
        if span is not None:
            return self._data[span[0] : span[1]]
        return compact_json(self.value(part))

    def value(self, part: str) -> Any:
        """``part`` decoded (once)."""
        try:
            return self._values[part]
        except KeyError:
            pass
        span = self._spans[part]
        value = self._values[part] = json.loads(self._data[span[0] : span[1]])
        return value


def parse_entry(
    data: bytes, digest: str, schema_version: int = SCHEMA_VERSION
) -> EntryView:
    """Validate the stored entry for ``digest``, or raise
    :class:`EntryError` — the one reader behind every store read and
    listing.

    The entry is checked by its layout, its byte lengths and its sha256,
    and nothing is decoded
    (:func:`~repro.scenarios.backends.base.entry_spans`).  A read trusts
    the digest in the entry's head; it does not hash the spec.
    """
    return EntryView(digest, data, entry_spans(data, digest, schema_version))


@functools.lru_cache(maxsize=1)
def _code_rev() -> str | None:
    """The repo's short commit hash, when the package runs from a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


@dataclass(frozen=True)
class Provenance:
    """Where one stored entry came from — *metadata only*.

    Provenance is deliberately **outside** the content address: the digest
    covers the spec + schema version and nothing else, so re-computing the
    same scenario on another host, at another time, from another commit
    lands on the same entry (the property suite pins this down).  It exists
    to age-date and trace entries: ``cache stats`` and the serving daemon's
    ``/stats`` surface it, and :meth:`ResultStore.gc` documentation leans on
    ``created_unix`` for trajectory dashboards.  An entry stored with
    ``null`` or malformed provenance reads back as ``None`` — it is valid,
    just age-dated as oldest.
    """

    schema_version: int
    host: str
    created_unix: float
    code_rev: str | None = None
    wall_time_s: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "host": self.host,
            "created_unix": self.created_unix,
            "code_rev": self.code_rev,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "Provenance | None":
        """Read provenance back leniently: anything malformed is ``None``.

        An entry whose provenance is ``null`` or malformed must never be
        treated as corrupt — the artifacts are still good; only the
        age-dating is unavailable.
        """
        if not isinstance(data, Mapping):
            return None
        try:
            return cls(
                schema_version=int(data["schema_version"]),
                host=str(data["host"]),
                created_unix=float(data["created_unix"]),
                code_rev=(
                    str(data["code_rev"])
                    if data.get("code_rev") is not None
                    else None
                ),
                wall_time_s=(
                    float(data["wall_time_s"])
                    if data.get("wall_time_s") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError):
            return None


def current_provenance(wall_time_s: float | None = None) -> Provenance:
    """Provenance stamped by this process, right now."""
    return Provenance(
        schema_version=SCHEMA_VERSION,
        host=socket.gethostname(),
        created_unix=time.time(),
        code_rev=_code_rev(),
        wall_time_s=wall_time_s,
    )


def artifact_payload(result: ScenarioResult) -> dict[str, Any]:
    """The cacheable artifact stages of one scenario result.

    ``raw`` is the spec + per-point extracted values (the ``_raw.json``
    stage), ``text`` the rendered figure/table, ``csv`` the
    :meth:`~repro.analysis.sweep.SweepResult.to_csv_text` stage (grid
    scenarios only).  Everything is plain JSON data, so the payload survives
    the store round trip bit-exactly.
    """
    payload: dict[str, Any] = {
        "raw": result.to_raw(),
        "text": result.render(),
        "csv": None,
    }
    if result.sweep is not None:
        payload["csv"] = result.extracted_sweep().to_csv_text()
    return payload


@dataclass(frozen=True)
class StoredResult:
    """An artifact-backed scenario result (cold-computed or cache-replayed).

    Both paths of :func:`run_cached` produce this type, so consumers — the
    CLI, the batch runner, the golden-fixture tests — see one interface
    whether the numbers were just computed or replayed from a backend.  The
    extracted series are read back out of the raw payload; the full report
    objects are intentionally *not* carried (a cache replay never builds
    them).  A replayed stage is decoded from the entry bytes on first use,
    so a caller that only forwards ``entry``'s bytes decodes nothing.
    """

    scenario: Scenario
    #: The entry's parts, as bytes and as values.
    entry: EntryView
    from_cache: bool = False

    @property
    def digest(self) -> str:
        return self.entry.digest

    @property
    def raw(self) -> Mapping[str, Any]:
        return self.entry.value("raw")

    @property
    def text(self) -> str:
        return self.entry.value("text")

    @property
    def csv(self) -> str | None:
        return self.entry.value("csv")

    @property
    def provenance(self) -> Provenance | None:
        """Entry metadata (host, wall time, code rev); ``None`` for
        uncached results and entries without provenance.  Never part of
        the digest."""
        return Provenance.from_dict(self.entry.value("provenance"))

    # -- artifact stages ----------------------------------------------------
    def render(self) -> str:
        """The rendered text figure/table (identical to the cold render)."""
        return self.text

    def to_raw(self) -> Mapping[str, Any]:
        """The raw-JSON stage (spec + per-point values)."""
        return self.raw

    def raw_json(self) -> str:
        """The exact bytes of the ``<name>_raw.json`` artifact."""
        return json.dumps(self.raw, indent=2) + "\n"

    def write_artifacts(self, out_dir: str | Path) -> list[Path]:
        """Write the staged raw-JSON → CSV → text pipeline into ``out_dir``."""
        directory = Path(out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        name = self.scenario.name
        written = []

        raw_path = directory / f"{name}_raw.json"
        raw_path.write_text(self.raw_json())
        written.append(raw_path)

        if self.csv is not None:
            csv_path = directory / f"{name}.csv"
            with open(csv_path, "w", newline="") as handle:
                handle.write(self.csv)
            written.append(csv_path)

        text_path = directory / f"{name}.txt"
        text_path.write_text(self.text + "\n")
        written.append(text_path)
        return written

    # -- series views (mirror ScenarioResult's accessors) -------------------
    def series(self, name: str) -> tuple[Any, ...]:
        """One named extractor's values across all points."""
        series = self.raw.get("series")
        if series is None or name not in series:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no series "
                f"{name!r}"
            )
        return tuple(series[name])

    def all_series(self) -> dict[str, tuple[Any, ...]]:
        """Every extracted series, keyed by extractor name."""
        return {
            name: tuple(values)
            for name, values in self.raw.get("series", {}).items()
        }

    def axis(self, name: str) -> tuple[Any, ...]:
        """The swept values of one grid axis."""
        points = self.raw.get("points")
        if not points:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no sweep points"
            )
        try:
            return tuple(point["params"][name] for point in points)
        except KeyError:
            raise ConfigError(
                f"stored result for {self.scenario.name!r} has no axis "
                f"{name!r}"
            ) from None


def stored_from_payload(
    scenario: Scenario,
    payload: Mapping[str, Any],
    digest: str,
    from_cache: bool = False,
    provenance: Provenance | None = None,
) -> StoredResult:
    """Wrap an artifact payload as a :class:`StoredResult` view."""
    return StoredResult(
        scenario,
        EntryView(digest, values=_entry_values(None, payload, provenance)),
        from_cache,
    )


def _entry_values(
    scenario: Scenario | None,
    payload: Mapping[str, Any],
    provenance: Provenance | None,
) -> dict[str, Any]:
    """An entry's parts as values (``scenario`` only when given)."""
    artifacts = {
        "raw": payload["raw"],
        "text": payload["text"],
        "csv": payload.get("csv"),
    }
    values = {
        **artifacts,
        "artifacts": artifacts,
        "provenance": provenance.to_dict() if provenance else None,
    }
    if scenario is not None:
        values["scenario"] = scenario.to_dict()
    return values


@dataclass
class StoreStats:
    """Store traffic counters (process-lifetime, per :class:`ResultStore`)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    invalidations: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_dict(self) -> dict[str, Any]:
        """Plain-data view (the serving daemon's ``/stats`` payload)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "invalidations": self.invalidations,
            "corrupt": self.corrupt,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True)
class StoreEntry:
    """Stored metadata of one cached result (the ``cache stats`` view)."""

    digest: str
    name: str
    kind: str
    #: Entry file, for filesystem-backed entries; ``None`` on ``mem://``.
    path: Path | None
    size_bytes: int
    #: Last-use time (LRU position): ``put`` writes it, a ``get`` hit
    #: refreshes it, :meth:`ResultStore.gc` evicts ascending.
    mtime: float = 0.0
    #: ``None`` for entries without provenance — valid, age-dated as
    #: oldest.
    provenance: Provenance | None = None

    @property
    def created_unix(self) -> float:
        """Creation time for age-dating; missing provenance ⇒ oldest (0)."""
        return self.provenance.created_unix if self.provenance else 0.0


class ResultStore:
    """Content-addressed cache of scenario results over one backend.

    ``get`` / ``put`` / ``invalidate`` key on :func:`scenario_digest`; a
    corrupted or foreign entry (truncated write, damaged bytes, another
    digest's or schema's entry, anything not in ``put``'s layout) is
    counted, removed best-effort and reported as a miss, so the caller
    always falls back to recompute.

    The backend is named by the one ``location`` argument: a plain path
    (or nothing) builds a plain local cache directory; a URL string
    (``mem://``, ``file:///path?max_bytes=N&max_entries=N``,
    comma-separated tiers) routes through
    :func:`~repro.scenarios.backends.url.backend_from_url`; anything else
    is taken as a ready-built
    :class:`~repro.scenarios.backends.base.StoreBackend`.

    Eviction: the URL's ``max_bytes`` / ``max_entries`` cap a backend with
    LRU semantics over entry mtimes — ``put`` stamps one, a ``get`` hit
    refreshes it.  A capped backend holds its caps on every write (each
    tier of a tiered stack its own), and :meth:`gc` (CLI ``cache gc``)
    drops the least-recently-used entries on demand.

    Every instance is safe to share across threads, and many processes may
    point at one cache dir: writes are atomic, readers treat torn/competing
    state as a miss and self-heal.
    """

    def __init__(
        self,
        location: "str | Path | StoreBackend | None" = None,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        if isinstance(location, str) and is_store_url(location):
            location = backend_from_url(location)
        elif location is None or isinstance(location, (str, os.PathLike)):
            location = LocalFSBackend(
                Path(location) if location else default_cache_dir()
            )
        self.backend: StoreBackend = location
        self.schema_version = schema_version
        self.stats = StoreStats()
        #: Guards counter updates only — backend I/O itself needs no lock
        #: here (atomic writes + validate-on-read), and must not hold one,
        #: or warm readers would serialize behind each other.
        self._stats_lock = threading.Lock()

    # -- backend pass-throughs ----------------------------------------------
    @property
    def url(self) -> str:
        """The backend's URL-style address (the ``--cache`` syntax)."""
        return self.backend.url

    @property
    def cache_dir(self) -> Path | None:
        """The backing directory, when the backend has one (``mem://``
        stores have no filesystem presence)."""
        return getattr(self.backend, "cache_dir", None)

    # -- addressing ---------------------------------------------------------
    def digest(self, scenario: Scenario) -> str:
        """The content address of ``scenario`` under this store's schema."""
        return scenario_digest(scenario, self.schema_version)

    def path_for(self, scenario: Scenario) -> Path:
        """The entry file a scenario's result lives in; only meaningful on
        filesystem-backed stores."""
        return self._path_for_digest(self.digest(scenario))

    def _path_for_digest(self, digest: str) -> Path:
        path_for_digest = getattr(self.backend, "path_for_digest", None)
        if path_for_digest is None:
            raise ConfigError(
                f"store backend {self.url!r} has no filesystem paths"
            )
        return path_for_digest(digest)

    # -- traffic ------------------------------------------------------------
    def get(
        self, scenario: Scenario, *, _digest: str | None = None
    ) -> StoredResult | None:
        """The stored result, or ``None`` (miss *or* unusable entry).

        ``_digest`` is for callers that already hold
        ``self.digest(scenario)``."""
        digest = self.digest(scenario) if _digest is None else _digest
        entry = self._read_entry(digest)
        if entry is None:
            return None
        return StoredResult(scenario, entry, from_cache=True)

    def read_digest(self, digest: str) -> EntryView | None:
        """One entry by bare content address (the ``/results/<digest>``
        route): the validated entry, or ``None``.

        Raises :class:`~repro.errors.ConfigError` on a malformed digest so
        callers can distinguish a bad request from a plain miss.
        """
        digest = digest.lower()
        if not is_digest(digest):
            raise ConfigError(
                f"malformed result digest {digest!r}: expected 64 hex chars"
            )
        return self._read_entry(digest)

    def _read_entry(self, digest: str) -> EntryView | None:
        """Load + validate one entry by digest; counts hit/miss/corrupt.

        A copy damaged after ``put`` wrote it (``checksum-mismatch``) is
        discarded and the digest read once more, so an intact copy in a
        lower tier still serves."""
        for _ in range(2):
            try:
                data = self.backend.read(digest)
            except OSError:
                self._corrupt(digest)
                break
            if data is None:
                break
            try:
                entry = parse_entry(data, digest, self.schema_version)
            except EntryError as exc:
                if self._corrupt(digest) and exc.slug == "checksum-mismatch":
                    continue
                break
            with self._stats_lock:
                self.stats.hits += 1
            return entry
        with self._stats_lock:
            self.stats.misses += 1
        return None

    def contains(self, digest: str) -> bool:
        """Whether an entry exists for ``digest`` in the backend.

        A cheap existence probe — no read, no validation, no stats traffic.
        A ``True`` may still turn into a miss on the real ``get`` (corrupt
        entry), so use it only as a fast-path hint, never as a guarantee.
        """
        return self.backend.contains(digest)

    def _corrupt(self, digest: str) -> bool:
        """Count an unusable entry and heal it by discarding *the copy that
        was served* (a valid same-digest copy in another tier survives).
        ``True`` if a copy went."""
        with self._stats_lock:
            self.stats.corrupt += 1
        return self.backend.discard(digest)

    def put(
        self,
        scenario: Scenario,
        result: ScenarioResult | Mapping[str, Any],
        *,
        provenance: Provenance | None = None,
        wall_time_s: float | None = None,
        _digest: str | None = None,
    ) -> StoredResult:
        """Store a result (or a pre-built artifact payload) and return the
        stored view.

        The write is atomic per backend contract, so a reader never sees a
        half-written entry even with many processes hammering one digest.
        Each entry is stamped with :class:`Provenance` (``provenance``
        overrides, ``wall_time_s`` annotates the default stamp); provenance
        never feeds the digest.  A capped backend holds its caps on the
        write itself.  ``_digest`` is as in :meth:`get`.
        """
        if isinstance(result, ScenarioResult):
            payload: Mapping[str, Any] = artifact_payload(result)
        else:
            payload = result
        digest = self.digest(scenario) if _digest is None else _digest
        if provenance is None:
            provenance = current_provenance(wall_time_s)
        values = _entry_values(scenario, payload, provenance)
        data, spans = encode_entry(
            digest,
            self.schema_version,
            [compact_json(values[part]) for part in ENTRY_PARTS],
        )
        self.backend.write(digest, data)
        with self._stats_lock:
            self.stats.puts += 1
        return StoredResult(scenario, EntryView(digest, data, spans, values))

    def invalidate(self, scenario: Scenario) -> bool:
        """Drop one scenario's entry; ``True`` if something was removed."""
        removed = self.backend.delete(self.digest(scenario))
        if removed:
            with self._stats_lock:
                self.stats.invalidations += 1
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were dropped."""
        removed = self.backend.clear()
        with self._stats_lock:
            self.stats.invalidations += removed
        return removed

    # -- eviction -----------------------------------------------------------
    def gc(
        self, max_bytes: int | None = None, max_entries: int | None = None
    ) -> list[str]:
        """Enforce the size caps by LRU eviction; returns evicted digests.

        Entries are ordered by last use (``put`` stamps, ``get`` refreshes)
        and the least recently used are dropped until both caps hold.
        Explicit arguments override the backend's configured caps for this
        call; with no cap at all this only sweeps stale temp files on
        filesystem backends.  On a tiered backend the caps apply per
        tier.  Each evicting backend counts its own
        ``counters.evictions``.
        """
        return self.backend.gc(max_bytes, max_entries)

    # -- introspection ------------------------------------------------------
    def _entry_paths(self) -> list[Path]:
        """Entry files of a filesystem-backed store (test/diagnostic hook)."""
        entry_paths = getattr(self.backend, "_entry_paths", None)
        if entry_paths is not None:
            return entry_paths()
        return [
            entry.path
            for entry in self.backend.entries()
            if entry.path is not None
        ]

    @property
    def n_entries(self) -> int:
        """Entries currently stored."""
        return self.disk_usage()[0]

    @property
    def total_bytes(self) -> int:
        """Total stored size of all entries."""
        return self.disk_usage()[1]

    def disk_usage(self) -> tuple[int, int]:
        """``(n_entries, total_bytes)`` in a single backend scan — what a
        polled monitoring endpoint should call instead of reading the two
        properties (and scanning twice)."""
        totals = entry_totals(self.backend.entries())
        return totals["n_entries"], totals["total_bytes"]

    def entries(self) -> Iterator[StoreEntry]:
        """Stored metadata per entry; an entry :meth:`get` would reject is
        skipped.

        Each entry is validated by the one reader (:func:`parse_entry`),
        and only its scenario and provenance are decoded.  Reads are side-
        effect free — the entry file discovered by the backend scan is
        read directly when it has a path, falling back to the backend's
        ``peek`` for path-less backends — so introspection never perturbs
        LRU positions or hit/miss counters.
        """
        for backend_entry in self.backend.entries():
            digest = backend_entry.digest
            if backend_entry.path is not None:
                try:
                    data = backend_entry.path.read_bytes()
                except OSError:
                    continue
            else:
                data = self.backend.peek(digest)
            if data is None:
                continue
            try:
                entry = parse_entry(data, digest, self.schema_version)
                scenario = entry.value("scenario")
                yield StoreEntry(
                    digest=digest,
                    name=scenario["name"],
                    kind=scenario["kind"],
                    path=backend_entry.path,
                    size_bytes=backend_entry.size_bytes,
                    mtime=backend_entry.mtime,
                    provenance=Provenance.from_dict(entry.value("provenance")),
                )
            except (ValueError, KeyError, TypeError):  # EntryError included
                continue


def provenance_summary(entries: Iterable[StoreEntry]) -> dict[str, Any]:
    """Age and origin of ``entries`` from their provenance stamps — the
    one summary behind ``/stats`` → ``store.provenance`` and the CLI's
    ``cache stats``, so both audit surfaces report the same numbers.

    Oldest/newest/median run over *stamped* entries only: the
    ``created_unix=0.0`` age-dating sentinel of entries without provenance
    must not leak a fabricated 1970 timestamp into a dashboard.
    """
    # Imported here: statistics pulls decimal and fractions in with it,
    # which no cold compute or warm read should pay for.
    import statistics

    entries = list(entries)
    stamped = [e.provenance for e in entries if e.provenance is not None]
    stamps = sorted(p.created_unix for p in stamped)
    return {
        "entries_scanned": len(entries),
        "entries_with_provenance": len(stamped),
        "entries_missing_provenance": len(entries) - len(stamped),
        "oldest_created_unix": stamps[0] if stamps else None,
        "newest_created_unix": stamps[-1] if stamps else None,
        "median_created_unix": statistics.median(stamps) if stamps else None,
        "hosts": sorted({p.host for p in stamped}),
        "code_revs": sorted(
            {p.code_rev for p in stamped if p.code_rev is not None}
        ),
    }


def run_cached(
    scenario: Scenario,
    store: "ResultStore | str | Path | StoreBackend | None" = None,
    *,
    use_cache: bool = True,
) -> StoredResult:
    """Run a scenario through the result store.

    ``store`` may be a :class:`ResultStore`, or anything that names one
    (a cache directory path, a backend URL — ``mem://``, ``file:///path``,
    tiers — or a backend object); ``None`` runs without a store.
    A URL builds a fresh store *per call* — fine for filesystem backends
    (the entries persist), pointless for a bare ``mem://`` (the tier dies
    with the call); to share an in-memory tier across calls, build one
    :class:`ResultStore` and pass it.
    A warm entry is a pure backend read (zero mappings, zero kernel
    timings); a miss computes via
    :func:`~repro.scenarios.runner.run_scenario` and stores the artifact
    payload.  ``use_cache=False`` bypasses the store in both directions —
    nothing is read *or* written (the CLI's ``--no-cache``).
    """
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    if store is None or not use_cache:
        schema = store.schema_version if store is not None else SCHEMA_VERSION
        digest = scenario_digest(scenario, schema)
        return _compute_and_store(scenario, digest, None)
    digest = store.digest(scenario)
    cached = store.get(scenario, _digest=digest)
    if cached is not None:
        return cached
    return _compute_and_store(scenario, digest, store)


def _compute_and_store(
    scenario: Scenario, digest: str, store: ResultStore | None
) -> StoredResult:
    """Compute one scenario and keep it in ``store``, if given (the one
    compute-and-store step of :func:`run_cached` and
    :func:`~repro.scenarios.batch.run_many`).  The entry's ``wall_time_s``
    spans the compute alone, not the render or the write."""
    t0 = time.perf_counter()
    result = run_scenario(scenario)
    wall_time_s = time.perf_counter() - t0
    if store is not None:
        return store.put(
            scenario, result, wall_time_s=wall_time_s, _digest=digest
        )
    return stored_from_payload(scenario, artifact_payload(result), digest)


__all__ = [
    "CACHE_DIR_ENV",
    "EntryError",
    "EntryView",
    "SCHEMA_VERSION",
    "STALE_TMP_SECONDS",
    "STORE_FORMAT",
    "Provenance",
    "ResultStore",
    "StoreEntry",
    "StoreStats",
    "StoredResult",
    "artifact_payload",
    "canonical_spec_json",
    "compact_json",
    "current_provenance",
    "default_cache_dir",
    "is_digest",
    "parse_entry",
    "provenance_summary",
    "run_cached",
    "scenario_digest",
    "stored_from_payload",
]
