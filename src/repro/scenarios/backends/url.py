"""URL-style store addressing, parsed in one place.

Every consumer of the result store — ``ResultStore``, ``run_cached``,
``run_many``, ``ServingApp``, and the CLI's ``--cache`` flag — accepts the
same address syntax:

=====================================  =====================================
``mem://``                             in-process byte-capped LRU hot tier
``mem://?max_bytes=N&max_entries=N``   … with explicit caps
``file:///var/cache/repro``            local cache directory
``file:///path?shard=1``               … with two-hex-prefix sharding
``file:///path?max_bytes=N``           … with LRU caps enforced on put/gc
``ro:///mnt/shared-mirror``            read-only mirror (never written)
``mem://,file:///path,ro:///mirror``   comma-separated tiers, hottest first
``/plain/path`` or ``rel/path``        bare paths stay plain cache dirs
=====================================  =====================================

Query parameters are validated strictly — an unknown key or a non-integer
cap raises :class:`~repro.errors.ConfigError` rather than silently running
with an unbounded store.  A scheme not in this table raises it too.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import parse_qsl, unquote, urlencode, urlsplit, urlunsplit

from repro.errors import ConfigError
from repro.scenarios.backends.base import StoreBackend
from repro.scenarios.backends.localfs import LocalFSBackend
from repro.scenarios.backends.memory import InMemoryBackend
from repro.scenarios.backends.mirror import ReadOnlyMirrorBackend
from repro.scenarios.backends.tiered import TieredStore

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off", ""}


def is_store_url(value: str) -> bool:
    """Whether a string is backend-URL addressing (vs a plain cache dir)."""
    return "://" in value


def _query_params(
    query: str, url: str, allowed: tuple[str, ...]
) -> dict[str, str]:
    params: dict[str, str] = {}
    for key, value in parse_qsl(query, keep_blank_values=True):
        if key not in allowed:
            raise ConfigError(
                f"unknown store-URL parameter {key!r} in {url!r} "
                f"(allowed: {', '.join(allowed) or 'none'})"
            )
        params[key] = value
    return params


def _int_param(params: dict[str, str], key: str, url: str) -> int | None:
    raw = params.get(key)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"store-URL parameter {key}={raw!r} in {url!r} is not an integer"
        ) from None
    if value < 0:
        raise ConfigError(
            f"store-URL parameter {key}={value} in {url!r} must be >= 0"
        )
    return value


def _bool_param(params: dict[str, str], key: str, url: str) -> bool:
    raw = params.get(key)
    if raw is None:
        return False
    lowered = raw.lower()
    if lowered in _TRUTHY:
        return True
    if lowered in _FALSY:
        return False
    raise ConfigError(
        f"store-URL parameter {key}={raw!r} in {url!r} is not a boolean "
        "(use 1/0, true/false, yes/no, on/off)"
    )


def _fs_root(split, url: str) -> Path:
    # file://cache/dir parses the first segment as a netloc; re-join it so
    # both file:///abs/path and file://relative/path address what they say.
    root = unquote((split.netloc or "") + split.path)
    if not root:
        raise ConfigError(f"store URL {url!r} names no directory")
    return Path(root)


def backend_from_url(url: str) -> StoreBackend:
    """Build the backend (or tier stack) one address names.

    A tier list accepts a stack-level ``write`` parameter on any tier
    (``mem://,file:///path?write=all``): ``first`` (default write-back —
    puts land in the first writable tier only) or ``all`` (write-through
    to every writable tier — durable daemon puts).
    """
    url = url.strip()
    if not url:
        raise ConfigError("empty store URL")
    parts = [part.strip() for part in url.split(",")]
    if len(parts) > 1:
        if any(not part for part in parts):
            raise ConfigError(f"store URL {url!r} has an empty tier")
        # A tier list is schemes-only: a bare path containing a comma must
        # never be silently misparsed into bogus tiers (percent-encode a
        # literal comma in a path as %2C — file:// paths are unquoted).
        schemeless = [part for part in parts if not is_store_url(part)]
        if schemeless:
            raise ConfigError(
                f"store URL {url!r} looks like a tier list but "
                f"{schemeless[0]!r} has no scheme; every tier needs one "
                "(mem://, file://, ro://) — "
                "percent-encode a literal comma in a path as %2C"
            )
        policies: list[str] = []
        tiers = []
        for part in parts:
            part, policy = _split_write_param(part)
            if policy is not None:
                policies.append(policy)
            tiers.append(_single_backend(part))
        if len(set(policies)) > 1:
            raise ConfigError(
                f"store URL {url!r} names conflicting write policies "
                f"{sorted(set(policies))}"
            )
        if policies and policies[0] not in ("first", "all"):
            raise ConfigError(
                f"unknown tiered write policy {policies[0]!r} in {url!r} "
                "(known: 'first', 'all')"
            )
        return TieredStore(
            tiers, write_policy=policies[0] if policies else "first"
        )
    return _single_backend(parts[0])


def _split_write_param(url: str) -> tuple[str, str | None]:
    """Strip the stack-level ``write=`` parameter off one tier URL."""
    if "?" not in url:
        return url, None
    split = urlsplit(url)
    pairs = parse_qsl(split.query, keep_blank_values=True)
    policies = [value for key, value in pairs if key == "write"]
    if not policies:
        return url, None
    rest = urlencode([(k, v) for k, v in pairs if k != "write"])
    return urlunsplit(split._replace(query=rest)), policies[-1]


def _single_backend(url: str) -> StoreBackend:
    if not is_store_url(url):
        # Bare paths are plain cache directories, so every --cache-dir
        # value is also a valid --cache value.
        return LocalFSBackend(Path(url))
    split = urlsplit(url)
    scheme = split.scheme.lower()
    if split.fragment:
        raise ConfigError(f"store URL {url!r} must not carry a fragment")
    if scheme == "mem":
        params = _query_params(
            split.query, url, ("max_bytes", "max_entries")
        )
        kwargs = {}
        max_bytes = _int_param(params, "max_bytes", url)
        if "max_bytes" in params:
            kwargs["max_bytes"] = max_bytes
        return InMemoryBackend(
            max_entries=_int_param(params, "max_entries", url), **kwargs
        )
    if scheme == "file":
        params = _query_params(
            split.query, url, ("shard", "max_bytes", "max_entries")
        )
        return LocalFSBackend(
            _fs_root(split, url),
            shard=_bool_param(params, "shard", url),
            max_bytes=_int_param(params, "max_bytes", url),
            max_entries=_int_param(params, "max_entries", url),
        )
    if scheme == "ro":
        _query_params(split.query, url, ())
        return ReadOnlyMirrorBackend(_fs_root(split, url))
    raise ConfigError(
        f"unknown store-URL scheme {scheme!r} in {url!r} "
        "(known: mem://, file://, ro://, and comma-separated tiers)"
    )


__all__ = ["backend_from_url", "is_store_url"]
