"""URL-style store addressing, parsed in one place.

Every consumer of the result store — ``ResultStore``, ``run_cached``,
``run_many``, ``ServingApp``, and the CLI's ``--cache`` flag — accepts the
same address syntax:

=====================================  =====================================
``mem://``                             in-process byte-capped LRU hot tier
``mem://?max_bytes=N&max_entries=N``   … with explicit caps
``file:///var/cache/repro``            local cache directory
``file:///path?max_bytes=N``           … with LRU caps enforced on put/gc
``mem://,file:///path``                comma-separated tiers, hottest first
``/plain/path`` or ``rel/path``        bare paths stay plain cache dirs
=====================================  =====================================

Query parameters are validated strictly — an unknown key or a non-integer
cap raises :class:`~repro.errors.ConfigError` rather than silently running
with an unbounded store.  A scheme not in this table raises it too.
"""

from __future__ import annotations

from pathlib import Path
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ConfigError
from repro.scenarios.backends.base import StoreBackend
from repro.scenarios.backends.localfs import LocalFSBackend
from repro.scenarios.backends.memory import InMemoryBackend
from repro.scenarios.backends.tiered import TieredStore


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


def _fs_root(split, url: str) -> Path:
    # file://cache/dir parses the first segment as a netloc; re-join it so
    # both file:///abs/path and file://relative/path address what they say.
    root = unquote((split.netloc or "") + split.path)
    if not root:
        raise ConfigError(f"store URL {url!r} names no directory")
    return Path(root)


def backend_from_url(url: str) -> StoreBackend:
    """Build the backend (or tier stack) one address names."""
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
                "(mem://, file://) — percent-encode a literal comma in a "
                "path as %2C"
            )
        return TieredStore(_single_backend(part) for part in parts)
    return _single_backend(parts[0])


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
        params = _query_params(split.query, url, ("max_bytes", "max_entries"))
        return LocalFSBackend(
            _fs_root(split, url),
            max_bytes=_int_param(params, "max_bytes", url),
            max_entries=_int_param(params, "max_entries", url),
        )
    raise ConfigError(
        f"unknown store-URL scheme {scheme!r} in {url!r} "
        "(known: mem://, file://, and comma-separated tiers)"
    )


__all__ = ["backend_from_url", "is_store_url"]
