"""Pluggable tiered storage backends for the content-addressed result store.

One address scheme (the sha256 spec digest), a few places the bytes can
live: a local cache directory (``file://``), an in-process byte-capped LRU
(``mem://``), or a read-through tier stack (``mem://,file:///path``).  See
:mod:`repro.scenarios.backends.base` for the contract and
:mod:`repro.scenarios.backends.url` for the address syntax every store
consumer accepts.
"""

from repro.scenarios.backends.base import (
    STORE_FORMAT,
    BackendEntry,
    BackendStats,
    StoreBackend,
    plausible_entry,
)
from repro.scenarios.backends.localfs import LocalFSBackend
from repro.scenarios.backends.memory import DEFAULT_MEM_MAX_BYTES, InMemoryBackend
from repro.scenarios.backends.tiered import TieredStore
from repro.scenarios.backends.url import backend_from_url, is_store_url

__all__ = [
    "DEFAULT_MEM_MAX_BYTES",
    "STORE_FORMAT",
    "BackendEntry",
    "BackendStats",
    "InMemoryBackend",
    "LocalFSBackend",
    "StoreBackend",
    "TieredStore",
    "backend_from_url",
    "is_store_url",
    "plausible_entry",
]
