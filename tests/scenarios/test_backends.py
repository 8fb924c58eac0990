"""Backend conformance suite: one contract, every backend.

The same put/get round-trip, listing, LRU eviction order, corrupt-entry
handling and digest-stability checks run against ``LocalFSBackend``
(plain and capped), ``InMemoryBackend`` (default and capped) and
``TieredStore`` stacks of two and three tiers — any backend that passes
serves byte-identical artifacts through the front-end.  Tier-specific
policies (promotion, write-back, tiers that raise, hostile entry files),
the one-file miss of a cache dir and the URL address syntax are pinned
separately below.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.arch.config import SystemConfig
from repro.errors import ConfigError
from repro.scenarios import Scenario
from repro.scenarios.backends import (
    InMemoryBackend,
    LocalFSBackend,
    TieredStore,
    backend_from_url,
    is_store_url,
)
from repro.scenarios.backends.base import (
    ENTRY_PARTS,
    EntryError,
    encode_entry,
    entry_head,
    entry_spans,
)
from repro.scenarios.store import (
    ResultStore,
    compact_json,
    parse_entry,
    run_cached,
)


def tiny_scenario(name: str = "backend-test") -> Scenario:
    """A cheap spec for store-mechanics tests (never actually run)."""
    return (
        Scenario.builder(name, "backend conformance spec")
        .training("GPT3-76.1B", batch=16)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .extracting("time_per_batch")
        .build()
    )


def payload(tag: str = "x") -> dict:
    return {"raw": {"series": {}, "tag": tag}, "text": tag, "csv": None}


def restamp(store: ResultStore, scenario: Scenario, provenance) -> None:
    """Re-lay the stored entry of ``scenario`` out as ``put`` does, with
    ``provenance`` (any JSON value) in place of its stamp."""
    digest = store.digest(scenario)
    view = parse_entry(store.backend.peek(digest), digest)
    chunks = [
        compact_json(provenance)
        if part == "provenance"
        else view.fragment(part)
        for part in ENTRY_PARTS
    ]
    data, _ = encode_entry(digest, chunks)
    store.backend.write(digest, data)


def entry_bytes(digest: str, tag: str = "raw") -> bytes:
    """Small entry bytes in ``put``'s layout for raw-backend byte
    round-trips."""
    text = json.dumps(tag).encode()
    chunks = (b'{"name":%s}' % text, b"null", b"{}", text, b"null")
    return encode_entry(digest, chunks)[0]


#: Store URLs for the conformance configurations that are spelled as a
#: URL (``{root}`` is the test's temporary directory).  Each cap is far
#: above what a conformance test stores, so a cap never evicts here:
#: a capped backend under its caps must behave like an uncapped one.
CONFORMANCE_URLS = {
    # Cache dir whose LRU caps are enforced on every put.
    "file-capped": "file://{root}/capped?max_entries=1000&max_bytes=10000000",
    # Hot tier with explicit caps.
    "mem-capped": "mem://?max_bytes=10000000&max_entries=1000",
    # The serving benchmark's stack: a byte-capped hot tier over a dir.
    "bounded-stack": "mem://?max_bytes=10000000,file://{root}/stack",
    # Three tiers: reads go through two levels of promotion.
    "deep": "mem://,file://{root}/warm,file://{root}/cold",
}

BACKENDS = ("file", "mem", "tiered", *CONFORMANCE_URLS)


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One instance of each conformance-suite backend."""
    if request.param == "file":
        return LocalFSBackend(tmp_path / "fs")
    if request.param == "mem":
        return InMemoryBackend()
    if request.param == "tiered":
        return TieredStore(
            [InMemoryBackend(), LocalFSBackend(tmp_path / "tier-fs")]
        )
    return backend_from_url(
        CONFORMANCE_URLS[request.param].format(root=tmp_path)
    )


@pytest.fixture
def store(backend):
    return ResultStore(backend)


class TestConformancePutGet:
    def test_put_get_round_trip(self, store):
        scenario = tiny_scenario()
        assert store.get(scenario) is None
        stored = store.put(scenario, payload("round-trip"))
        warm = store.get(scenario)
        assert warm is not None and warm.from_cache
        assert warm.text == "round-trip"
        assert warm.digest == stored.digest == store.digest(scenario)
        assert warm.raw == {"series": {}, "tag": "round-trip"}
        assert warm.provenance == stored.provenance
        assert store.stats.hits == 1 and store.stats.misses == 1

    def test_raw_byte_round_trip(self, backend):
        digest = "ab" * 32
        assert backend.read(digest) is None
        assert not backend.contains(digest)
        data = entry_bytes(digest)
        backend.write(digest, data)
        assert backend.contains(digest)
        assert backend.read(digest) == data
        assert backend.peek(digest) == data
        assert backend.discard(digest)
        assert not backend.contains(digest)
        assert backend.read(digest) is None

    def test_clear(self, store):
        a, b = tiny_scenario("clear-a"), tiny_scenario("clear-b")
        store.put(a, payload())
        store.put(b, payload())
        assert store.disk_usage()[0] == 2
        assert store.clear() == 2
        assert store.clear() == 0  # already gone
        assert store.disk_usage() == (0, 0)

    def test_discard_drops_one_entry_and_keeps_the_other(self, store):
        """``discard`` (the corrupt heal) is the one way to remove a single
        entry: it drops that digest, counts one delete, and leaves every
        other entry readable and listed."""
        a, b = tiny_scenario("discard-a"), tiny_scenario("discard-b")
        store.put(a, payload("a"))
        store.put(b, payload("b"))
        backend = store.backend
        assert backend.discard(store.digest(a))
        assert not backend.discard(store.digest(a))  # already gone
        assert backend.counters.deletes == 1
        assert store.get(a) is None
        kept = store.get(b)
        assert kept is not None and kept.text == "b"
        assert [entry.name for entry in store.entries()] == ["discard-b"]
        assert store.clear() == 1

    def test_entries_metadata_without_stats_traffic(self, store):
        scenario = tiny_scenario("meta")
        store.put(scenario, payload())
        lookups = store.stats.lookups
        (entry,) = store.entries()
        assert entry.name == "meta"
        assert entry.kind == "training"
        assert entry.digest == store.digest(scenario)
        assert entry.size_bytes > 0
        assert store.contains(entry.digest)
        # Introspection peeks and probes: no hit/miss traffic, no LRU
        # refresh.
        assert store.stats.lookups == lookups


class TestConformanceListing:
    """``entries()`` (behind ``cache stats`` and ``/stats``) reads each
    entry as ``get`` does, and decodes only what it lists."""

    def test_a_listed_entry_decodes_only_scenario_and_provenance(
        self, store, backend, monkeypatch
    ):
        scenario = tiny_scenario("listed")
        store.put(scenario, payload("listed"))
        digest = store.digest(scenario)
        data = backend.peek(digest)
        view = parse_entry(data, digest)
        decoded = []
        loads = json.loads

        def recording_loads(text, *args, **kwargs):
            decoded.append(len(text))
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", recording_loads)
        (entry,) = store.entries()
        assert (entry.name, entry.kind) == ("listed", "training")
        assert entry.provenance is not None
        assert sorted(decoded) == sorted(
            len(view.fragment(part)) for part in ("scenario", "provenance")
        )
        assert sum(decoded) < len(data)

    def test_a_damaged_entry_is_skipped_as_get_misses_it(
        self, store, backend
    ):
        scenario = tiny_scenario("damaged-listing")
        store.put(scenario, payload("text 12345"))
        digest = store.digest(scenario)
        good = backend.peek(digest)
        text_start, _ = entry_spans(good, digest)["text"]
        at = good.index(b"1", text_start)
        damaged = good[:at] + b"9" + good[at + 1 :]  # one digit flipped
        backend.write(digest, damaged)
        assert list(store.entries()) == []
        assert store.get(scenario) is None
        skipped = backend.stats()["counters"]["corrupt_skipped"]
        assert store.stats.corrupt + skipped == 1

    @pytest.mark.parametrize(
        "config, torn",
        [("bounded-stack", 0), ("deep", 0), ("deep", 1)],
        ids=["bounded-stack", "deep-mem", "deep-warm"],
    )
    def test_a_torn_upper_copy_is_listed_past_as_get_reads_past_it(
        self, tmp_path, config, torn
    ):
        """A torn copy in a tier above an intact one hides nothing: the
        listing reads past it to the copy ``get`` serves, and leaves it
        in place."""
        url = CONFORMANCE_URLS[config].format(root=tmp_path)
        backend = backend_from_url(url)
        store = ResultStore(backend)
        scenario = tiny_scenario("listed-past")
        digest = store.digest(scenario)
        ResultStore(backend.tiers[-1]).put(scenario, payload("durable"))
        durable = backend.tiers[-1].peek(digest)
        backend.tiers[torn].write(digest, b"{ torn upper copy")
        (entry,) = store.entries()
        assert (entry.digest, entry.name) == (digest, "listed-past")
        assert entry.size_bytes == len(durable)
        assert store.disk_usage()[0] == 1
        assert backend.tiers[torn].peek(digest) == b"{ torn upper copy"
        hit = store.get(scenario)
        assert hit is not None and hit.text == "durable"

    @pytest.mark.parametrize(
        "config, damaged",
        [("bounded-stack", 0), ("deep", 0), ("deep", 1)],
        ids=["bounded-stack", "deep-mem", "deep-warm"],
    )
    def test_a_value_damaged_upper_copy_is_listed_past_before_any_get(
        self, tmp_path, config, damaged
    ):
        """An upper copy with one digit of a value changed keeps the first
        and last bytes the tiers' plausibility probe checks, but fails
        the front-end's checksum: the listing reads past it to the intact
        copy below at once, not only after a ``get`` has discarded it."""
        url = CONFORMANCE_URLS[config].format(root=tmp_path)
        backend = backend_from_url(url)
        store = ResultStore(backend)
        scenario = tiny_scenario("listed-past-damage")
        digest = store.digest(scenario)
        ResultStore(backend.tiers[-1]).put(scenario, payload("durable 12345"))
        durable = backend.tiers[-1].peek(digest)
        at = durable.index(b"1", entry_spans(durable, digest)["text"][0])
        bad = durable[:at] + b"9" + durable[at + 1 :]
        backend.tiers[damaged].write(digest, bad)
        (entry,) = store.entries()
        assert (entry.digest, entry.name) == (digest, "listed-past-damage")
        assert entry.size_bytes == len(durable)
        assert backend.peek(digest) == durable
        assert backend.tiers[damaged].peek(digest) == bad  # left in place
        hit = store.get(scenario)
        assert hit is not None and hit.text == "durable 12345"


class TestConformanceLRU:
    def test_eviction_is_least_recently_used_first(self, store):
        scenarios = []
        for i in range(4):
            scenario = tiny_scenario(f"lru-{i}")
            store.put(scenario, payload(str(i)))
            scenarios.append(scenario)
            time.sleep(0.02)  # mtimes must not tie on coarse fs clocks
        # Touch the oldest: it must now outlive entry 1.
        assert store.get(scenarios[0]) is not None
        time.sleep(0.02)
        evicted = store.gc(max_entries=2)
        assert len(evicted) == 2
        assert set(evicted) == {
            store.digest(scenarios[1]),
            store.digest(scenarios[2]),
        }
        assert store.get(scenarios[0]) is not None
        assert store.get(scenarios[3]) is not None

    def test_byte_cap_empties_down(self, store):
        for i in range(3):
            store.put(tiny_scenario(f"bytes-{i}"), payload(str(i)))
            time.sleep(0.02)
        assert len(store.gc(max_bytes=0)) == 3
        assert store.disk_usage()[0] == 0


class TestConformanceCorruption:
    def test_torn_entry_is_a_miss_and_is_dropped(self, store, backend):
        scenario = tiny_scenario("torn")
        store.put(scenario, payload("good"))
        digest = store.digest(scenario)
        backend.write(digest, b"{ torn not json")
        assert store.get(scenario) is None
        # The unusable entry was counted (front-end or in-tier) and healed.
        skipped = backend.stats()["counters"]["corrupt_skipped"]
        assert store.stats.corrupt + skipped >= 1
        assert not backend.contains(digest)
        # The store recovers on the next put.
        store.put(scenario, payload("healed"))
        assert store.get(scenario).text == "healed"

    def test_foreign_payload_is_rejected(self, store, backend):
        scenario = tiny_scenario("foreign")
        store.put(scenario, payload())
        backend.write(
            store.digest(scenario),
            json.dumps({"format": "something-else"}).encode(),
        )
        assert store.get(scenario) is None

    def test_digest_mismatch_is_rejected(self, store, backend):
        scenario, impostor = tiny_scenario("real"), tiny_scenario("fake")
        store.put(scenario, payload())
        backend.write(
            store.digest(scenario),
            entry_bytes(store.digest(impostor)),
        )
        assert store.get(scenario) is None

    def test_a_json_dumps_entry_is_an_invalid_miss_healed_by_a_rerun(
        self, store, backend
    ):
        """An entry re-serialized with plain ``json.dumps``, every field
        right, is not in ``put``'s layout: an ``invalid-entry`` corrupt
        miss, healed, and rewritten in ``put``'s layout by the rerun."""
        scenario = tiny_scenario("re-dumped")
        digest = store.digest(scenario)
        store.put(scenario, payload("as-put"))
        good = backend.peek(digest)
        redumped = json.dumps(json.loads(good)).encode()
        assert json.loads(redumped) == json.loads(good)
        with pytest.raises(EntryError) as rejected:
            parse_entry(redumped, digest)
        assert rejected.value.slug == "invalid-entry"

        backend.write(digest, redumped)
        assert store.get(scenario) is None
        skipped = backend.stats()["counters"]["corrupt_skipped"]
        assert store.stats.corrupt + skipped == 1
        assert not backend.contains(digest)  # healed

        rerun = run_cached(scenario, store)
        assert not rerun.from_cache
        rewritten = backend.peek(digest)
        assert rewritten.startswith(entry_head(digest))
        assert parse_entry(rewritten, digest).value("text") == rerun.text
        assert store.get(scenario).from_cache


class TestDigestIgnoresStorageMetadata:
    def test_same_digest_and_artifacts_across_backends(self, tmp_path):
        """Where an entry lives (and its storage metadata) never feeds the
        content address: every backend serves the same digest and the same
        artifact bytes."""
        scenario = tiny_scenario("portable")
        stores = [
            ResultStore(LocalFSBackend(tmp_path / "a")),
            ResultStore(InMemoryBackend()),
            ResultStore(
                TieredStore(
                    [InMemoryBackend(), LocalFSBackend(tmp_path / "b")]
                )
            ),
        ]
        views = [store.put(scenario, payload("portable")) for store in stores]
        digests = {view.digest for view in views}
        assert len(digests) == 1
        warm = [store.get(scenario) for store in stores]
        assert len({w.raw_json() for w in warm}) == 1
        assert len({w.render() for w in warm}) == 1


class TestInMemoryBackend:
    def test_byte_cap_evicts_inline_on_write(self):
        digests = [f"{i:064x}" for i in range(4)]
        entry_size = len(entry_bytes(digests[0]))
        backend = InMemoryBackend(max_bytes=3 * entry_size)
        for digest in digests:
            backend.write(digest, entry_bytes(digest))
        # Four same-size entries against a three-entry budget: LRU went
        # first, inline on the write that overflowed.
        assert not backend.contains(digests[0])
        assert all(backend.contains(d) for d in digests[1:])
        assert backend.stats()["counters"]["evictions"] == 1
        assert backend.stats()["total_bytes"] <= 3 * entry_size

    def test_entry_cap(self):
        backend = InMemoryBackend(max_entries=2)
        digests = [f"{i:064x}" for i in range(3)]
        for digest in digests:
            backend.write(digest, entry_bytes(digest))
        assert [d for d in digests if backend.contains(d)] == digests[1:]

    def test_oversized_entry_is_refused_not_admitted(self):
        """One entry bigger than the whole budget must never drain the
        hot tier on its way to being evicted anyway."""
        small = "0" * 64
        backend = InMemoryBackend(max_bytes=400)  # one small entry fits
        backend.write(small, entry_bytes(small))
        huge = "1" * 64
        backend.write(huge, b"x" * 500)
        assert not backend.contains(huge)  # refused admission
        assert backend.contains(small)  # ... without evicting the rest
        assert backend.stats()["counters"]["evictions"] == 0


class TestLocalFSBackendCaps:
    def test_direct_writes_hold_the_entry_cap(self, tmp_path):
        """A capped file backend holds its caps on every write, not only on
        writes that a front-end follows with a gc pass."""
        backend = LocalFSBackend(tmp_path / "fs", max_entries=2)
        for i in range(4):
            digest = f"{i:064x}"
            backend.write(digest, entry_bytes(digest))
        assert len(list(backend.entries())) == 2
        assert backend.counters.evictions == 2


class TestLocalFSBackendLayout:
    def test_a_miss_tries_one_file(self, tmp_path, monkeypatch):
        """A cache dir is flat, so a miss opens the one path an entry can
        live at."""
        backend = LocalFSBackend(tmp_path / "fs")
        digest = "ab" * 32
        tried = []
        read_bytes = Path.read_bytes

        def recording_read_bytes(path):
            tried.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", recording_read_bytes)
        assert backend.read(digest) is None
        assert tried == [tmp_path / "fs" / f"{digest}.json"]
        assert backend.counters.misses == 1


class TestTieredStore:
    def test_needs_at_least_one_tier(self):
        with pytest.raises(ConfigError, match="at least one tier"):
            TieredStore([])

    def test_write_back_lands_in_the_first_writable_tier(self, tmp_path):
        mem = InMemoryBackend()
        fs = LocalFSBackend(tmp_path / "fs")
        store = ResultStore(TieredStore([mem, fs]))
        scenario = tiny_scenario("write-back")
        store.put(scenario, payload())
        digest = store.digest(scenario)
        assert mem.contains(digest)
        assert not fs.contains(digest)  # lower tiers fill by promotion only

    def test_read_through_promotes_and_then_skips_the_file_tier(
        self, tmp_path
    ):
        """The acceptance criterion: after first promotion, a repeated
        digest is served with zero file reads — pinned via per-tier
        stats."""
        scenario = tiny_scenario("hot")
        producer = ResultStore(tmp_path / "fs")
        cold = producer.put(scenario, payload("hot-entry"))

        mem = InMemoryBackend()
        fs = LocalFSBackend(tmp_path / "fs")
        store = ResultStore(TieredStore([mem, fs]))
        digest = store.digest(scenario)

        first = store.get(scenario)
        assert first is not None and first.text == "hot-entry"
        assert fs.counters.hits == 1  # served from the file tier once
        assert mem.contains(digest)  # ... and promoted into mem
        assert store.backend.counters.promotions == 1

        file_reads = fs.counters.reads
        for _ in range(5):
            warm = store.get(scenario)
            assert warm is not None
            assert warm.raw_json() == cold.raw_json()
        assert fs.counters.reads == file_reads  # zero file reads when hot
        assert mem.counters.hits == 5

    def test_corrupt_hot_copy_never_masks_the_durable_one(self, tmp_path):
        scenario = tiny_scenario("masked")
        fs = LocalFSBackend(tmp_path / "fs")
        mem = InMemoryBackend()
        store = ResultStore(TieredStore([mem, fs]))
        ResultStore(fs).put(scenario, payload("durable"))
        mem.write(store.digest(scenario), b"{ torn hot copy")
        hit = store.get(scenario)
        assert hit is not None and hit.text == "durable"
        assert store.backend.counters.corrupt_skipped == 1
        # The torn hot copy was dropped and replaced by promotion.
        assert mem.peek(store.digest(scenario)) == fs.peek(
            store.digest(scenario)
        )

    @pytest.mark.parametrize("hot", ["mem://", "file://{}/hot"])
    def test_damaged_hot_copy_is_read_past_to_the_durable_one(
        self, tmp_path, hot
    ):
        """A hot copy in ``put``'s layout, broken inside a value, still
        passes the tier's plausibility probe (its first and last bytes are
        intact); the front-end's checksum rejects it, discards it and reads
        once more, so the intact copy in the ``file://`` tier below serves
        the same get as a hit."""
        scenario = tiny_scenario("damaged-hot")
        producer = ResultStore(tmp_path / "durable")
        producer.put(scenario, payload("durable"))
        digest = producer.digest(scenario)
        good = producer.backend.peek(digest)
        at = good.index(b"durable")
        damaged = good[:at] + b'"' + good[at + 1 :]  # no longer JSON

        store = ResultStore(
            f"{hot},file://{{}}/durable".format(tmp_path, tmp_path)
        )
        upper = store.backend.tiers[0]
        upper.write(digest, damaged)
        hit = store.get(scenario)
        assert hit is not None and hit.text == "durable"
        assert (store.stats.hits, store.stats.corrupt) == (1, 1)
        assert upper.peek(digest) == good  # healed by promotion
        assert producer.backend.peek(digest) == good

    def test_capped_file_tier_is_gced_on_put_through_the_stack(
        self, tmp_path
    ):
        """URL-configured tier caps are enforced inline on the write path
        (on exactly the tier the write landed in — the front-end never
        re-scans untouched tiers per put)."""
        store = ResultStore(
            f"file://{tmp_path}/capped?max_entries=2,file://{tmp_path}/lower"
        )
        for i in range(5):
            store.put(tiny_scenario(f"cap-{i}"), payload(str(i)))
            time.sleep(0.02)
            assert store.disk_usage()[0] <= 2
        assert store.backend.tiers[0].counters.evictions == 3

    def test_promotion_into_a_capped_tier_enforces_its_caps(self, tmp_path):
        producer = ResultStore(tmp_path / "lower")
        scenarios = [tiny_scenario(f"promo-{i}") for i in range(4)]
        for scenario in scenarios:
            producer.put(scenario, payload())
        capped = LocalFSBackend(tmp_path / "upper", max_entries=2)
        store = ResultStore(
            TieredStore(
                [capped, LocalFSBackend(tmp_path / "lower")]
            )
        )
        for scenario in scenarios:
            assert store.get(scenario) is not None  # promote
            time.sleep(0.02)
        assert len(list(capped.entries())) <= 2

    def test_a_write_the_tier_caps_evict_at_once_falls_through(
        self, tmp_path
    ):
        """A write that a file tier's caps evict at once was refused, like
        an oversized mem:// write: the put lands in the roomier tier
        below, and reading it back is no promotion."""
        tight = LocalFSBackend(tmp_path / "tight", max_bytes=16)
        roomy = LocalFSBackend(tmp_path / "roomy")
        store = ResultStore(TieredStore([tight, roomy]))
        scenario = tiny_scenario("too-big-for-the-tight-tier")
        store.put(scenario, payload())
        digest = store.digest(scenario)
        assert not tight.contains(digest) and roomy.contains(digest)
        assert tight.counters.evictions == 1
        assert store.get(scenario) is not None  # roomy hit, promotion refused
        assert store.backend.counters.promotions == 0
        assert not tight.contains(digest)

    def test_hot_mem_hit_never_touches_file_tier_mtimes(self, tmp_path):
        import os

        scenario = tiny_scenario("no-utime")
        producer = ResultStore(tmp_path / "fs")
        producer.put(scenario, payload())
        store = ResultStore(f"mem://,file://{tmp_path / 'fs'}")
        assert store.get(scenario) is not None  # file hit + promotion
        path = producer.backend.path_for_digest(producer.digest(scenario))
        os.utime(path, (1_000_000, 1_000_000))
        for _ in range(3):
            assert store.get(scenario) is not None  # mem hits
        # Zero filesystem side effects once hot: no reads, no utimes.
        assert path.stat().st_mtime == 1_000_000

    def test_failed_promotion_never_breaks_a_good_read(self, tmp_path):
        """A hot tier that cannot accept writes (broken disk) must not turn
        a successful lower-tier hit into a miss."""
        scenario = tiny_scenario("unpromotable")
        producer = ResultStore(tmp_path / "good")
        producer.put(scenario, payload("still-served"))
        broken_root = tmp_path / "broken"
        broken_root.write_text("a file where the hot tier wants a dir")
        store = ResultStore(
            TieredStore(
                [
                    LocalFSBackend(broken_root),
                    LocalFSBackend(tmp_path / "good"),
                ]
            )
        )
        hit = store.get(scenario)
        assert hit is not None and hit.text == "still-served"
        assert store.backend.counters.promotions == 0

    def test_oversized_entry_falls_through_to_a_roomier_tier(
        self, tmp_path
    ):
        """A mem tier refusing admission must not make the put land
        nowhere: the write falls through to the file tier, and refused
        promotions are never counted as promotions."""
        tiny_mem = InMemoryBackend(max_bytes=64)
        fs = LocalFSBackend(tmp_path / "fs")
        store = ResultStore(TieredStore([tiny_mem, fs]))
        scenario = tiny_scenario("oversized")
        store.put(scenario, payload("x" * 4096))  # far over the mem budget
        digest = store.digest(scenario)
        assert not tiny_mem.contains(digest)
        assert fs.contains(digest)  # landed somewhere durable
        for _ in range(3):
            hit = store.get(scenario)  # file hit; promotion refused
            assert hit is not None and hit.text == "x" * 4096
        assert store.backend.counters.promotions == 0
        assert fs.counters.hits == 3  # honestly never hot

    def test_stats_totals_dedupe_promoted_digests(self, tmp_path):
        """A digest promoted into the hot tier is one entry, not two: the
        top-level stats stay in agreement with disk_usage()/`cache stats`
        while the per-tier blocks still show both copies."""
        scenario = tiny_scenario("promoted")
        producer = ResultStore(tmp_path / "fs")
        producer.put(scenario, payload())
        store = ResultStore(f"mem://,file://{tmp_path / 'fs'}")
        assert store.get(scenario) is not None  # promote into mem
        stats = store.backend.stats()
        assert stats["tiers"][0]["n_entries"] == 1  # the promoted copy
        assert stats["tiers"][1]["n_entries"] == 1  # the durable copy
        assert stats["n_entries"] == 1
        n_entries, total_bytes = store.disk_usage()
        assert (stats["n_entries"], stats["total_bytes"]) == (
            n_entries,
            total_bytes,
        )

    def test_gc_and_clear_count_promoted_digests_once(self, tmp_path):
        """Evicting/clearing a digest whose copies live in several tiers
        is one logical removal, matching entries()/stats() dedup."""
        scenario = tiny_scenario("gc-dedup")
        ResultStore(tmp_path / "fs").put(scenario, payload())
        store = ResultStore(
            TieredStore(
                [InMemoryBackend(), LocalFSBackend(tmp_path / "fs")]
            )
        )
        assert store.get(scenario) is not None  # promote: copy in both
        evicted = store.gc(max_entries=0)
        assert evicted == [store.digest(scenario)]  # once, not per tier

        ResultStore(tmp_path / "fs").put(scenario, payload())
        assert store.get(scenario) is not None
        assert store.clear() == 1

class TestTierFailurePaths:
    """A tier that raises :class:`OSError` costs a skip or a miss, never
    a failed read.  An entry path that is a directory makes
    ``LocalFSBackend.read`` raise; a tier rooted at a regular file makes
    its reads and writes raise (a failed promotion write is
    ``TestTieredStore.test_failed_promotion_never_breaks_a_good_read``)."""

    def test_a_tier_whose_read_raises_is_skipped(self, tmp_path):
        digest = "ab" * 32
        upper = LocalFSBackend(tmp_path / "upper")
        upper.path_for_digest(digest).mkdir(parents=True)
        with pytest.raises(OSError):
            upper.read(digest)
        lower = LocalFSBackend(tmp_path / "lower")
        lower.write(digest, entry_bytes(digest))
        tiers = TieredStore([upper, lower])
        assert tiers.read(digest) == entry_bytes(digest)
        assert tiers.counters.corrupt_skipped == 1
        assert lower.counters.hits == 1

    def test_a_raising_backend_is_a_corrupt_miss(self, tmp_path):
        backend = LocalFSBackend(tmp_path / "fs")
        store = ResultStore(backend)
        scenario = tiny_scenario("unreadable")
        backend.path_for_digest(store.digest(scenario)).mkdir(parents=True)
        assert store.get(scenario) is None
        assert store.stats.corrupt == 1 and store.stats.misses == 1

    def test_a_dark_lower_tier_never_breaks_serving(self, tmp_path):
        root = tmp_path / "not-a-dir"
        root.write_text("a file where the tier wants a directory")
        store = ResultStore(
            TieredStore([InMemoryBackend(), LocalFSBackend(root)])
        )
        scenario = tiny_scenario()
        assert store.get(scenario) is None
        store.put(scenario, payload("t"))
        warm = store.get(scenario)
        assert warm is not None and warm.text == "t"


#: On-disk states an entry path can be left in by a crash, a full disk or
#: a careless copy.
HOSTILE_ENTRIES = (
    "directory",
    "dangling-symlink",
    "empty",
    "garbage",
    "truncated",
    "wrong-digest",
)


def plant_hostile_entry(path, mode: str, good: bytes) -> None:
    """Leave an entry ``path`` in the hostile state ``mode``; ``good`` is
    the entry's real bytes (``truncated`` keeps half of them)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if mode == "directory":
        path.mkdir()
    elif mode == "dangling-symlink":
        path.symlink_to(path.parent / "nowhere")
    elif mode == "empty":
        path.write_bytes(b"")
    elif mode == "garbage":
        path.write_bytes(bytes(range(256)))
    elif mode == "truncated":
        path.write_bytes(good[: len(good) // 2])
    else:  # wrong-digest: a plausible entry for another address
        path.write_bytes(entry_bytes("9" * 64, "evil"))


class TestHostileEntryFiles:
    """Whatever sits at an entry's path, a read is a miss or a skip to
    the next tier, never an exception; a damaged copy that is not a
    dangling link counts as corrupt."""

    @pytest.fixture
    def good(self, tmp_path):
        """(scenario, digest, entry bytes) of a good entry in ``good/``."""
        scenario = tiny_scenario("hostile")
        producer = ResultStore(tmp_path / "good")
        producer.put(scenario, payload("good"))
        digest = producer.digest(scenario)
        return scenario, digest, producer.backend.peek(digest)

    @pytest.mark.parametrize("mode", HOSTILE_ENTRIES)
    def test_reads_degrade_to_a_miss(self, tmp_path, good, mode):
        scenario, digest, data = good
        backend = LocalFSBackend(tmp_path / "fs")
        plant_hostile_entry(backend.path_for_digest(digest), mode, data)
        store = ResultStore(backend)
        assert store.get(scenario) is None
        assert store.stats.misses == 1
        assert store.stats.corrupt == (mode != "dangling-symlink")

    @pytest.mark.parametrize("mode", HOSTILE_ENTRIES)
    def test_a_hostile_hot_copy_is_read_past(self, tmp_path, good, mode):
        scenario, digest, data = good
        hot = LocalFSBackend(tmp_path / "hot")
        plant_hostile_entry(hot.path_for_digest(digest), mode, data)
        store = ResultStore(
            TieredStore([hot, LocalFSBackend(tmp_path / "good")])
        )
        for _ in range(2):
            hit = store.get(scenario)
            assert hit is not None and hit.text == "good"
        assert store.stats.corrupt == 0
        # The promotion writes the good bytes over any hostile file; a
        # directory cannot be replaced, so it is read past every time.
        healed = mode != "directory"
        assert store.backend.counters.promotions == int(healed)
        if healed:
            assert hot.peek(digest) == data


class TestUrlAddressing:
    def test_is_store_url(self):
        assert is_store_url("mem://")
        assert is_store_url("file:///x")
        assert not is_store_url("/plain/path")
        assert not is_store_url("relative/path")

    def test_mem_url(self):
        backend = backend_from_url("mem://")
        assert isinstance(backend, InMemoryBackend)
        capped = backend_from_url("mem://?max_bytes=1000&max_entries=5")
        assert capped.max_bytes == 1000 and capped.max_entries == 5

    def test_file_url_with_params(self, tmp_path):
        backend = backend_from_url(
            f"file://{tmp_path}/cache?max_bytes=4096&max_entries=16"
        )
        assert isinstance(backend, LocalFSBackend)
        assert backend.root == tmp_path / "cache"
        assert backend.max_bytes == 4096
        assert backend.max_entries == 16

    def test_tier_list(self, tmp_path):
        backend = backend_from_url(
            f"mem://,file://{tmp_path}/cache,file://{tmp_path}/cold"
        )
        assert isinstance(backend, TieredStore)
        kinds = [type(tier).__name__ for tier in backend.tiers]
        assert kinds == ["InMemoryBackend", "LocalFSBackend", "LocalFSBackend"]

    def test_bare_paths_stay_plain_cache_dirs(self, tmp_path):
        store = ResultStore(str(tmp_path / "plain"))
        assert isinstance(store.backend, LocalFSBackend)
        assert store.cache_dir == tmp_path / "plain"

    def test_url_plus_keyword_knobs_conflict_loudly(self, tmp_path):
        """The URL is the only store configuration: the keyword knobs are
        gone, so passing one fails loudly instead of being dropped."""
        with pytest.raises(TypeError, match="max_bytes"):
            ResultStore(f"file://{tmp_path}", max_bytes=1_000)
        # A backend object goes where a URL or a path does: there is no
        # second ``backend=`` argument to conflict with the first.
        with pytest.raises(TypeError, match="backend"):
            ResultStore(tmp_path / "dir", backend=InMemoryBackend())
        # The URL spelling configures the cache-dir backend.
        store = ResultStore(f"file://{tmp_path}/d?max_entries=4")
        assert store.backend.max_entries == 4

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("s3://bucket/cache", "unknown store-URL scheme"),
            ("mem://?max_bytes=lots", "not an integer"),
            ("mem://?max_bytes=-1", "must be >= 0"),
            ("file:///x?compress=1", "unknown store-URL parameter"),
            ("file://", "names no directory"),
            ("mem://,", "empty tier"),
            ("file:///x?shard=maybe", "unknown store-URL parameter"),
            ("file:///data/runs,v2", "has no scheme"),
            ("mem://,plain/path", "has no scheme"),
            ("http://h:1", "unknown store-URL scheme"),
            ("https://h", "unknown store-URL scheme"),
            ("ring://a;b", "unknown store-URL scheme"),
            ("HTTPS://h", "unknown store-URL scheme"),
            ("mem://,http://h:1", "unknown store-URL scheme"),
            ("file:///x,ring://a:1", "unknown store-URL scheme"),
            ("ro:///x", "unknown store-URL scheme"),
            ("RO:///x", "unknown store-URL scheme"),
            ("mem://,ro:///x", "unknown store-URL scheme"),
            ("file:///x?shard=1", "unknown store-URL parameter"),
            ("file:///x?shard=0", "unknown store-URL parameter"),
            ("mem://,file:///x?write=all", "unknown store-URL parameter"),
            ("mem://?write=first,file:///x", "unknown store-URL parameter"),
        ],
    )
    def test_malformed_urls_raise_config_error(self, bad, match):
        with pytest.raises(ConfigError, match=match):
            backend_from_url(bad)

    def test_percent_encoded_comma_addresses_one_path(self, tmp_path):
        """%2C is the escape for a literal comma in a tier-listed path."""
        root = tmp_path / "runs,v2"
        backend = backend_from_url(f"mem://,file://{tmp_path}/runs%2Cv2")
        assert isinstance(backend, TieredStore)
        assert backend.tiers[1].root == root

    def test_result_store_and_consumers_accept_urls(self, tmp_path):
        store = ResultStore(f"mem://,file://{tmp_path}/c")
        assert isinstance(store.backend, TieredStore)
        assert store.url.startswith("mem://,file://")
        # run_cached accepts the URL form directly.
        scenario = (
            Scenario.builder("url-run", "tiny real run")
            .training("GPT3-76.1B", batch=32)
            .parallel(tensor_parallel=8, pipeline_parallel=8)
            .on(SystemConfig(kind="scd_blade"))
            .extracting("time_per_batch")
            .build()
        )
        cold = run_cached(scenario, f"file://{tmp_path}/c2")
        warm = run_cached(scenario, f"file://{tmp_path}/c2")
        assert not cold.from_cache and warm.from_cache
        assert warm.raw_json() == cold.raw_json()
