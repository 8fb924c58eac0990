"""Concurrency stress suite: parallel writers/readers on one cache dir.

The store's claims under fire: atomic writes (a reader never sees a torn
entry as valid), corruption self-heal mid-race, LRU gc racing puts, and
thread-safe stats counters.  Threads share one :class:`ResultStore`
instance; the process tests point freshly built stores in worker
processes at the same directory — both shapes the serving daemon and
parallel CLI invocations produce in production.

Workers perform randomized op mixes (seeded) and *assert inside the
worker*: any torn read, crash or invalid payload fails the test by
raising; the parent then cross-checks the shared counters and the final
on-disk state.  A writer SIGKILLed halfway through a put leaves only a
temp file: the next read is a plain miss, and gc sweeps the temp file.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

from repro.arch.config import SystemConfig
from repro.scenarios import Scenario, get
from repro.scenarios.store import STALE_TMP_SECONDS, ResultStore, run_cached

SRC = Path(__file__).resolve().parents[2] / "src"

N_SCENARIOS = 6


def stress_scenario(index: int) -> Scenario:
    """Deterministic cheap spec #index (never run — store-mechanics only)."""
    return (
        Scenario.builder(f"stress-{index}", "concurrency stress spec")
        .training("GPT3-76.1B", batch=8 + index)
        .parallel(tensor_parallel=8, pipeline_parallel=8)
        .on(SystemConfig(kind="scd_blade"))
        .extracting("time_per_batch")
        .build()
    )


def payload_for(index: int, writer: int) -> dict:
    """A payload tagged by scenario and writer; any complete version of a
    scenario's payload is valid for a reader to observe."""
    return {
        "raw": {"series": {}, "scenario_index": index, "writer": writer},
        "text": f"stress-{index}-writer-{writer}",
        "csv": None,
    }


def check_hit(index: int, hit) -> None:
    """A successful get must be one writer's complete payload — torn or
    mixed state is a test failure."""
    assert hit.text.startswith(f"stress-{index}-writer-"), hit.text
    assert hit.raw["scenario_index"] == index
    assert hit.text.endswith(str(hit.raw["writer"]))


def hammer(
    store: ResultStore, seed: int, n_ops: int, sabotage_path=None
) -> dict:
    """One worker's randomized op mix; returns its observed op counts.

    ``sabotage_path`` maps a digest to the file to clobber (defaults to the
    store's own entry path; a tiered store passes its file tier's)."""
    if sabotage_path is None:
        sabotage_path = store._path_for_digest
    rng = random.Random(seed)
    scenarios = [stress_scenario(i) for i in range(N_SCENARIOS)]
    counts = {"puts": 0, "gets": 0, "invalidated": 0, "gc_runs": 0}
    for _ in range(n_ops):
        index = rng.randrange(N_SCENARIOS)
        scenario = scenarios[index]
        op = rng.random()
        if op < 0.35:
            store.put(scenario, payload_for(index, seed))
            counts["puts"] += 1
        elif op < 0.75:
            hit = store.get(scenario)
            if hit is not None:
                check_hit(index, hit)
            counts["gets"] += 1
        elif op < 0.85:
            if store.invalidate(scenario):
                counts["invalidated"] += 1
        elif op < 0.95:
            store.gc(max_entries=N_SCENARIOS - 1)
            counts["gc_runs"] += 1
        else:
            # Sabotage: clobber the entry mid-race; the *next* reader must
            # self-heal (miss + drop), never crash or serve garbage.
            path = sabotage_path(store.digest(scenario))
            try:
                path.write_text(rng.choice(["{ torn", "", '{"format":"no"}']))
            except OSError:
                pass
    return counts


# -- process workers (top-level for pickling) -------------------------------
def _process_hammer(cache_dir: str, seed: int, n_ops: int) -> dict:
    store = ResultStore(cache_dir)
    counts = hammer(store, seed, n_ops)
    counts["local_stats"] = store.stats.to_dict()
    return counts


def _process_put_get_loop(cache_dir: str, seed: int, n_ops: int) -> int:
    """Tight put/get contention on ONE digest across processes."""
    store = ResultStore(cache_dir)
    rng = random.Random(seed)
    observed = 0
    for _ in range(n_ops):
        if rng.random() < 0.5:
            store.put(stress_scenario(0), payload_for(0, seed))
        else:
            hit = store.get(stress_scenario(0))
            if hit is not None:
                check_hit(0, hit)
                observed += 1
    return observed


def assert_store_consistent(cache_dir) -> None:
    """Reading back every surviving file either yields a valid entry or
    self-heals (drops it) — and what validates matches its filename."""
    store = ResultStore(cache_dir)
    for path in store._entry_paths():
        digest = path.name[:-5]
        entry = store.read_digest(digest)  # heals un-noticed sabotage
        if entry is None:
            assert not path.exists(), f"unusable entry left behind: {path}"
        else:
            stored = json.loads(path.read_bytes())
            assert stored["format"] == "repro-scenario-result"
            assert stored["digest"] == digest
            assert isinstance(entry.value("raw"), dict)
    # No temp files leaked past the racing writers' finally-cleanup.
    leftovers = [p for p in store.cache_dir.rglob("*.tmp")]
    assert not leftovers, leftovers
    stats = store.stats
    assert stats.lookups == stats.hits + stats.misses


class TestThreadStress:
    def test_shared_store_instance_under_thread_fire(self, tmp_path):
        store = ResultStore(tmp_path / "threads")
        n_workers, n_ops = 8, 60
        with ThreadPoolExecutor(n_workers) as pool:
            results = list(
                pool.map(
                    lambda seed: hammer(store, seed, n_ops),
                    range(n_workers),
                )
            )
        # Thread-safe counters: the shared stats must account exactly for
        # every op the workers performed.
        assert store.stats.puts == sum(r["puts"] for r in results)
        assert store.stats.lookups == sum(r["gets"] for r in results)
        assert store.stats.invalidations == sum(
            r["invalidated"] for r in results
        )
        assert store.stats.hits + store.stats.misses == store.stats.lookups
        assert_store_consistent(tmp_path / "threads")

    def test_gc_racing_puts_keeps_the_cap(self, tmp_path):
        store = ResultStore(f"file://{tmp_path}/gc-race?max_entries=3")
        n_workers = 6

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            for _ in range(40):
                index = rng.randrange(N_SCENARIOS)
                store.put(stress_scenario(index), payload_for(index, seed))

        with ThreadPoolExecutor(n_workers) as pool:
            list(pool.map(worker, range(n_workers)))
        # Every put auto-gc'd; with the dust settled the cap holds exactly.
        store.gc()
        assert store.n_entries <= 3
        assert store.backend.counters.evictions > 0
        assert_store_consistent(tmp_path / "gc-race")


class TestTieredThreadStress:
    """The PR-5 tier stack under the same fire: promotion must stay
    correct while writers, evictors and saboteurs race it."""

    @staticmethod
    def _tiered_store(tmp_path):
        from repro.scenarios.backends import (
            InMemoryBackend,
            LocalFSBackend,
            TieredStore,
        )

        fs = LocalFSBackend(tmp_path / "tiered-fs")
        mem = InMemoryBackend()
        store = ResultStore(TieredStore([mem, fs]))
        return store, mem, fs

    def test_tiered_store_under_thread_fire(self, tmp_path):
        store, mem, fs = self._tiered_store(tmp_path)
        n_workers, n_ops = 8, 60
        with ThreadPoolExecutor(n_workers) as pool:
            results = list(
                pool.map(
                    lambda seed: hammer(
                        store, seed, n_ops,
                        sabotage_path=fs.path_for_digest,
                    ),
                    range(n_workers),
                )
            )
        assert store.stats.puts == sum(r["puts"] for r in results)
        assert store.stats.lookups == sum(r["gets"] for r in results)
        assert store.stats.hits + store.stats.misses == store.stats.lookups
        # Per-tier accounting stayed coherent under fire.
        for tier in (mem, fs):
            counters = tier.counters
            assert counters.reads == counters.hits + counters.misses
        # Whatever survived on disk is valid or self-heals.
        assert_store_consistent(tmp_path / "tiered-fs")

    def test_promotion_under_contention(self, tmp_path):
        """Many threads racing cold tiered reads of the same warm file
        entries: every hit is a complete payload, every digest ends up
        promoted into the mem tier, and subsequent reads leave the file
        tier untouched."""
        store, mem, fs = self._tiered_store(tmp_path)
        producer = ResultStore(tmp_path / "tiered-fs")
        for index in range(N_SCENARIOS):
            producer.put(stress_scenario(index), payload_for(index, 7))

        def reader(seed: int) -> int:
            rng = random.Random(seed)
            served = 0
            for _ in range(40):
                index = rng.randrange(N_SCENARIOS)
                hit = store.get(stress_scenario(index))
                assert hit is not None  # warm below, so never a miss
                check_hit(index, hit)
                served += 1
            return served

        n_workers = 8
        with ThreadPoolExecutor(n_workers) as pool:
            served = list(pool.map(reader, range(n_workers)))
        assert sum(served) == n_workers * 40
        assert store.stats.hits == sum(served)
        # Every digest got promoted; racing promoters may double-write
        # (harmless), but the hot tier must now hold all of them...
        for index in range(N_SCENARIOS):
            assert mem.contains(store.digest(stress_scenario(index)))
        assert store.backend.counters.promotions >= N_SCENARIOS
        # ... and once hot, repeated reads perform zero file reads.
        file_reads = fs.counters.reads
        for index in range(N_SCENARIOS):
            assert store.get(stress_scenario(index)) is not None
        assert fs.counters.reads == file_reads


class TestProcessStress:
    def test_independent_processes_on_one_cache_dir(self, tmp_path):
        cache_dir = tmp_path / "procs"
        cache_dir.mkdir()
        n_workers, n_ops = 3, 50
        with ProcessPoolExecutor(n_workers) as pool:
            futures = [
                pool.submit(_process_hammer, str(cache_dir), seed, n_ops)
                for seed in range(n_workers)
            ]
            results = [future.result(timeout=120) for future in futures]
        assert all(r["puts"] + r["gets"] > 0 for r in results)
        for r in results:
            local = r["local_stats"]
            assert local["lookups"] == local["hits"] + local["misses"]
        assert_store_consistent(cache_dir)

    def test_single_digest_contention_across_processes(self, tmp_path):
        cache_dir = tmp_path / "hot-digest"
        cache_dir.mkdir()
        n_workers, n_ops = 3, 60
        with ProcessPoolExecutor(n_workers) as pool:
            futures = [
                pool.submit(
                    _process_put_get_loop, str(cache_dir), seed, n_ops
                )
                for seed in range(n_workers)
            ]
            observed = [future.result(timeout=120) for future in futures]
        # Readers saw plenty of complete payloads (check_hit inside raised
        # on any torn one) and the final entry is whole.
        assert sum(observed) > 0
        assert_store_consistent(cache_dir)
        final = ResultStore(cache_dir).get(stress_scenario(0))
        if final is not None:
            check_hit(0, final)


class TestCorruptionSelfHealMidRace:
    def test_readers_heal_while_a_writer_overwrites(self, tmp_path):
        store = ResultStore(tmp_path / "heal")
        scenario = stress_scenario(0)
        path = store._path_for_digest(store.digest(scenario))
        n_rounds = 120

        def corruptor() -> None:
            rng = random.Random(0xBAD)
            for _ in range(n_rounds):
                try:
                    path.write_text(rng.choice(["{ torn", "[1,", ""]))
                except OSError:
                    pass
                store.put(scenario, payload_for(0, 1))

        writing = threading.Event()
        writing.set()

        def reader(seed: int) -> int:
            # Read for as long as the corruptor writes (and at least
            # n_rounds times): readers that finish before the first torn
            # write would never see one.
            healed = 0
            rounds = 0
            while rounds < n_rounds or writing.is_set():
                rounds += 1
                hit = store.get(scenario)
                if hit is None:
                    healed += 1
                else:
                    check_hit(0, hit)
                time.sleep(0.0002)  # leave the corruptor the interpreter
            return healed

        with ThreadPoolExecutor(4) as pool:
            corrupt_future = pool.submit(corruptor)
            reader_futures = [pool.submit(reader, s) for s in range(3)]
            try:
                corrupt_future.result(timeout=120)
            finally:
                writing.clear()
            [f.result(timeout=120) for f in reader_futures]

        assert store.stats.corrupt > 0  # the sabotage was actually seen
        # After the dust settles the store serves a valid payload again.
        store.put(scenario, payload_for(0, 2))
        final = store.get(scenario)
        assert final is not None
        check_hit(0, final)
        assert_store_consistent(tmp_path / "heal")


#: A writer that computes table1 and dies inside ``LocalFSBackend.write``:
#: it writes half the entry into its temp file, tells the parent through
#: the pipe whose write end is ``argv[2]``, and blocks until killed.
_KILLED_WRITER = """
import os, pathlib, sys, time
from repro.scenarios import get
from repro.scenarios.store import run_cached

def half_written(path, data):
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    os.write(int(sys.argv[2]), b"!")
    time.sleep(120)

pathlib.Path.write_bytes = half_written
run_cached(get("table1"), sys.argv[1])
"""


class TestWriterKilledMidPut:
    def test_sigkilled_writer_leaves_no_torn_entry(self, tmp_path):
        read_end, write_end = os.pipe()
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            child = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _KILLED_WRITER,
                    str(tmp_path),
                    str(write_end),
                ],
                env=env,
                pass_fds=(write_end,),
            )
        finally:
            os.close(write_end)
        try:
            ready, _, _ = select.select([read_end], [], [], 60)
            assert ready and os.read(read_end, 1) == b"!"
        finally:
            child.kill()
            child.wait(timeout=30)
            os.close(read_end)
        assert child.returncode == -signal.SIGKILL
        (temp,) = tmp_path.glob("*.tmp")  # the half-written write
        assert temp.stat().st_size > 0

        store = ResultStore(tmp_path)
        scenario = get("table1")
        assert store.get(scenario) is None
        assert (store.stats.misses, store.stats.corrupt) == (1, 0)
        assert not run_cached(scenario, store).from_cache
        assert run_cached(scenario, store).from_cache

        stale = time.time() - STALE_TMP_SECONDS - 60
        os.utime(temp, (stale, stale))
        store.gc()
        assert not temp.exists()
        assert store.get(scenario) is not None


def test_stress_scenarios_are_cheap_to_build():
    """The suite's specs must never accidentally require a model run."""
    digests = {ResultStore().digest(stress_scenario(i)) for i in range(6)}
    assert len(digests) == 6
