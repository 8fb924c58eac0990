"""Concurrency/load tests: many client threads against the live daemon.

The warm path is the production claim — pure file reads, safe under
parallel clients — so the load mix hammers one warm digest from N threads
while cold requests, revalidations and stats probes interleave.  Every
response must be a 200/304 with a body identical to the single-client
answer; the store must stay intact and self-consistent afterwards.
"""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor

N_CLIENTS = 8
N_REQUESTS_PER_CLIENT = 12

SCENARIO = "fig3c-blade-spec"


class TestWarmLoad:
    def test_parallel_warm_runs_agree_byte_for_byte(self, live_server):
        reference = live_server.post_json("/run?wait=1", {"scenario": SCENARIO})
        assert reference.status == 200

        def client(_):
            replies = []
            for _ in range(N_REQUESTS_PER_CLIENT):
                replies.append(
                    live_server.post_json("/run?wait=1", {"scenario": SCENARIO})
                )
            return replies

        with ThreadPoolExecutor(N_CLIENTS) as pool:
            all_replies = [
                reply
                for batch in pool.map(client, range(N_CLIENTS))
                for reply in batch
            ]

        assert len(all_replies) == N_CLIENTS * N_REQUESTS_PER_CLIENT
        for reply in all_replies:
            assert reply.status == 200
            assert reply.json()["from_cache"] is True
            assert reply.json()["artifacts"] == reference.json()["artifacts"]
        assert live_server.store.disk_usage()[0] == 1

    def test_concurrent_cold_requests_compute_once_each(self, live_server):
        """Distinct cold digests raced from many threads: every response is
        correct and the store ends with exactly one entry per digest."""
        names = [SCENARIO, "table1", "fig2b-datalink", "pcl-flow"]

        def client(seed):
            rng = random.Random(seed)
            picks = [rng.choice(names) for _ in range(6)]
            return [
                (
                    name,
                    live_server.post_json("/run?wait=1", {"scenario": name}),
                )
                for name in picks
            ]

        with ThreadPoolExecutor(N_CLIENTS) as pool:
            outcomes = [
                item for batch in pool.map(client, range(N_CLIENTS))
                for item in batch
            ]

        by_name: dict[str, bytes] = {}
        for name, reply in outcomes:
            assert reply.status == 200, (name, reply.body)
            artifacts = json.dumps(reply.json()["artifacts"], sort_keys=True)
            by_name.setdefault(name, artifacts)
            assert by_name[name] == artifacts, f"{name} answers diverged"
        assert live_server.store.disk_usage()[0] == len(names)

    def test_concurrent_async_cold_jobs_are_each_computed_once(
        self, live_server
    ):
        """Distinct cold specs posted at once without waiting: each is a
        202, polled through ``/jobs/<digest>`` to its 303 and read back,
        and each digest is computed and stored exactly once."""
        from repro.scenarios import get

        base = get(SCENARIO).to_dict()
        specs = [dict(base, name=f"async-cold-{i}") for i in range(6)]

        def client(spec):
            accepted = live_server.post_json("/run", {"scenario": spec})
            assert accepted.status == 202, accepted.body
            digest = accepted.json()["digest"]
            while True:
                status = live_server.request("GET", f"/jobs/{digest}")
                if status.status == 303:
                    break
                assert status.status == 200, status.body
                assert status.json()["status"] in ("queued", "running")
                time.sleep(0.002)
            return live_server.request("GET", f"/results/{digest}")

        with ThreadPoolExecutor(len(specs)) as pool:
            results = list(pool.map(client, specs))

        assert [reply.status for reply in results] == [200] * len(specs)
        jobs = live_server.app.jobs.stats()
        assert (jobs["done"], jobs["failed"]) == (len(specs), 0)
        assert live_server.store.stats.puts == len(specs)

    def test_mixed_traffic_with_revalidation_and_stats(self, live_server):
        cold = live_server.post_json("/run?wait=1", {"scenario": SCENARIO})
        digest = cold.json()["digest"]
        etag = cold.etag

        def client(seed):
            rng = random.Random(seed)
            for _ in range(N_REQUESTS_PER_CLIENT):
                kind = rng.randrange(4)
                if kind == 0:
                    reply = live_server.post_json(
                        "/run",
                        {"scenario": SCENARIO},
                        headers={"If-None-Match": etag},
                    )
                    assert reply.status == 304 and reply.body == b""
                elif kind == 1:
                    reply = live_server.request("GET", f"/results/{digest}")
                    assert reply.status == 200
                    assert reply.json()["digest"] == digest
                elif kind == 2:
                    reply = live_server.request("GET", "/stats")
                    assert reply.status == 200
                    counters = reply.json()["store"]["counters"]
                    assert counters["lookups"] == (
                        counters["hits"] + counters["misses"]
                    )
                else:
                    reply = live_server.post_json(
                        "/run", {"scenario": "definitely-not-registered"}
                    )
                    assert reply.status == 404
            return True

        with ThreadPoolExecutor(N_CLIENTS) as pool:
            assert all(pool.map(client, range(N_CLIENTS)))

        stats = live_server.request("GET", "/stats").json()
        assert stats["server"]["not_modified"] > 0
        assert stats["server"]["client_errors"] > 0
        assert stats["server"]["server_errors"] == 0
        # The hammered entry survived it all, readable and valid.
        assert live_server.store.read_digest(digest) is not None
