"""Federation over the wire: ring-routed daemons, verified PUT, gzip.

The acceptance scenario from the fabric design: N daemons plus a
``ring://`` tier make a sharded cluster.  A digest owned by a *remote*
peer is served by the local daemon on first request and promoted into
the local hot tiers — proven here with per-tier counters read back over
``GET /stats``, i.e. entirely through the public HTTP surface.

Also pinned here: the write half of the federation protocol —
``PUT /results/<digest>`` digest-verifies bodies against the canonical
spec hash (structured 4xx on every tamper mode) — and the gzip wire
contract both directions.
"""

from __future__ import annotations

import gzip
import json

from repro.scenarios.backends import HashRingBackend, InMemoryBackend
from repro.scenarios.store import ResultStore
from tests.scenarios.test_backends import tiny_scenario


def produce_entry(
    name: str = "federation-blade", text: str = "federated"
) -> tuple[str, bytes]:
    """(digest, entry bytes) exactly as a producer store would write them."""
    backend = InMemoryBackend()
    store = ResultStore(backend)
    scenario = tiny_scenario(name)
    store.put(
        scenario,
        {"raw": {"series": {}, "tag": name}, "text": text, "csv": None},
    )
    digest = store.digest(scenario)
    return digest, backend.peek(digest)


class TestRingFederation:
    def test_remote_digest_served_locally_then_goes_hot(
        self, live_daemon, tmp_path
    ):
        # Two strict peer daemons + a local daemon whose coldest tier is
        # the ring over them: --cache mem://,file://...,ring://a;b
        peer_a = live_daemon()
        peer_b = live_daemon()
        local = live_daemon(
            cache=(
                f"mem://,file://{tmp_path}/local,"
                f"ring://{peer_a.host}:{peer_a.port};"
                f"{peer_b.host}:{peer_b.port}"
            )
        )
        digest, entry = produce_entry()
        ring = local.store.backend.tiers[2]
        assert isinstance(ring, HashRingBackend)

        # Seed the cluster through the ring itself: a strict, verified
        # PUT lands the entry on the owning peer only.
        ring.write(digest, entry)
        owner_port = int(ring.ring.primary(digest).rsplit(":", 1)[1])
        owner = peer_a if owner_port == peer_a.port else peer_b
        other = peer_b if owner is peer_a else peer_a
        assert owner.store.contains(digest)
        assert not other.store.contains(digest)
        assert not local.store.backend.tiers[0].contains(digest)

        def tier_counters(index: int) -> dict:
            stats = local.request("GET", "/stats").json()
            return stats["store"]["backend"]["tiers"][index]["counters"]

        # First read: local tiers miss, the ring answers, and the read
        # pulls the entry up into the file and mem tiers.
        first = local.request("GET", f"/results/{digest}")
        assert first.status == 200
        assert first.json()["digest"] == digest
        mem_first = tier_counters(0)
        ring_first = tier_counters(2)
        assert ring_first["hits"] == 1
        assert local.store.backend.tiers[0].contains(digest)
        assert local.store.backend.tiers[1].contains(digest)

        # Second read: the mem tier answers; the ring is never asked.
        second = local.request("GET", f"/results/{digest}")
        assert second.status == 200
        assert second.body == first.body
        assert tier_counters(0)["hits"] == mem_first["hits"] + 1
        assert tier_counters(2) == ring_first

    def test_replicated_writes_land_on_every_owner(self, live_daemon):
        peer_a = live_daemon()
        peer_b = live_daemon()
        ring = HashRingBackend(
            [
                f"{peer_a.host}:{peer_a.port}",
                f"{peer_b.host}:{peer_b.port}",
            ],
            replicas=2,
        )
        digest, entry = produce_entry("federation-replicated")
        ring.write(digest, entry)
        assert peer_a.store.contains(digest)
        assert peer_b.store.contains(digest)
        assert ring.read(digest) == entry
        # Invalidation fans out to the whole cluster.
        assert ring.delete(digest)
        assert not peer_a.store.contains(digest)
        assert not peer_b.store.contains(digest)

    def test_ring_read_heals_the_owning_peer(self, live_daemon):
        # The entry starts on the *secondary* owner (as after a
        # membership change); a ring read writes it back to the primary.
        peer_a = live_daemon()
        peer_b = live_daemon()
        ring = HashRingBackend(
            [
                f"{peer_a.host}:{peer_a.port}",
                f"{peer_b.host}:{peer_b.port}",
            ],
            replicas=2,
        )
        digest, entry = produce_entry("federation-heal")
        primary_port = int(ring.ring.primary(digest).rsplit(":", 1)[1])
        primary = peer_a if primary_port == peer_a.port else peer_b
        secondary = peer_b if primary is peer_a else peer_a
        secondary.store.backend.write(digest, entry)
        assert ring.read(digest) == entry
        assert primary.store.contains(digest)
        assert ring.counters.promotions == 1


class TestVerifiedPutWire:
    """Strict ``PUT /results/<digest>``: every tamper mode is a 4xx."""

    def test_valid_entry_is_stored_verified(self, live_daemon):
        daemon = live_daemon()
        digest, entry = produce_entry("federation-put")
        reply = daemon.request("PUT", f"/results/{digest}", body=entry)
        assert reply.status == 201
        payload = reply.json()
        assert payload == {
            "digest": digest,
            "stored": True,
            "verified": True,
            "size_bytes": len(entry),
        }
        assert reply.headers["etag"] == f'"{digest}"'
        assert daemon.request("GET", f"/results/{digest}").status == 200

    def test_wrong_address_is_a_digest_mismatch(self, live_daemon):
        daemon = live_daemon()
        _, entry = produce_entry("federation-wrong-address")
        reply = daemon.request("PUT", "/results/" + "ab" * 32, body=entry)
        assert reply.status == 400
        assert reply.json()["error"] == "digest-mismatch"
        assert not daemon.store.contains("ab" * 32)

    def test_tampered_spec_is_a_digest_mismatch(self, live_daemon):
        # Body whose digest field matches the URL but whose spec no
        # longer hashes to it — the poisoned-cache attack PUT must stop.
        daemon = live_daemon()
        digest, entry = produce_entry("federation-tampered")
        doc = json.loads(entry)
        doc["scenario"]["name"] = "somebody-else"
        reply = daemon.request(
            "PUT", f"/results/{digest}", body=json.dumps(doc).encode()
        )
        assert reply.status == 400
        assert reply.json()["error"] == "digest-mismatch"
        assert not daemon.store.contains(digest)

    def test_foreign_schema_version_is_a_409(self, live_daemon):
        daemon = live_daemon()
        digest, entry = produce_entry("federation-schema")
        doc = json.loads(entry)
        doc["schema_version"] = 999
        reply = daemon.request(
            "PUT", f"/results/{digest}", body=json.dumps(doc).encode()
        )
        assert reply.status == 409
        assert reply.json()["error"] == "schema-mismatch"

    def test_non_entry_bodies_are_invalid_entry(self, live_daemon):
        daemon = live_daemon()
        for body in (b"not json", b'{"format": "something-else"}', b"[]"):
            reply = daemon.request("PUT", "/results/" + "cd" * 32, body=body)
            assert reply.status == 400
            assert reply.json()["error"] == "invalid-entry"

    def test_trusted_mode_stores_opaque_bytes(self, live_daemon):
        # --trust-puts is the mirror/conformance mode: bytes are opaque,
        # the *reading* front-end owns validation.
        daemon = live_daemon(trust_puts=True)
        digest = "ef" * 32
        reply = daemon.request(
            "PUT", f"/results/{digest}", body=b'{"torn": tru'
        )
        assert reply.status == 201
        assert reply.json()["verified"] is False
        assert daemon.store.backend.peek(digest) == b'{"torn": tru'


class TestGzipWire:
    def test_large_responses_compress_when_accepted(self, live_daemon):
        daemon = live_daemon()
        digest, entry = produce_entry("federation-gzip", text="x" * 4000)
        assert daemon.request("PUT", f"/results/{digest}", body=entry).status == 201
        plain = daemon.request("GET", f"/results/{digest}")
        assert "content-encoding" not in plain.headers
        packed = daemon.request(
            "GET",
            f"/results/{digest}",
            headers={"Accept-Encoding": "gzip"},
        )
        assert packed.status == 200
        assert packed.headers["content-encoding"] == "gzip"
        assert "Accept-Encoding" in packed.headers["vary"]
        assert len(packed.body) < len(plain.body)
        assert gzip.decompress(packed.body) == plain.body

    def test_small_responses_stay_identity(self, live_daemon):
        daemon = live_daemon()
        reply = daemon.request(
            "GET", "/healthz", headers={"Accept-Encoding": "gzip"}
        )
        assert reply.status == 200
        assert "content-encoding" not in reply.headers

    def test_q_zero_opts_out(self, live_daemon):
        daemon = live_daemon()
        digest, entry = produce_entry("federation-qzero", text="x" * 4000)
        daemon.request("PUT", f"/results/{digest}", body=entry)
        reply = daemon.request(
            "GET",
            f"/results/{digest}",
            headers={"Accept-Encoding": "gzip;q=0"},
        )
        assert reply.status == 200
        assert "content-encoding" not in reply.headers

    def test_gzipped_put_is_inflated_then_verified(self, live_daemon):
        daemon = live_daemon()
        digest, entry = produce_entry("federation-gzput", text="x" * 4000)
        reply = daemon.request(
            "PUT",
            f"/results/{digest}",
            body=gzip.compress(entry),
            headers={"Content-Encoding": "gzip"},
        )
        assert reply.status == 201
        assert reply.json()["verified"] is True
        assert reply.json()["size_bytes"] == len(entry)

    def test_garbage_gzip_body_is_a_400(self, live_daemon):
        daemon = live_daemon()
        reply = daemon.request(
            "PUT",
            "/results/" + "ab" * 32,
            body=b"\x1f\x8b\x08\x00 definitely not deflate",
            headers={"Content-Encoding": "gzip"},
        )
        assert reply.status == 400
        assert reply.json()["error"] == "bad-encoding"

    def test_truncated_gzip_body_is_a_400(self, live_daemon):
        daemon = live_daemon()
        _, entry = produce_entry("federation-truncated")
        reply = daemon.request(
            "PUT",
            "/results/" + "ab" * 32,
            body=gzip.compress(entry)[:-6],
            headers={"Content-Encoding": "gzip"},
        )
        assert reply.status == 400
        assert reply.json()["error"] == "bad-encoding"

    def test_gzip_bomb_is_a_413(self, live_daemon):
        daemon = live_daemon(max_body_bytes=2048)
        bomb = gzip.compress(b"\0" * 1_000_000)
        assert len(bomb) < 2048  # small on the wire, huge inflated
        reply = daemon.request(
            "PUT",
            "/results/" + "ab" * 32,
            body=bomb,
            headers={"Content-Encoding": "gzip"},
        )
        assert reply.status == 413
        assert reply.json()["error"] == "payload-too-large"

    def test_unknown_content_encoding_is_a_415(self, live_daemon):
        daemon = live_daemon()
        reply = daemon.request(
            "PUT",
            "/results/" + "ab" * 32,
            body=b"whatever",
            headers={"Content-Encoding": "br"},
        )
        assert reply.status == 415
        assert reply.json()["error"] == "unsupported-encoding"
