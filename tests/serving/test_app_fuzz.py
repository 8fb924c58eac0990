"""Fuzz/property tests for request handling — the no-500 contract.

Runs against the socket-free :class:`~repro.serving.app.ServingApp`, so
hundreds of hostile requests cost milliseconds: every response must be a
correct 4xx with a structured ``{"error", "detail"}`` JSON body; a 500
(and *any* leaked traceback) is a failure.  Seeded ``random`` only, same
style as the PR-3 property suite.
"""

from __future__ import annotations

import json
import random
import string

import pytest

from repro.scenarios import get
from repro.scenarios.backends import InMemoryBackend
from repro.scenarios.store import ResultStore
from repro.serving.app import (
    MAX_BATCH_ITEMS,
    ServingApp,
    if_none_match_matches,
)
from tests.scenarios.test_backends import tiny_scenario

N_CASES = 300


@pytest.fixture
def app(tmp_path):
    return ServingApp(ResultStore(tmp_path / "store"))


def assert_structured_4xx(response, expected_status=None):
    assert 400 <= response.status < 500, response
    if expected_status is not None:
        assert response.status == expected_status, response
    assert isinstance(response.body, dict)
    assert set(response.body) == {"error", "detail"}
    assert "Traceback" not in response.body["detail"]
    json.dumps(response.body)  # must be serializable as-is


class TestMalformedBodies:
    def test_invalid_json_bodies(self, app):
        rng = random.Random(0xFA22)
        printable = string.printable.encode()
        for _ in range(N_CASES):
            n = rng.randint(1, 64)
            blob = bytes(rng.choice(printable) for _ in range(n))
            try:
                json.loads(blob.decode("utf-8", errors="strict"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                response = app.handle("POST", "/run", blob)
                assert_structured_4xx(response, 400)
                assert response.body["error"] in (
                    "invalid-json",
                    "invalid-request",
                )

    def test_random_binary_bodies(self, app):
        rng = random.Random(0xB17E)
        for _ in range(N_CASES):
            blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 128)))
            response = app.handle("POST", "/run", blob)
            assert response.status != 500, blob

    def test_valid_json_wrong_shapes(self, app):
        for body in (
            "null",
            "42",
            '"fig5"',
            "[]",
            '["fig5"]',
            "{}",
            '{"scenario": "x", "scenarios": []}',
            '{"scenarios": "fig5"}',
            '{"scenarios": []}',
            '{"scenario": 42}',
            '{"scenario": null}',
            '{"scenario": ["fig5"]}',
        ):
            response = app.handle("POST", "/run", body.encode())
            assert_structured_4xx(response, 400)

    def test_empty_body(self, app):
        assert_structured_4xx(app.handle("POST", "/run", b""), 400)
        assert app.handle("POST", "/run", b"").body["error"] == "empty-body"

    def test_oversize_body_is_413(self, tmp_path):
        app = ServingApp(ResultStore(tmp_path / "s"), max_body_bytes=64)
        response = app.handle("POST", "/run", b"x" * 65)
        assert_structured_4xx(response, 413)

    def test_oversize_batch_is_413(self, app):
        names = ["fig5"] * (MAX_BATCH_ITEMS + 1)
        response = app.handle(
            "POST", "/run", json.dumps({"scenarios": names}).encode()
        )
        assert_structured_4xx(response, 413)


class TestScenarioReferences:
    def test_unknown_names_are_404(self, app):
        from repro.scenarios import REGISTRY

        rng = random.Random(0x404)
        for _ in range(N_CASES):
            name = "".join(
                rng.choice(string.ascii_letters + "./\\-_~")
                for _ in range(rng.randint(1, 24))
            )
            if name in REGISTRY:  # astronomically unlikely, but exact
                continue
            response = app.handle(
                "POST", "/run", json.dumps({"scenario": name}).encode()
            )
            assert_structured_4xx(response, 404)
            assert response.body["error"] == "unknown-scenario"

    def test_path_traversal_never_reads_files(self, app, tmp_path):
        # Unlike the CLI, the wire protocol must never resolve file paths.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(get("fig3c-blade-spec").to_json())
        for name in (str(spec_file), "../spec.json", "/etc/passwd"):
            response = app.handle(
                "POST", "/run", json.dumps({"scenario": name}).encode()
            )
            assert_structured_4xx(response, 404)

    def test_mutated_spec_dicts_never_500(self, app):
        # ?wait=1 keeps the compute in-request: a mutated inline spec that
        # only blows up mid-compute must still come back as a structured
        # 4xx (the client sent it), never a 500 — and async submission
        # would otherwise fill the job queue with hostile specs.
        rng = random.Random(0x5bec)
        base = get("fig3c-blade-spec").to_dict()
        keys = list(base)
        for _ in range(N_CASES):
            spec = json.loads(json.dumps(base))
            for _ in range(rng.randint(1, 3)):
                key = rng.choice(keys)
                mutation = rng.randrange(4)
                if mutation == 0:
                    spec.pop(key, None)
                elif mutation == 1:
                    spec[key] = rng.choice([None, 1.5, [], {}, "zzz", -1])
                elif mutation == 2:
                    spec[rng.choice(("extra", "päth", ""))] = key
                else:
                    spec[key] = {"nested": [key]}
            response = app.handle(
                "POST", "/run?wait=1", json.dumps({"scenario": spec}).encode()
            )
            if response.status != 200:
                assert_structured_4xx(response)

    def test_batch_with_one_bad_item_fails_wholesale(self, app):
        response = app.handle(
            "POST",
            "/run",
            json.dumps({"scenarios": ["fig3c-blade-spec", "nope"]}).encode(),
        )
        assert_structured_4xx(response, 404)
        assert app.store.n_entries == 0  # rejected before any compute


class TestRoutesAndMethods:
    def test_unknown_paths_404(self, app):
        rng = random.Random(0x9A7B)
        for _ in range(N_CASES):
            depth = rng.randint(1, 4)
            path = "/" + "/".join(
                "".join(
                    rng.choice(string.ascii_lowercase + "%~.")
                    for _ in range(rng.randint(1, 10))
                )
                for _ in range(depth)
            )
            response = app.handle("GET", path)
            if response.status == 200:  # /healthz etc. drawn by chance
                continue
            assert_structured_4xx(response)

    def test_wrong_methods_are_405(self, app):
        for method, path in (
            ("POST", "/healthz"),
            ("POST", "/stats"),
            ("POST", "/scenarios"),
            ("POST", "/results/" + "0" * 64),
            ("PUT", "/results/" + "0" * 64),
            ("DELETE", "/results/" + "0" * 64),
            ("POST", "/results/" + "0" * 64 + "/csv"),
            ("PUT", "/results/" + "0" * 64 + "/text"),
            ("GET", "/run"),
            ("DELETE", "/run"),
            ("PUT", "/scenarios/fig5"),
        ):
            response = app.handle(method, path)
            assert_structured_4xx(response, 405)

    def test_bad_digests_are_400(self, app):
        rng = random.Random(0xD16E)
        for _ in range(N_CASES):
            digest = "".join(
                rng.choice(string.hexdigits + "xyz!")
                for _ in range(rng.choice((8, 40, 63, 64, 65, 128)))
            )
            response = app.handle("GET", f"/results/{digest}")
            lowered = digest.lower()
            if len(lowered) == 64 and all(
                c in "0123456789abcdef" for c in lowered
            ):
                assert_structured_4xx(response, 404)
            else:
                assert_structured_4xx(response, 400)

    def test_artifact_routes_uphold_the_no_500_contract(self, app):
        """The content-negotiation routes inherit the fuzz contract: every
        hostile digest/stage combination is a structured 4xx."""
        rng = random.Random(0xC52F)
        stages = ("csv", "text", "json", "pdf", "", "CSV", "..", "c%73v")
        for _ in range(N_CASES):
            digest = "".join(
                rng.choice(string.hexdigits + "xyz!")
                for _ in range(rng.choice((8, 63, 64, 65)))
            )
            stage = rng.choice(stages)
            response = app.handle("GET", f"/results/{digest}/{stage}")
            assert_structured_4xx(response)
            lowered = digest.lower()
            well_formed = len(lowered) == 64 and all(
                c in "0123456789abcdef" for c in lowered
            )
            if stage == "":
                # Collapses to the 2-part /results/<digest> route.
                assert response.body["error"] in (
                    "bad-digest",
                    "unknown-digest",
                )
            elif stage not in ("csv", "text"):
                assert response.status == 404
                assert response.body["error"] == "unknown-artifact"
            elif well_formed:
                assert response.body["error"] == "unknown-digest"
            else:
                assert response.body["error"] == "bad-digest"

    def test_deep_results_paths_are_404(self, app):
        response = app.handle("GET", "/results/" + "0" * 64 + "/text/extra")
        assert_structured_4xx(response, 404)

    def test_query_strings_are_ignored(self, app):
        assert app.handle("GET", "/healthz?probe=1").status == 200

    def test_internal_errors_do_not_leak_tracebacks(self, app, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("secret internal state")

        monkeypatch.setattr(app.store, "read_digest", boom)
        response = app.handle("GET", "/results/" + "0" * 64)
        assert response.status == 500
        assert response.body == {
            "error": "internal",
            "detail": "unexpected RuntimeError",
        }
        assert "secret" not in json.dumps(response.body)


class TestJobRoutes:
    """The no-500 contract extends over the async job surface."""

    def test_hostile_job_digests_are_structured_4xx(self, app):
        rng = random.Random(0x10B5)
        for _ in range(N_CASES):
            digest = "".join(
                rng.choice(string.hexdigits + "xyz!/.%")
                for _ in range(rng.choice((1, 8, 40, 63, 64, 65, 128)))
            )
            if "/" in digest:  # would split into a different route depth
                continue
            response = app.handle("GET", f"/jobs/{digest}")
            assert_structured_4xx(response)
            lowered = digest.lower()
            if len(lowered) == 64 and all(
                c in "0123456789abcdef" for c in lowered
            ):
                assert response.body["error"] == "unknown-job"
            else:
                assert response.body["error"] == "bad-digest"

    def test_wrong_methods_on_job_routes_are_405(self, app):
        for method, path in (
            ("POST", "/jobs"),
            ("DELETE", "/jobs"),
            ("POST", "/jobs/" + "0" * 64),
            ("PUT", "/jobs/" + "0" * 64),
        ):
            assert_structured_4xx(app.handle(method, path), 405)

    def test_deep_job_paths_are_404(self, app):
        response = app.handle("GET", "/jobs/" + "0" * 64 + "/extra")
        assert_structured_4xx(response, 404)

    def test_hostile_wait_queries_and_prefer_headers_never_500(self, app):
        rng = random.Random(0x3A17)
        body = json.dumps({"scenario": "nope"}).encode()
        for _ in range(N_CASES):
            query = "".join(
                rng.choice(string.printable.replace("\r", "").replace("\n", ""))
                for _ in range(rng.randint(0, 24))
            )
            prefer = "".join(
                rng.choice(string.ascii_letters + " ,;==")
                for _ in range(rng.randint(0, 16))
            )
            response = app.handle(
                "POST", f"/run?{query}", body, {"Prefer": prefer}
            )
            # Unknown scenario regardless of how the knobs are mangled.
            assert_structured_4xx(response, 404)

    def test_empty_jobs_listing_is_200(self, app):
        response = app.handle("GET", "/jobs")
        assert response.status == 200
        assert response.body["jobs"] == []


def produce_entry(name: str) -> tuple[str, bytes]:
    """(digest, entry bytes) exactly as a producer store writes them."""
    backend = InMemoryBackend()
    store = ResultStore(backend)
    scenario = tiny_scenario(name)
    store.put(scenario, {"raw": {"series": {}}, "text": name, "csv": None})
    digest = store.digest(scenario)
    return digest, backend.peek(digest)


def warm_digest(app) -> str:
    """Compute a cheap registry scenario through ``app``; its digest."""
    response = app.handle(
        "POST", "/run?wait=1", json.dumps({"scenario": "table1"}).encode()
    )
    assert response.status == 200
    return json.loads(response.body_bytes())["digest"]


class TestClosedWriteSurface:
    """The daemon has no write route: ``/results/<digest>`` answers
    ``GET`` only and ``/store/entries`` is no route.  Whatever a client
    sends there, random bytes or a producer's valid entry, the reply is
    a structured 4xx and the store is neither written nor deleted from."""

    def test_random_put_bodies_are_405_and_store_nothing(self, app):
        rng = random.Random(0x9047)
        for _ in range(N_CASES):
            blob = bytes(
                rng.randrange(256) for _ in range(rng.randint(0, 256))
            )
            digest = "%064x" % rng.getrandbits(256)
            response = app.handle("PUT", f"/results/{digest}", blob)
            assert_structured_4xx(response, 405)
        assert app.store.n_entries == 0

    def test_a_producers_entry_cannot_be_put(self, app):
        digest, entry = produce_entry("closed-put")
        response = app.handle("PUT", f"/results/{digest}", entry)
        assert_structured_4xx(response, 405)
        assert not app.store.contains(digest)
        assert_structured_4xx(app.handle("GET", f"/results/{digest}"), 404)

    def test_an_oversize_put_body_is_405_unread(self, tmp_path):
        app = ServingApp(ResultStore(tmp_path / "s"), max_body_bytes=64)
        response = app.handle("PUT", "/results/" + "ab" * 32, b"x" * 65)
        assert_structured_4xx(response, 405)

    def test_delete_fuzz_is_405(self, app):
        rng = random.Random(0xDE1E)
        for _ in range(N_CASES):
            digest = "".join(
                rng.choice(string.hexdigits + "xyz!")
                for _ in range(rng.choice((8, 63, 64, 65)))
            )
            response = app.handle("DELETE", f"/results/{digest}")
            assert_structured_4xx(response, 405)
            assert response.body["error"] == "method-not-allowed"

    def test_delete_never_removes_a_stored_result(self, app):
        digest = warm_digest(app)
        response = app.handle("DELETE", f"/results/{digest}")
        assert_structured_4xx(response, 405)
        assert app.store.contains(digest)
        assert app.handle("GET", f"/results/{digest}").status == 200

    @pytest.mark.parametrize("method", ["GET", "POST", "PUT", "DELETE"])
    def test_store_entries_is_not_a_route(self, app, method):
        response = app.handle(method, "/store/entries")
        assert_structured_4xx(response, 404)
        assert response.body["error"] == "not-found"

    def test_an_entry_media_type_gets_the_json_reply(self, app):
        # There is no raw-entry representation: asking for the store's
        # entry media type gets the ordinary JSON reply and its 304.
        digest = warm_digest(app)
        accept = {"Accept": "application/x-repro-entry+json"}
        plain = app.handle("GET", f"/results/{digest}")
        asked = app.handle("GET", f"/results/{digest}", headers=accept)
        assert asked.status == plain.status == 200
        assert asked.content_type == plain.content_type is None
        assert asked.body_bytes() == plain.body_bytes()
        revalidated = app.handle(
            "GET",
            f"/results/{digest}",
            headers={**accept, "If-None-Match": f'"{digest}"'},
        )
        assert revalidated.status == 304


class TestIfNoneMatch:
    def test_matching_forms(self):
        digest = "ab" * 32
        for header in (
            f'"{digest}"',
            digest,
            f'W/"{digest}"',
            f'"other", "{digest}"',
            "*",
        ):
            assert if_none_match_matches(header, digest), header

    def test_non_matching_forms(self):
        digest = "ab" * 32
        for header in (None, "", '"cd"', '"ab"', f'"{digest[:-1]}"'):
            assert not if_none_match_matches(header, digest), header
