"""Property-based round-trip tests for the serializable spec layer.

Hypothesis-style: seeded generators draw hundreds of random *valid* specs
(``SystemConfig``, ``WorkloadConfig``, ``Scenario``) and assert the
contracts the result store stands on —

* ``from_dict(to_dict(s)) == s`` (and the JSON round trip),
* equal specs hash equal and digest equal,
* any single-field mutation changes the store digest.

Written against the stdlib ``random`` module only (deterministic seeds, no
shrinking needed — a failing draw prints its spec), so the suite does not
depend on ``hypothesis`` being installed.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

from repro.arch.config import SYSTEM_KINDS, SystemConfig
from repro.memory.cache import L2_POLICIES
from repro.parallel.strategy import ParallelConfig
from repro.scenarios.spec import TABLE_KINDS, Scenario, WorkloadConfig
from repro.scenarios.store import scenario_digest
from repro.workloads.llm import MODEL_ZOO, LLMConfig, MoESpec

N_CASES = 200

#: Extractors usable without / only with a reference system.
PLAIN_EXTRACTORS = (
    "latency",
    "time_per_batch",
    "tokens_per_second",
    "achieved_pflops_per_pu",
    "kv_cache_bytes",
    "time_per_output_token",
    "fits_memory",
)
REF_EXTRACTORS = ("speedup", "ref_latency", "ref_time_per_batch")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def maybe(rng: random.Random, value, p: float = 0.5):
    return value if rng.random() < p else None


def gen_system_config(rng: random.Random) -> SystemConfig:
    kind = rng.choice(SYSTEM_KINDS)
    l2_total_bytes = None
    l2_jsram_dies = None
    capacity_style = rng.randrange(3)
    if capacity_style == 1:
        l2_total_bytes = round(rng.uniform(1e9, 64e9), 3)
    elif capacity_style == 2:
        l2_jsram_dies = rng.randint(1, 64)
    return SystemConfig(
        kind=kind,
        nx=rng.randint(1, 8),
        ny=rng.randint(1, 8),
        n_blades=rng.randint(1, 8),
        n_gpus=rng.choice((8, 16, 32, 64)),
        dram_bandwidth_tbps=maybe(rng, round(rng.uniform(0.5, 64.0), 3)),
        dram_latency_ns=maybe(rng, round(rng.uniform(10.0, 200.0), 2)),
        l2_total_bytes=l2_total_bytes,
        l2_jsram_dies=l2_jsram_dies,
        l2_policy=rng.choice(L2_POLICIES),
        dram_outstanding_kib=maybe(rng, float(rng.choice((256, 512, 2048)))),
        n_accelerators=maybe(rng, rng.choice((8, 16, 32, 64)), 0.3),
        kernel_overhead_ns=maybe(rng, round(rng.uniform(0.0, 100.0), 2), 0.3),
        gpu_stream_low_ai=maybe(rng, round(rng.uniform(0.1, 0.5), 3), 0.3),
        gpu_ib_alpha_us=maybe(rng, round(rng.uniform(0.2, 1.0), 3), 0.3),
        gpu_kernel_launch_overhead_us=maybe(
            rng, round(rng.uniform(0.0, 1.0), 3), 0.3
        ),
    )


def gen_inline_model(rng: random.Random) -> LLMConfig:
    """A custom (non-zoo) model satisfying the divisibility constraints."""
    n_heads = rng.choice((8, 16, 32, 64))
    divisors = [d for d in (1, 2, 4, 8, 16, 32, 64) if n_heads % d == 0]
    hidden = n_heads * rng.choice((64, 128, 256))
    moe = None
    if rng.random() < 0.25:
        n_experts = rng.choice((4, 8, 16))
        moe = MoESpec(
            n_experts=n_experts,
            active_experts=rng.randint(1, n_experts),
            expert_ffn=hidden * rng.choice((2, 4)),
        )
    return LLMConfig(
        name=f"prop-model-{rng.randrange(10**6)}",
        n_layers=rng.randint(2, 96),
        hidden=hidden,
        n_heads=n_heads,
        kv_heads=rng.choice(divisors),
        ffn_hidden=hidden * rng.choice((3, 4)),
        vocab_size=rng.choice((32000, 50257, 128256)),
        max_seq_len=rng.choice((2048, 4096, 8192)),
        ffn_multiplier=rng.choice((2, 3)),
        moe=moe,
    )


def gen_workload(rng: random.Random) -> WorkloadConfig:
    model = (
        rng.choice(sorted(MODEL_ZOO))
        if rng.random() < 0.7
        else gen_inline_model(rng)
    )
    return WorkloadConfig(
        model=model,
        batch=rng.choice((1, 4, 8, 32, 128)),
        seq_len=maybe(rng, rng.choice((128, 512, 2048)), 0.4),
        input_tokens=rng.choice((100, 200, 500)),
        output_tokens=rng.choice((20, 200, 400)),
        precision_bytes=rng.choice((1.0, 2.0, 4.0)),
    )


def gen_parallel(rng: random.Random) -> ParallelConfig:
    return ParallelConfig(
        tensor_parallel=rng.choice((1, 2, 4, 8)),
        pipeline_parallel=rng.choice((1, 2, 4, 8)),
        data_parallel=rng.choice((1, 2, 4)),
        microbatch_size=rng.choice((1, 2, 4)),
    )


#: Grid axes safe for any training/inference scenario that defines the
#: target (axis, candidate values).
GRID_AXES = (
    ("system.dram_bandwidth_tbps", (0.5, 1.0, 2.0, 4.0, 8.0)),
    ("system.dram_latency_ns", (10.0, 30.0, 100.0)),
    ("workload.batch", (4, 8, 16, 32)),
    ("workload.precision_bytes", (1.0, 2.0)),
    ("parallel.data_parallel", (1, 2, 4)),
)


def gen_scenario(rng: random.Random) -> Scenario:
    kind = rng.choice(("training", "inference", "dse", "table"))
    name = f"prop-{kind}-{rng.randrange(10**6)}"
    if kind == "table":
        return Scenario(
            name=name, kind=kind, table=rng.choice(TABLE_KINDS)
        )
    system = gen_system_config(rng)
    workload = gen_workload(rng)
    if kind == "dse":
        return Scenario(
            name=name,
            kind=kind,
            system=system,
            workload=workload,
            max_candidates=rng.randint(1, 128),
        )
    parallel = gen_parallel(rng)
    ref_system = maybe(rng, gen_system_config(rng), 0.4)
    extract = tuple(
        rng.sample(PLAIN_EXTRACTORS, rng.randint(0, 3))
    )
    if ref_system is not None and rng.random() < 0.5:
        extract += tuple(rng.sample(REF_EXTRACTORS, rng.randint(1, 2)))
    grid = None
    if rng.random() < 0.6:
        axes = {}
        valid_axes = [
            (axis, values)
            for axis, values in GRID_AXES
            if not (axis.startswith("parallel.") and kind == "inference")
        ]
        for axis, values in rng.sample(valid_axes, rng.randint(1, 2)):
            n = rng.randint(1, len(values))
            axes[axis] = tuple(rng.sample(values, n))
        builder_grid = axes
        from repro.analysis.sweep import SweepGrid

        grid = (
            SweepGrid.product(**builder_grid)
            if rng.random() < 0.7
            else SweepGrid.zipped(
                **{
                    axis: tuple(rng.choices(values, k=3))
                    for axis, values in axes.items()
                }
            )
        )
    return Scenario(
        name=name,
        kind=kind,
        description=rng.choice(("", "a description", "αβγ unicode")),
        system=system,
        ref_system=ref_system,
        workload=workload,
        parallel=parallel if kind == "training" else maybe(rng, parallel, 0.3),
        grid=grid,
        extract=extract,
    )


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------
class TestSystemConfigRoundTrip:
    def test_from_dict_to_dict_identity(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(N_CASES):
            config = gen_system_config(rng)
            rebuilt = SystemConfig.from_dict(config.to_dict())
            assert rebuilt == config, config
            assert hash(rebuilt) == hash(config)

    def test_json_round_trip(self):
        rng = random.Random(0xBEEF)
        for _ in range(N_CASES):
            config = gen_system_config(rng)
            rebuilt = SystemConfig.from_dict(
                json.loads(json.dumps(config.to_dict()))
            )
            assert rebuilt == config, config


class TestWorkloadConfigRoundTrip:
    def test_from_dict_to_dict_identity(self):
        rng = random.Random(0xFACADE)
        for _ in range(N_CASES):
            workload = gen_workload(rng)
            rebuilt = WorkloadConfig.from_dict(workload.to_dict())
            assert rebuilt == workload, workload
            assert hash(rebuilt) == hash(workload)

    def test_json_round_trip_preserves_inline_models(self):
        rng = random.Random(0xD00D)
        for _ in range(N_CASES):
            workload = gen_workload(rng)
            rebuilt = WorkloadConfig.from_dict(
                json.loads(json.dumps(workload.to_dict()))
            )
            assert rebuilt == workload, workload
            assert rebuilt.llm() == workload.llm()


class TestToDictMatchesAsdict:
    """``to_dict`` builds its dicts from the fields, without ``asdict``'s
    deep copy: the same keys, in the same order, with the same values."""

    @staticmethod
    def same(built: dict, expected: dict) -> None:
        assert json.dumps(built) == json.dumps(expected)
        assert built == expected

    def test_system_config(self):
        rng = random.Random(0x5CA1A)
        for _ in range(N_CASES):
            config = gen_system_config(rng)
            self.same(config.to_dict(), dataclasses.asdict(config))

    def test_workload_config_with_inline_models(self):
        rng = random.Random(0x1A57)
        inline = 0
        for _ in range(N_CASES):
            workload = gen_workload(rng)
            inline += isinstance(workload.model, LLMConfig)
            self.same(workload.to_dict(), dataclasses.asdict(workload))
        assert inline

    def test_scenario_parallel_part(self):
        rng = random.Random(0x9A7A)
        for _ in range(N_CASES):
            scenario = gen_scenario(rng)
            if scenario.parallel is not None:
                self.same(
                    scenario.to_dict()["parallel"],
                    dataclasses.asdict(scenario.parallel),
                )


class TestScenarioRoundTrip:
    def test_from_dict_to_dict_identity(self):
        rng = random.Random(0xACE)
        for _ in range(N_CASES):
            scenario = gen_scenario(rng)
            rebuilt = Scenario.from_dict(scenario.to_dict())
            assert rebuilt == scenario, scenario
            assert hash(rebuilt) == hash(scenario)

    def test_json_round_trip(self):
        rng = random.Random(0xF00D)
        for _ in range(N_CASES):
            scenario = gen_scenario(rng)
            assert Scenario.from_json(scenario.to_json()) == scenario, scenario

    def test_equal_specs_digest_equal(self):
        rng = random.Random(0x5EED)
        for _ in range(N_CASES):
            scenario = gen_scenario(rng)
            rebuilt = Scenario.from_json(scenario.to_json())
            assert scenario_digest(rebuilt) == scenario_digest(scenario)


# ---------------------------------------------------------------------------
# Mutation properties: any field change must change the store digest
# ---------------------------------------------------------------------------
def _mutations(scenario: Scenario, rng: random.Random):
    """Every applicable single-field mutation of a drawn scenario."""
    yield "name", dataclasses.replace(scenario, name=scenario.name + "-x")
    yield "description", dataclasses.replace(
        scenario, description=scenario.description + " more"
    )
    yield "max_candidates", dataclasses.replace(
        scenario, max_candidates=scenario.max_candidates + 1
    )
    if scenario.workload is not None:
        yield "workload.batch", dataclasses.replace(
            scenario,
            workload=dataclasses.replace(
                scenario.workload, batch=scenario.workload.batch + 1
            ),
        )
        yield "workload.precision_bytes", dataclasses.replace(
            scenario,
            workload=dataclasses.replace(
                scenario.workload,
                precision_bytes=scenario.workload.precision_bytes * 2,
            ),
        )
    if scenario.system is not None:
        bandwidth = scenario.system.dram_bandwidth_tbps
        yield "system.dram_bandwidth_tbps", dataclasses.replace(
            scenario,
            system=dataclasses.replace(
                scenario.system,
                dram_bandwidth_tbps=1.0 if bandwidth is None else bandwidth * 2,
            ),
        )
        yield "system.l2_policy", dataclasses.replace(
            scenario,
            system=dataclasses.replace(
                scenario.system,
                l2_policy=(
                    "l2_kv_cache"
                    if scenario.system.l2_policy == "dram"
                    else "dram"
                ),
            ),
        )
    if scenario.parallel is not None:
        yield "parallel.microbatch_size", dataclasses.replace(
            scenario,
            parallel=dataclasses.replace(
                scenario.parallel,
                microbatch_size=scenario.parallel.microbatch_size + 1,
            ),
        )
    if scenario.kind == "table":
        other = rng.choice(
            [kind for kind in TABLE_KINDS if kind != scenario.table]
        )
        yield "table", dataclasses.replace(scenario, table=other)
    if scenario.grid is not None:
        from repro.analysis.sweep import SweepGrid

        grid = scenario.grid
        first_row = grid.rows[0]
        doubled = tuple(
            value * 2 if isinstance(value, (int, float)) else value
            for value in first_row
        )
        if doubled != first_row:
            mutated_grid = SweepGrid(
                names=grid.names, rows=(doubled,) + grid.rows[1:]
            )
            yield "grid.rows", scenario.with_grid(mutated_grid)


class TestDigestIgnoresStorageMetadata:
    """The complement of the mutation property: storage-side metadata —
    provenance stamps — must NOT move the digest, or re-computing on
    another host/commit would orphan every cached entry."""

    def test_canonical_json_carries_no_storage_fields(self):
        from repro.scenarios.store import canonical_spec_json

        rng = random.Random(0x90D5)
        for _ in range(50):
            canonical = canonical_spec_json(gen_scenario(rng))
            for forbidden in (
                '"provenance"',
                '"host"',
                '"code_rev"',
                '"created_unix"',
                '"wall_time_s"',
            ):
                assert forbidden not in canonical, forbidden

    def test_digest_identical_across_provenance_stamps(self, tmp_path):
        from repro.scenarios.store import Provenance, ResultStore

        rng = random.Random(0x9A0F)
        payload = {"raw": {"series": {}}, "text": "t", "csv": None}
        for i in range(25):
            scenario = gen_scenario(rng)
            store_a = ResultStore(tmp_path / f"a{i}")
            store_b = ResultStore(tmp_path / f"b{i}")
            put_a = store_a.put(
                scenario,
                payload,
                provenance=Provenance(1, "host-a", 1.0, "rev-a", 0.1),
            )
            put_b = store_b.put(
                scenario,
                payload,
                provenance=Provenance(1, "host-b", 2.0e9, None, None),
            )
            assert put_a.digest == put_b.digest, scenario
            assert [p.name for p in store_a.cache_dir.iterdir()] == [
                p.name for p in store_b.cache_dir.iterdir()
            ]

    def test_mutating_provenance_on_disk_keeps_the_entry_warm(self, tmp_path):
        from repro.scenarios.store import Provenance, ResultStore

        rng = random.Random(0xED17)
        payload = {"raw": {"series": {}}, "text": "t", "csv": None}
        elsewhere = Provenance(
            1, "rewritten-elsewhere", 4.0e9, "feedface", 9.9
        )
        for i in range(25):
            scenario = gen_scenario(rng)
            store = ResultStore(tmp_path / str(i))
            digest = store.put(scenario, payload).digest
            # The entry rewritten on disk with another stamp.
            store.put(scenario, payload, provenance=elsewhere)
            hit = store.get(scenario)
            assert hit is not None, scenario  # still a hit, not corrupt
            assert hit.digest == digest
            assert hit.provenance.host == "rewritten-elsewhere"
            assert store.stats.corrupt == 0


class TestMutationChangesDigest:
    def test_every_single_field_mutation_changes_the_digest(self):
        rng = random.Random(0xDECADE)
        checked = 0
        for _ in range(N_CASES):
            scenario = gen_scenario(rng)
            base = scenario_digest(scenario)
            for label, mutated in _mutations(scenario, rng):
                assert scenario_digest(mutated) != base, (label, scenario)
                checked += 1
        # The generator mix must actually exercise every mutation family.
        assert checked > 5 * N_CASES

    def test_schema_version_acts_as_a_global_mutation(self, monkeypatch):
        from repro.scenarios.backends import base

        rng = random.Random(0xA11CE)
        scenarios = [gen_scenario(rng) for _ in range(50)]
        before = [scenario_digest(scenario) for scenario in scenarios]
        monkeypatch.setattr(base, "SCHEMA_VERSION", base.SCHEMA_VERSION + 1)
        for scenario, digest in zip(scenarios, before):
            assert scenario_digest(scenario) != digest
