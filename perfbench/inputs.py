"""Seeded workload inputs: scenario specs and pre-encoded HTTP requests.

Everything a run sends is generated here from the workload seed before
any timing starts, so the timed loops only move bytes.  Specs derive
from the registry's training, inference and dse scenarios:

* :func:`sweep_specs` redraws every continuous knob from a continuous
  range, so no (system, workload, point) repeats across specs — the
  cold-sweep stream, where nothing a cache or memo holds is reused;
* :func:`pool_specs` re-grids over small fixed value pools, so most
  points recur across specs — the daemon's preloaded warm set and the
  mixed-serve cold stream.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from common import REQUEST_ID_HEADER

#: Continuous ranges a redrawn knob is sampled from: (scale, low, high).
CONTINUOUS: dict[str, tuple[str, float, float]] = {
    "dram_bandwidth_tbps": ("log", 0.5, 64.0),
    "dram_latency_ns": ("lin", 10.0, 200.0),
    "dram_outstanding_kib": ("lin", 256.0, 2048.0),
    "l2_total_bytes": ("log", 4.19e9, 64e9),
    "gpu_stream_low_ai": ("lin", 0.15, 0.45),
    "gpu_ib_alpha_us": ("lin", 0.2, 1.0),
    "gpu_kernel_launch_overhead_us": ("lin", 0.0, 1.0),
}

#: The small fixed pools :func:`pool_specs` draws the same knobs from.
POOLS: dict[str, tuple[float, ...]] = {
    "dram_bandwidth_tbps": (4.0, 16.0, 32.0),
    "dram_latency_ns": (50.0, 150.0),
    "dram_outstanding_kib": (256.0, 2048.0),
    "l2_total_bytes": (4.19e9, 64e9),
    "gpu_stream_low_ai": (0.15, 0.45),
    "gpu_ib_alpha_us": (0.2, 1.0),
    "gpu_kernel_launch_overhead_us": (0.0, 1.0),
}

#: The registry's Fig. 5-8 scenarios; the cold-sweep stream carries them
#: verbatim so their series can be checked against the seed goldens.
FIGURE_SCENARIOS = (
    "fig5",
    "fig6",
    "fig7-bandwidth",
    "fig7-dram-latency",
    "fig7-batch",
    "fig7-gpu",
    "fig8-models",
    "fig8-batch",
)

Draw = Callable[[random.Random, str], float]


def draw_continuous(rng: random.Random, knob: str) -> float:
    scale, low, high = CONTINUOUS[knob]
    if scale == "log":
        return low * (high / low) ** rng.random()
    return rng.uniform(low, high)


def draw_pooled(rng: random.Random, knob: str) -> float:
    return rng.choice(POOLS[knob])


def templates() -> list:
    """Registry scenarios a generated spec may derive from."""
    from repro.scenarios.registry import REGISTRY

    return [
        scenario
        for scenario in REGISTRY.values()
        if scenario.kind in ("training", "inference", "dse")
    ]


def _redraw_system(config, rng: random.Random, draw: Draw, bandwidth: float):
    if config is None:
        return None
    if config.kind == "gpu":
        return replace(config, gpu_stream_low_ai=draw(rng, "gpu_stream_low_ai"))
    return replace(config, dram_bandwidth_tbps=bandwidth)


def derive(template, name: str, rng: random.Random, draw: Draw):
    """One spec from ``template``: base-system knobs redrawn, a random half
    of the grid's rows kept, every continuous axis value redrawn."""
    from repro.analysis.sweep import SweepGrid

    bandwidth = draw(rng, "dram_bandwidth_tbps")
    spec = replace(
        template,
        name=name,
        system=_redraw_system(template.system, rng, draw, bandwidth),
        ref_system=_redraw_system(template.ref_system, rng, draw, bandwidth),
    )
    grid = template.grid
    if grid is None:
        return spec
    keep = sorted(rng.sample(range(len(grid.rows)), (len(grid.rows) + 1) // 2))
    knobs = [axis.partition(".")[2] for axis in grid.names]
    rows = tuple(
        tuple(
            draw(rng, knob) if value is not None and knob in CONTINUOUS else value
            for knob, value in zip(knobs, grid.rows[index])
        )
        for index in keep
    )
    return spec.with_grid(SweepGrid(names=grid.names, rows=rows))


def derived_specs(rng: random.Random, n: int, tag: str, draw: Draw) -> list:
    """``n`` specs cycling through the templates from a seeded start, so
    every seed runs the same template mix."""
    pool = templates()
    start = rng.randrange(len(pool))
    return [
        derive(pool[(start + i) % len(pool)], f"{tag}-{i}", rng, draw)
        for i in range(n)
    ]


def sweep_specs(seed: int, n: int) -> list:
    """The cold-sweep stream: the Fig. 5-8 registry scenarios at seeded
    positions among the first forty specs, the rest derived with every
    knob redrawn from a continuous range."""
    from repro.scenarios.registry import REGISTRY

    rng = random.Random(f"cold-sweep/{seed}")
    specs = derived_specs(rng, n, f"sweep-{seed}", draw_continuous)
    positions = rng.sample(range(min(40, n)), min(len(FIGURE_SCENARIOS), n))
    for position, name in zip(positions, FIGURE_SCENARIOS):
        specs[position] = REGISTRY[name]
    return specs


def pool_specs(seed: int, n: int, tag: str) -> list:
    """``n`` specs re-gridded over the fixed value pools (points recur)."""
    return derived_specs(random.Random(f"{tag}/{seed}"), n, f"{tag}-{seed}", draw_pooled)


def point_keys(scenario) -> list[str]:
    """One key per evaluated (system, workload, point) of a spec — what a
    point-level memo would be keyed by."""
    from repro.scenarios.runner import apply_axes

    base = scenario.with_grid(None)
    params_list = list(scenario.grid.points()) if scenario.grid else [{}]
    keys = []
    for params in params_list:
        point = apply_axes(base, params).to_dict()
        for field_name in ("name", "description", "grid", "extract"):
            point.pop(field_name)
        keys.append(json.dumps(point, sort_keys=True))
    return keys


def repeated_point_share(specs: Sequence) -> float:
    """Share of evaluated points whose key already occurred in an earlier
    spec of the sequence."""
    seen: set[str] = set()
    total = repeated = 0
    for spec in specs:
        keys = point_keys(spec)
        total += len(keys)
        repeated += sum(1 for key in keys if key in seen)
        seen.update(keys)
    return repeated / total if total else 0.0


# ---------------------------------------------------------------------------
# HTTP requests
# ---------------------------------------------------------------------------
def encode_request(
    method: str,
    path: str,
    op_id: str,
    body: bytes = b"",
    headers: Sequence[tuple[str, str]] = (),
) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: bench", f"{REQUEST_ID_HEADER}: {op_id}"]
    lines += [f"{name}: {value}" for name, value in headers]
    if method in ("POST", "PUT"):
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


@dataclass(frozen=True)
class WarmEntry:
    """One preloaded result the warm stream may ask for."""

    digest: str
    #: Registry name (``POST /run`` by name); ``None`` for generated specs.
    name: str | None
    spec: dict
    has_csv: bool
    size_bytes: int


#: Warm route mix: (kind, weight).  ``run-name`` is the majority; the two
#: ``inm-*`` kinds revalidate with ``If-None-Match`` and expect 304.
WARM_ROUTES = (
    ("run-name", 0.40),
    ("run-inline", 0.12),
    ("result", 0.16),
    ("csv", 0.08),
    ("text", 0.08),
    ("inm-run", 0.08),
    ("inm-result", 0.08),
)

#: Share of warm requests that send ``Accept-Encoding: gzip``.
GZIP_SHARE = 0.3

#: Zipf exponent of digest popularity over the working set.
ZIPF_S = 1.0


@dataclass(frozen=True)
class WarmTemplate:
    """A distinct warm request shape; responses are grouped by it for the
    byte-identity check."""

    kind: str
    digest: str
    gzip: bool


def _zipf_cum_weights(n: int) -> list[float]:
    total = 0.0
    cum = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** ZIPF_S
        cum.append(total)
    return cum


class WarmMix:
    """Seeded warm request generator over one preloaded working set."""

    def __init__(self, entries: Sequence[WarmEntry], seed: int) -> None:
        self.rng = random.Random(f"warm-mix/{seed}")
        # Popularity follows the entries' order: registry results first,
        # in registry order, then the generated specs in generation order.
        populations = {
            "all": list(entries),
            "named": [e for e in entries if e.name is not None],
            "csv": [e for e in entries if e.has_csv],
        }
        self._populations = {
            key: (members, _zipf_cum_weights(len(members)))
            for key, members in populations.items()
        }
        self._kinds = [kind for kind, _ in WARM_ROUTES]
        self._kind_weights = [weight for _, weight in WARM_ROUTES]
        self.templates: list[WarmTemplate] = []
        self._template_index: dict[WarmTemplate, int] = {}

    def _pick(self, population: str) -> WarmEntry:
        members, cum_weights = self._populations[population]
        return self.rng.choices(members, cum_weights=cum_weights)[0]

    def template_id(self, template: WarmTemplate) -> int:
        index = self._template_index.get(template)
        if index is None:
            index = self._template_index[template] = len(self.templates)
            self.templates.append(template)
        return index

    def next(self, op_id: str) -> tuple[int, bytes]:
        """One warm request: (template id, encoded bytes)."""
        kind = self.rng.choices(self._kinds, weights=self._kind_weights)[0]
        gzip = self.rng.random() < GZIP_SHARE
        if kind in ("run-name", "inm-run"):
            entry = self._pick("named")
        elif kind == "csv":
            entry = self._pick("csv")
        else:
            entry = self._pick("all")
        headers = [("Accept-Encoding", "gzip")] if gzip else []
        if kind.startswith("inm-"):
            headers.append(("If-None-Match", f'"{entry.digest}"'))
        if kind in ("run-name", "inm-run"):
            body = json.dumps({"scenario": entry.name}).encode()
            payload = encode_request("POST", "/run", op_id, body, headers)
        elif kind == "run-inline":
            body = json.dumps({"scenario": entry.spec}).encode()
            payload = encode_request("POST", "/run", op_id, body, headers)
        elif kind in ("result", "inm-result"):
            payload = encode_request("GET", f"/results/{entry.digest}", op_id, headers=headers)
        else:
            payload = encode_request(
                "GET", f"/results/{entry.digest}/{kind}", op_id, headers=headers
            )
        return self.template_id(WarmTemplate(kind, entry.digest, gzip)), payload


@dataclass(frozen=True)
class ColdOp:
    """One mixed-serve cold operation, every message pre-encoded."""

    op_id: str
    digest: str
    spec: dict
    #: ``?wait=1``: one synchronous POST answers with the artifacts.
    wait: bool
    #: Re-submits the previous op's spec while that one is in flight.
    duplicate: bool
    post: bytes
    poll: bytes
    fetch: bytes


#: Shares of the mixed-serve cold stream sent with ``?wait=1`` and sent
#: as a duplicate of the spec just submitted.
WAIT_SHARE = 0.15
DUPLICATE_SHARE = 0.15


def cold_ops(specs: Sequence, digests: Sequence[str], seed: int) -> list[ColdOp]:
    rng = random.Random(f"cold-ops/{seed}")
    ops: list[ColdOp] = []
    for index, (spec, digest) in enumerate(zip(specs, digests)):
        draw = rng.random()
        # Only an async op is still in flight when the next one is sent.
        duplicate = (
            bool(ops)
            and not (ops[-1].wait or ops[-1].duplicate)
            and draw < DUPLICATE_SHARE
        )
        wait = not duplicate and DUPLICATE_SHARE <= draw < DUPLICATE_SHARE + WAIT_SHARE
        if duplicate:
            spec_dict, digest = ops[-1].spec, ops[-1].digest
        else:
            spec_dict = spec.to_dict()
        op_id = f"c{index}"
        body = json.dumps({"scenario": spec_dict}).encode()
        ops.append(
            ColdOp(
                op_id=op_id,
                digest=digest,
                spec=spec_dict,
                wait=wait,
                duplicate=duplicate,
                post=encode_request("POST", "/run?wait=1" if wait else "/run", op_id, body),
                poll=encode_request("GET", f"/jobs/{digest}", op_id),
                fetch=encode_request("GET", f"/results/{digest}", op_id),
            )
        )
    return ops
