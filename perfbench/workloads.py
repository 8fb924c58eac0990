"""The three workloads and the metrics each run reports.

* ``warm-serve`` — an open loop of warm requests over two keep-alive
  connections: a fixed-rate phase, then a ladder of rising rates.
* ``cold-sweep`` — one caller in a fresh process, ``run_cached`` once per
  never-seen spec into a fresh ``file://`` store (closed loop).
* ``mixed-serve`` — the warm-serve daemon with a warm stream on
  connection one and a cold stream of fresh inline specs (202 → poll →
  303 → result) on connection two.

An untraced run reports the end-to-end metrics; a traced run (``trace``)
runs the same inputs twice — once untraced, once with the span wrappers
installed — and reports the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import loadgen
import serving
import tracing
from common import (
    BENCH_DIR,
    CHILD_ENV,
    mean,
    median,
    now,
    percentile,
    percentile_or_zero,
    read_json,
    share,
)

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: warm-serve: the fixed rate (both connections together) and the share
#: of the run it takes; the ladder gets the rest.
WARM_RATE = 150.0
FIXED_SHARE = 0.5

#: mixed-serve: warm rate on connection one, cold specs per second on
#: connection two, both for the whole run.
MIX_WARM_RATE = 100.0
COLD_RATE = 8.0

#: Untimed warm-up before the first timed request.
WARM_UP_S = 1.0

#: The warm-serve goodput ladder: coarse ×1.25 steps until a step fails,
#: then ×1.05 steps up from the last rate that passed; each step lasts
#: STEP_S.
LADDER_START = 200.0
LADDER_COARSE = 1.25
LADDER_FINE = 1.05
STEP_S = 0.8
STEP_PAUSE_S = 0.2
#: A ladder step passes when no request fails, the generator keeps up,
#: latency shows no growing backlog and its p99 stays within this limit.
P99_LIMIT_MS = 50.0

#: Warm requests pre-encoded per run beyond the fixed phase (the ladder
#: cycles through them).
LADDER_POOL = 12000

#: mixed-serve cold results re-checked through the seed flat path.
COLD_FLAT_CHECKS = 6


@dataclass
class Outcome:
    """What one run reports.  ``correct`` is whether every output check
    passed; ``failed`` also counts operations that errored, were refused
    or fell into a growing backlog."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    correct: bool
    details: dict = field(default_factory=dict)
    #: Printed beside the metrics but not gated: too host-sensitive on a
    #: shared 2-core machine to hold any bound (see perfbench/README.md).
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    #: Seconds ``run.py`` spent importing the program before set-up.
    import_s: float


# ---------------------------------------------------------------------------
# Serving workloads: set-up and phases
# ---------------------------------------------------------------------------
@dataclass
class ServeState:
    warm: serving.WarmSet
    mix: inputs.WarmMix
    pool: list[tuple[int, bytes]]
    daemon: serving.Daemon
    conns: list[loadgen.Connection]
    cold: list[inputs.ColdOp] = field(default_factory=list)
    cold_specs: list = field(default_factory=list)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.daemon.kill()


def serve_setup(ctx: Context, workdir: Path, mixed: bool, warm: serving.WarmSet | None = None, trace: bool = False) -> ServeState:
    """Inputs, preload (unless ``warm`` is given), daemon launch, warm-up."""
    if warm is None:
        warm = serving.preload(ctx.seed, workdir)
    mix = inputs.WarmMix(warm.entries, ctx.seed)
    rate = MIX_WARM_RATE if mixed else WARM_RATE
    n_timed = int(rate * ctx.seconds) + (0 if mixed else LADDER_POOL)
    pool = [mix.next(f"w{i}") for i in range(n_timed)]
    cold, cold_specs = [], []
    if mixed:
        from repro.scenarios.store import scenario_digest

        cold_specs = inputs.pool_specs(ctx.seed, int(COLD_RATE * ctx.seconds) + 10, "cold")
        cold = inputs.cold_ops(cold_specs, [scenario_digest(s) for s in cold_specs], ctx.seed)
    daemon = serving.Daemon(warm.store_url, workdir / f"daemon-{'traced' if trace else 'plain'}.json", trace)
    try:
        conns = serving.connect(daemon)
        serving.warm_up(conns[:1] if mixed else conns, mix, rate, WARM_UP_S)
    except BaseException:
        daemon.kill()
        raise
    return ServeState(warm, mix, pool, daemon, conns, cold, cold_specs)


def warm_schedule(pool, start: int, rate: float, seconds: float, n_conns: int):
    """Fixed-rate schedules (one per connection) over the request pool,
    requests alternating between connections; returns (schedules, next
    pool index)."""
    offsets = loadgen.fixed_rate_offsets(rate, seconds)
    schedules = [[] for _ in range(n_conns)]
    for i, offset in enumerate(offsets):
        template, payload = pool[(start + i) % len(pool)]
        schedules[i % n_conns].append((offset, template, payload))
    return schedules, start + len(offsets)


def wrong_replies(samples, bad: set) -> int:
    """Warm replies that were refused or failed, or whose bytes are in a
    ``bad`` (template, body hash) group."""
    return sum(1 for s in samples if s.status not in (200, 304) or (s.template, s.body_hash) in bad)


def phase_summary(name: str, rate: float, results, bad: set, limit_ms: float | None = None) -> dict:
    samples = [s for r in results for s in r.samples]
    unsent = sum(r.unsent for r in results)
    errors = sum(r.errors for r in results)
    wrong = wrong_replies(samples, bad)
    lat = [s.latency * 1e3 for s in samples]
    summary = {
        "phase": name,
        "rate": round(rate, 1),
        "sent": len(samples) + errors,
        "succeeded": len(samples) - wrong,
        "failed": wrong + errors,
        "unsent": unsent,
        "backlog": loadgen.growing_backlog(samples),
    }
    if lat:
        summary.update(
            p50_ms=percentile(lat, 50),
            p90_ms=percentile(lat, 90),
            p99_ms=percentile(lat, 99),
            window_p99_ms=window_percentile(samples, 99),
            late_p99_ms=percentile([s.late * 1e3 for s in samples], 99),
        )
    summary["pass"] = (
        bool(lat)
        and summary["failed"] == 0
        and unsent == 0
        and not summary["backlog"]
        and (limit_ms is None or summary["p99_ms"] <= limit_ms)
    )
    return summary


def window_percentile(samples, q: float, window_s: float = 1.0) -> float:
    """Median over one-second windows (by due time) of each window's
    ``q``-th percentile latency (ms)."""
    if not samples:
        return 0.0
    start = min(s.due for s in samples)
    windows: dict[int, list[float]] = {}
    for s in samples:
        windows.setdefault(int((s.due - start) / window_s), []).append(s.latency * 1e3)
    return median([percentile(v, q) for v in windows.values() if len(v) >= 20] or [0.0])


def run_ladder(run_step, start: float, deadline: float) -> tuple[float, list[dict]]:
    """Climb rates until a step fails; the goodput is the highest rate
    that passed (0 if none did)."""
    steps: list[dict] = []

    def step(rate: float) -> bool:
        summary = run_step(rate)
        steps.append(summary)
        time.sleep(STEP_PAUSE_S)
        return summary["pass"]

    best, rate, failed_at = 0.0, start, None
    while now() + STEP_S < deadline:
        if step(rate):
            best, rate = rate, rate * LADDER_COARSE
            continue
        failed_at = rate
        if best:
            break
        rate /= LADDER_COARSE  # the start rate failed: step down
        if rate < 10:
            break
    if failed_at is not None and best:
        rate = best * LADDER_FINE
        while rate < failed_at and now() + STEP_S < deadline and step(rate):
            best, rate = rate, rate * LADDER_FINE
    return best, steps


def warm_properties(state: ServeState, samples, delta: dict) -> dict:
    templates = state.mix.templates
    kinds = Counter(templates[s.template].kind for s in samples)
    total = sum(kinds.values())
    mem = delta["tiers"].get("mem", {})
    ok = [s for s in samples if s.status == 200]
    return {
        "route_mix": {kind: round(share(n, total), 4) for kind, n in sorted(kinds.items())},
        "inline_spec_share": share(kinds["run-inline"], total),
        "gzip_accept_share": share(sum(1 for s in samples if templates[s.template].gzip), total),
        "gzip_reply_share": share(sum(1 for s in ok if s.gzip), len(ok)),
        "working_set_bytes": state.warm.bytes,
        "mem_cap_bytes": state.warm.mem_cap,
        "mem_hit_share": share(mem.get("hits", 0), mem.get("hits", 0) + mem.get("misses", 0)),
    }


# ---------------------------------------------------------------------------
# warm-serve
# ---------------------------------------------------------------------------
def repeated_setups(ctx: Context, setup) -> tuple[float, object]:
    """Run ``setup(rep)`` :data:`SETUPS` times, closing all but the last;
    returns the median set-up time (``run.py``'s imports included) and the
    last state."""
    times, state = [], None
    for rep in range(SETUPS):
        if state is not None:
            state.close()
        start = now()
        state = setup(rep)
        times.append(ctx.import_s + now() - start)
    return median(times), state


def run_fixed_warm(state: ServeState, rate: float, seconds: float, start: int = 0):
    schedules, nxt = warm_schedule(state.pool, start, rate, seconds, len(state.conns))
    return loadgen.run_phase(state.conns, schedules), nxt


def verify_warm(state: ServeState, results) -> set:
    first_bodies = {}
    for result in results:
        for key, value in result.first_bodies.items():
            first_bodies.setdefault(key, value)
    return checks.bad_warm_replies(first_bodies, state.mix.templates, state.warm.expected)


def warm_serve(ctx: Context) -> Outcome:
    if ctx.trace:
        return traced_serving(ctx, mixed=False)
    setup_s, state = repeated_setups(
        ctx, lambda rep: serve_setup(ctx, ctx.work / f"setup{rep}", mixed=False)
    )
    try:
        stats_before = state.daemon.stats()
        fixed_s = ctx.seconds * FIXED_SHARE
        cpu_before = state.daemon.cpu_seconds()
        fixed, nxt = run_fixed_warm(state, WARM_RATE, fixed_s)
        cpu_s = state.daemon.cpu_seconds() - cpu_before
        all_results = list(fixed)
        cursor = [nxt]

        def run_step(rate: float) -> dict:
            schedules, cursor[0] = warm_schedule(state.pool, cursor[0], rate, STEP_S, len(state.conns))
            results = loadgen.run_phase(state.conns, schedules)
            all_results.extend(results)
            return phase_summary(f"ladder@{rate:.0f}", rate, results, set(), P99_LIMIT_MS)

        goodput, steps = run_ladder(run_step, LADDER_START, now() + ctx.seconds - fixed_s)
        stats_after = state.daemon.stats()
        report = state.daemon.stop()
    finally:
        state.close()
    bad = verify_warm(state, all_results)
    fixed_summary = phase_summary(f"fixed@{WARM_RATE:.0f}", WARM_RATE, fixed, bad)
    samples = [s for r in fixed for s in r.samples]
    lat = [s.latency * 1e3 for s in samples]
    delta = serving.counter_delta(stats_before, stats_after)
    # The daemon is fresh, so its absolute counters cover warm-up too.
    idle = cold_layers_idle(stats_after)
    computed = idle["computed"] + idle["store_puts"]
    ladder = all_results[len(fixed):]
    ladder_wrong = wrong_replies([s for r in ladder for s in r.samples], bad) + sum(r.errors for r in ladder)
    failed_fixed = fixed_summary["failed"] + fixed_summary["unsent"]
    if fixed_summary["backlog"]:
        failed_fixed = fixed_summary["sent"] + fixed_summary["unsent"]
    attempted = fixed_summary["sent"] + fixed_summary["unsent"] + sum(s["sent"] for s in steps)
    failed = failed_fixed + ladder_wrong + computed
    metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_ms_per_op": (cpu_s * 1e3 / len(samples), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
    }
    reported = {
        "lat_p50_ms": (percentile(lat, 50), "ms"),
        "lat_p99_ms": (percentile(lat, 99), "ms"),
        "goodput_rps": (goodput, "req/s"),
        "error_rate": (share(failed, attempted), "share"),
    }
    details = {
        "phases": [fixed_summary, *steps],
        "properties": warm_properties(state, samples, delta)
        | {"repeated_point_share": inputs.repeated_point_share(state.warm.warm_specs)},
        "cold_layers_idle": idle,
        "wrong_reply_groups": len(bad),
    }
    correct = not bad and computed == 0
    return Outcome(metrics, attempted, failed, correct, details, reported)


def cold_layers_idle(stats: dict) -> dict:
    """The ``/stats`` counters that must stay 0 while only warm traffic
    reaches a daemon."""
    return {"computed": stats["server"]["computed"], "store_puts": stats["store"]["counters"]["puts"]}


# ---------------------------------------------------------------------------
# mixed-serve
# ---------------------------------------------------------------------------
@dataclass
class MixedRun:
    warm: loadgen.StreamResult
    outcomes: list[loadgen.ColdOutcome]
    #: Daemon CPU seconds while the warm stream ran.
    cpu_s: float


def run_mixed(state: ServeState, seconds: float) -> MixedRun:
    """The warm stream on connection one while connection two drives the
    cold stream, both at their fixed rates for ``seconds``."""
    warm_conn, cold_conn = state.conns
    t0 = now() + 0.05
    outcomes: list[loadgen.ColdOutcome] = []
    # A duplicate is due with the op it duplicates, so it is sent while
    # that one is still in flight.
    offsets: list[float] = []
    for index, op in enumerate(state.cold):
        offsets.append(offsets[-1] if op.duplicate else index / COLD_RATE)
    cold_thread = threading.Thread(
        target=loadgen.run_cold_stream,
        args=(cold_conn, state.cold, offsets, t0, t0 + seconds, outcomes),
    )
    schedule, _ = warm_schedule(state.pool, 0, MIX_WARM_RATE, seconds, 1)
    cpu_before = state.daemon.cpu_seconds()
    cold_thread.start()
    warm = loadgen.StreamResult()
    loadgen.run_stream(warm_conn, schedule[0], t0, warm)
    cpu_s = state.daemon.cpu_seconds() - cpu_before
    cold_thread.join()
    return MixedRun(warm, outcomes, cpu_s)


def cold_op_checks(state: ServeState, outcomes, seed: int) -> checks.CheckResult:
    """Spot-check completed cold results against the seed flat path."""
    from repro.scenarios.spec import Scenario

    results = []
    for outcome in outcomes:
        if outcome.status != "done":
            continue
        op = state.cold[outcome.op_index]
        results.append((Scenario.from_dict(op.spec), checks.result_raw(outcome.body)))
    return checks.flat_check(results, seed, COLD_FLAT_CHECKS)


def mixed_serve(ctx: Context) -> Outcome:
    if ctx.trace:
        return traced_serving(ctx, mixed=True)
    setup_s, state = repeated_setups(
        ctx, lambda rep: serve_setup(ctx, ctx.work / f"setup{rep}", mixed=True)
    )
    try:
        stats_before = state.daemon.stats()
        run = run_mixed(state, ctx.seconds)
        stats_after = state.daemon.stats()
        report = state.daemon.stop()
    finally:
        state.close()
    bad = verify_warm(state, [run.warm])
    warm_summary = phase_summary(f"warm@{MIX_WARM_RATE:.0f}", MIX_WARM_RATE, [run.warm], bad)
    samples = run.warm.samples
    lat = [s.latency * 1e3 for s in samples]
    cold_lat = [o.latency * 1e3 for o in run.outcomes if o.status == "done"]
    cold_failed = sum(1 for o in run.outcomes if o.status != "done")
    flat = cold_op_checks(state, run.outcomes, ctx.seed)
    failed_warm = warm_summary["failed"] + warm_summary["unsent"]
    if warm_summary["backlog"]:
        failed_warm = warm_summary["sent"] + warm_summary["unsent"]
    attempted = warm_summary["sent"] + warm_summary["unsent"] + len(run.outcomes)
    failed = failed_warm + cold_failed + flat.failed_items
    delta = serving.counter_delta(stats_before, stats_after)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cpu_ms_per_op": (run.cpu_s * 1e3 / (len(samples) + len(run.outcomes)), "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MiB"),
    }
    reported = {
        "lat_p50_ms": (percentile(lat, 50), "ms"),
        "lat_p99_ms": (percentile(lat, 99), "ms"),
        "cold_p50_ms": (percentile_or_zero(cold_lat, 50), "ms"),
        "cold_p90_ms": (percentile_or_zero(cold_lat, 90), "ms"),
        "error_rate": (share(failed, attempted), "share"),
    }
    cold_summary = {
        "phase": f"cold@{COLD_RATE:g}",
        "rate": COLD_RATE,
        "sent": len(run.outcomes),
        "succeeded": len(run.outcomes) - cold_failed,
        "failed": cold_failed,
        "wait_share": share(sum(1 for o in run.outcomes if state.cold[o.op_index].wait), len(run.outcomes)),
        "duplicate_share": share(sum(1 for o in run.outcomes if state.cold[o.op_index].duplicate), len(run.outcomes)),
        "coalesced": sum(1 for o in run.outcomes if o.coalesced),
    }
    details = {
        "phases": [warm_summary, cold_summary],
        "cold_samples": len(cold_lat),
        "properties": warm_properties(state, samples, delta)
        | {"repeated_point_share": inputs.repeated_point_share(state.cold_specs[: len(run.outcomes)])},
        "flat_check": flat.__dict__,
        "max_rel_err": flat.max_rel_err,
        "wrong_reply_groups": len(bad),
    }
    correct = not bad and flat.failed_items == 0
    return Outcome(metrics, attempted, failed, correct, details, reported)


# ---------------------------------------------------------------------------
# Traced serving runs
# ---------------------------------------------------------------------------
def traced_serving(ctx: Context, mixed: bool) -> Outcome:
    """The same inputs twice on one preloaded store: an untraced pass,
    then a traced pass; per-layer metrics come from the traced pass."""
    half = ctx.seconds / 2
    passes = []
    warm = None
    for traced in (False, True):
        state = serve_setup(ctx, ctx.work / "trace", mixed, warm=warm, trace=traced)
        warm = state.warm
        try:
            before = state.daemon.stats()
            if mixed:
                run = run_mixed(state, half)
                warm_results, outcomes = [run.warm], run.outcomes
            else:
                warm_results, _ = run_fixed_warm(state, WARM_RATE, half)
                outcomes = []
            after = state.daemon.stats()
            report = state.daemon.stop()
        finally:
            state.close()
        passes.append((state, warm_results, outcomes, serving.counter_delta(before, after), report, after))
    return layer_outcome(ctx, passes, mixed)


def _ops_latency(warm_results, outcomes) -> list[float]:
    lat = [s.latency * 1e3 for r in warm_results for s in r.samples]
    lat += [o.latency * 1e3 for o in outcomes if o.status == "done"]
    return lat


def layer_outcome(ctx: Context, passes, mixed: bool) -> Outcome:
    (_, plain_warm, plain_cold, *_), (state, warm_results, outcomes, delta, report, after) = passes
    bad = verify_warm(state, warm_results)
    samples = [s for r in warm_results for s in r.samples]
    done = [o for o in outcomes if o.status == "done"]
    n_ops = len(samples) + len(done)
    # Span op keys -> operation: a warm request by its header id, a cold
    # op by its header id and its job compute by the job's digest.
    op_of: dict[str, str] = {}
    wire_ms: dict[str, float] = {}
    for sample in samples:
        op_of[f"w{sample.index}"] = f"w{sample.index}"
        wire_ms[f"w{sample.index}"] = (sample.done - sample.sent) * 1e3
    jobs_seen = set()
    for outcome in done:
        op = state.cold[outcome.op_index]
        op_of[op.op_id] = op.op_id
        if op.digest not in jobs_seen:
            jobs_seen.add(op.digest)
            op_of["job:" + op.digest] = op.op_id
        wire_ms[op.op_id] = sum(end - start for start, end in outcome.requests) * 1e3
    spans = report["spans"] or []
    metrics_ms = tracing.layer_metrics(spans, op_of, n_ops)
    _, _, root_ms = tracing.self_times(spans, {key: key for key in op_of})
    server_ms = sum(wire_ms[op] - root_ms.get(op, 0.0) for op in wire_ms) / n_ops
    lat = _ops_latency(warm_results, done)
    plain_lat = _ops_latency(plain_warm, [o for o in plain_cold if o.status == "done"])
    traced_mean = mean(lat)
    attributed = server_ms + sum(v for k, v in metrics_ms.items() if k.endswith("_ms"))
    mem, tiered = delta["tiers"].get("mem", {}), delta["tiers"].get("tiered", {})
    store = delta["store"]["counters"]
    jobs = delta["jobs"]
    timing, mapping = report["timing_cache"], report["mapping_cache"]
    ok = [s for s in samples if s.status == 200]
    async_ops = [o for o in done if not state.cold[o.op_index].wait]
    waits = [o.job["queue_wait_s"] * 1e3 for o in async_ops if o.job.get("queue_wait_s") is not None]
    runs = [o.job["wall_time_s"] * 1e3 for o in async_ops if o.job.get("wall_time_s") is not None]
    failed = wrong_replies(samples, bad)
    failed += sum(r.errors + r.unsent for r in warm_results) + sum(1 for o in outcomes if o.status != "done")
    computed = 0 if mixed else sum(cold_layers_idle(after).values())
    failed += computed
    per_layer = dict(metrics_ms)
    per_layer.update(
        {
            "serving.server.self_ms": server_ms,
            "serving.server.gzip_share": share(sum(1 for s in ok if s.gzip), len(ok)),
            "scenarios.store.hit_share": share(store["hits"], store["hits"] + store["misses"]),
            "scenarios.store.corrupt": store["corrupt"],
            "scenarios.backends.mem_hit_share": share(mem.get("hits", 0), mem.get("hits", 0) + mem.get("misses", 0)),
            "scenarios.backends.promotions": share(tiered.get("promotions", 0), n_ops),
            "scenarios.backends.evictions": share(mem.get("evictions", 0), n_ops),
            "serving.jobs.wait_p50_ms": percentile_or_zero(waits, 50),
            "serving.jobs.wait_p90_ms": percentile_or_zero(waits, 90),
            "serving.jobs.run_ms": mean(runs),
            "serving.jobs.coalesced_share": share(jobs["coalesced"], jobs["submitted"] + jobs["coalesced"]),
            "serving.jobs.rejected": jobs["rejected"],
            "serving.jobs.polls_per_job": mean(o.polls for o in async_ops) if async_ops else 0.0,
            "parallel.mapper.hit_share": share(mapping["hits"], mapping["hits"] + mapping["misses"]),
            "core.timing_cache.hit_share": share(timing["hits"], timing["hits"] + timing["misses"]),
            "core.timing_cache.misses": share(timing["misses"], n_ops),
            "gen.late_p99_ms": percentile([s.late * 1e3 for s in samples], 99),
            "gen.sent": len(samples) + len(outcomes),
            "gen.failed": failed,
            "gen.repeated_point_share": inputs.repeated_point_share(
                state.cold_specs[: len(outcomes)] if mixed else state.warm.warm_specs
            ),
            "trace.overhead_share": median(lat) / median(plain_lat) - 1.0,
            "trace.unattributed_ms": traced_mean - attributed,
        }
    )
    details = {
        "ops": n_ops,
        "traced_mean_ms": traced_mean,
        "traced_p50_ms": median(lat),
        "untraced_p50_ms": median(plain_lat),
        "spans": tracing.span_count(spans),
    }
    attempted = n_ops + len(outcomes) - len(done)
    return Outcome(per_layer_units(per_layer), attempted, failed, not bad and computed == 0, details)


# ---------------------------------------------------------------------------
# cold-sweep
# ---------------------------------------------------------------------------
def cold_child(ctx: Context, workdir: Path, seconds: float, setup_only: bool = False, trace: bool = False) -> dict:
    """Run the cold-sweep caller in a fresh process; returns its summary
    plus ``setup_s`` (spawn to the end of its set-up)."""
    out = workdir / ("setup.json" if setup_only else f"sweep-{'traced' if trace else 'plain'}.json")
    command = [
        sys.executable,
        str(BENCH_DIR / "coldsweep.py"),
        "--seed", str(ctx.seed),
        "--seconds", str(seconds),
        "--workdir", str(workdir / ("traced" if trace else "plain")),
        "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    start = now()
    subprocess.run(command, check=True, env=CHILD_ENV, timeout=seconds + 120)
    summary = read_json(out)
    summary["setup_s"] = ctx.import_s + summary["setup_end"] - start
    shutil.rmtree(workdir / ("traced" if trace else "plain"), ignore_errors=True)
    return summary


def cold_sweep(ctx: Context) -> Outcome:
    if ctx.trace:
        return traced_cold_sweep(ctx)
    # Every set-up generates the same spec stream as the timed one.
    setups = [
        cold_child(ctx, ctx.work / f"setup{rep}", ctx.seconds, setup_only=True)["setup_s"]
        for rep in range(SETUPS - 1)
    ]
    summary = cold_child(ctx, ctx.work / "sweep", ctx.seconds)
    setups.append(summary["setup_s"])
    lat = [x * 1e3 for x in summary["latencies"]]
    golden, flat = summary["golden"], summary["flat"]
    failed = golden["failed_items"] + flat["failed_items"]
    missing = sorted(set(inputs.FIGURE_SCENARIOS) - set(summary["figures_checked"]))
    failed += len(missing)
    metrics = {
        "setup_s": (median(setups), "s"),
        "cpu_ms_per_op": (summary["cpu_s"] * 1e3 / len(lat), "ms"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MiB"),
    }
    reported = {
        "cold_p50_ms": (percentile(lat, 50), "ms"),
        "cold_p90_ms": (percentile(lat, 90), "ms"),
        "points_per_s": (sum(summary["points"]) / sum(summary["latencies"]), "points/s"),
        "error_rate": (share(failed, len(lat)), "share"),
    }
    details = {
        "calls": len(lat),
        "points": sum(summary["points"]),
        "golden_check": golden,
        "flat_check": flat,
        "missing_figures": missing,
        "max_rel_err": max(golden["max_rel_err"], flat["max_rel_err"]),
        "properties": {"repeated_point_share": summary["repeated_point_share"]},
    }
    return Outcome(metrics, len(lat), failed, failed == 0, details, reported)


def traced_cold_sweep(ctx: Context) -> Outcome:
    half = ctx.seconds / 2
    plain = cold_child(ctx, ctx.work / "trace", half)
    traced = cold_child(ctx, ctx.work / "trace", half, trace=True)
    n_ops = len(traced["latencies"])
    common = min(n_ops, len(plain["latencies"]))
    traced_p50 = median(traced["latencies"][:common]) * 1e3
    plain_p50 = median(plain["latencies"][:common]) * 1e3
    op_of = {str(i): str(i) for i in range(n_ops)}
    spans = traced["spans"] or []
    per_layer = tracing.layer_metrics(spans, op_of, n_ops)
    mean_all = mean(traced["latencies"]) * 1e3
    attributed = sum(v for k, v in per_layer.items() if k.endswith("_ms"))
    counters = traced["counters"]
    timing, mapping, store = counters["timing_cache"], counters["mapping_cache"], counters["store"]
    failed = traced["golden"]["failed_items"] + traced["flat"]["failed_items"]
    per_layer.update(
        {
            "serving.server.self_ms": 0.0,
            "serving.server.gzip_share": 0.0,
            "scenarios.store.hit_share": share(store["hits"], store["lookups"]),
            "scenarios.store.corrupt": store["corrupt"],
            "scenarios.backends.mem_hit_share": 0.0,
            "scenarios.backends.promotions": 0.0,
            "scenarios.backends.evictions": 0.0,
            "serving.jobs.wait_p50_ms": 0.0,
            "serving.jobs.wait_p90_ms": 0.0,
            "serving.jobs.run_ms": 0.0,
            "serving.jobs.coalesced_share": 0.0,
            "serving.jobs.rejected": 0,
            "serving.jobs.polls_per_job": 0.0,
            "parallel.mapper.hit_share": share(mapping["hits"], mapping["hits"] + mapping["misses"]),
            "core.timing_cache.hit_share": share(timing["hits"], timing["hits"] + timing["misses"]),
            "core.timing_cache.misses": share(timing["misses"], n_ops),
            "gen.late_p99_ms": 0.0,
            "gen.sent": n_ops,
            "gen.failed": failed,
            "gen.repeated_point_share": traced["repeated_point_share"],
            "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
            "trace.unattributed_ms": mean_all - attributed,
        }
    )
    details = {"ops": n_ops, "traced_mean_ms": mean_all, "spans": tracing.span_count(spans)}
    return Outcome(per_layer_units(per_layer), n_ops, failed, failed == 0, details)


# ---------------------------------------------------------------------------
# Units
# ---------------------------------------------------------------------------
def per_layer_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    return {name: (value, per_layer_unit(name)) for name, value in values.items()}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_share"):
        return "share"
    if name.endswith(".calls"):
        return "calls/op"
    if name in ("core.timing_cache.misses", "scenarios.backends.promotions", "scenarios.backends.evictions"):
        return "count/op"
    if name == "serving.jobs.polls_per_job":
        return "polls/job"
    return "count"


WORKLOADS = {
    "warm-serve": warm_serve,
    "cold-sweep": cold_sweep,
    "mixed-serve": mixed_serve,
}
