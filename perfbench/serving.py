"""Shared serving set-up: preload a store, launch the daemon, warm it up.

The daemon under test runs in its own process (:mod:`launcher`) on a
``mem://?max_bytes=<cap>,file://<dir>`` store.  The store is preloaded
by a separate process (:mod:`preload`) with every registry result plus
the seeded warm specs, so the daemon starts with empty compute caches.
The mem-tier cap is a fixed share of the preloaded working set, so a
minority of warm reads fall through to ``file://``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import inputs
import loadgen
from common import BENCH_DIR, CHILD_ENV, read_json, write_json

#: Generated specs preloaded beside the registry results.
WARM_SPECS = 200

#: Mem-tier byte cap as a share of the preloaded working set.
MEM_SHARE = 0.6

#: Seconds a launcher may take to exit on SIGTERM.
STOP_TIMEOUT_S = 30.0


class Daemon:
    """One launcher process: the daemon under test."""

    def __init__(self, store_url: str, out: Path, trace: bool) -> None:
        self.out = out
        command = [sys.executable, str(BENCH_DIR / "launcher.py"), "--store", store_url, "--out", str(out)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=CHILD_ENV)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"daemon launcher failed to start (printed {line!r})")
        self.port = int(line)
        self.report: dict | None = None

    def cpu_seconds(self) -> float:
        """CPU time (user + system) the daemon process has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stats(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/stats"
        with urllib.request.urlopen(url, timeout=30) as reply:
            return json.loads(reply.read())

    def stop(self) -> dict:
        """SIGTERM the launcher, wait, and return what it wrote."""
        if self.report is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise
            self.proc.stdout.close()
            self.report = read_json(self.out)
        return self.report

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


@dataclass
class WarmSet:
    """The preloaded working set and what every warm reply must equal."""

    store_dir: Path
    entries: list[inputs.WarmEntry]
    #: digest -> the entry's artifacts (raw/text/csv)
    expected: dict[str, dict]
    warm_specs: list = field(default_factory=list)

    @property
    def bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.entries)

    @property
    def mem_cap(self) -> int:
        return int(self.bytes * MEM_SHARE)

    @property
    def store_url(self) -> str:
        return f"mem://?max_bytes={self.mem_cap},file://{self.store_dir}"


def preload(seed: int, workdir: Path) -> WarmSet:
    """Compute the warm working set into ``workdir/store`` (in a child
    process) and read back every entry."""
    from repro.scenarios.registry import REGISTRY
    from repro.scenarios.store import scenario_digest

    workdir.mkdir(parents=True, exist_ok=True)
    specs = inputs.pool_specs(seed, WARM_SPECS, "warm")
    specs_file = workdir / "warm-specs.json"
    write_json(specs_file, [spec.to_dict() for spec in specs])
    store_dir = workdir / "store"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "preload.py"), "--store", f"file://{store_dir}", "--specs", str(specs_file)],
        check=True,
        env=CHILD_ENV,
    )
    names = {scenario_digest(scenario): name for name, scenario in REGISTRY.items()}
    entries, expected = [], {}
    order = [*names, *(scenario_digest(spec) for spec in specs)]
    for digest in dict.fromkeys(order):
        data = (store_dir / f"{digest}.json").read_bytes()
        entry = json.loads(data)
        entries.append(
            inputs.WarmEntry(
                digest=digest,
                name=names.get(digest),
                spec=entry["scenario"],
                has_csv=entry["artifacts"]["csv"] is not None,
                size_bytes=len(data),
            )
        )
        expected[digest] = entry["artifacts"]
    return WarmSet(store_dir, entries, expected, specs)


def connect(daemon: Daemon, n: int = 2) -> list[loadgen.Connection]:
    return [loadgen.Connection("127.0.0.1", daemon.port) for _ in range(n)]


def warm_up(conns, mix: inputs.WarmMix, rate: float, seconds: float) -> None:
    """Untimed traffic at the phase rate, so lazy imports, first-touch
    promotions and the hot mem-tier set settle before timing."""
    offsets = loadgen.fixed_rate_offsets(rate, seconds)
    schedules = [[] for _ in conns]
    for i, offset in enumerate(offsets):
        template, payload = mix.next(f"u{i}")
        schedules[i % len(conns)].append((offset, template, payload))
    loadgen.run_phase(conns, schedules)


def tier_counters(stats: dict) -> dict[str, dict]:
    """Per-tier backend counters of a ``/stats`` reply, by tier kind, plus
    the tiered store's own counters under ``"tiered"``."""
    backend = stats["store"]["backend"]
    counters = {tier["kind"]: tier["counters"] for tier in backend.get("tiers", [])}
    counters["tiered"] = backend["counters"]
    return counters


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` over the numeric counters of two ``/stats``
    replies (per-tier backend counters under ``"tiers"``)."""

    def diff(old: dict, new: dict) -> dict:
        delta = {}
        for key, value in new.items():
            if isinstance(value, dict):
                delta[key] = diff(old.get(key) or {}, value)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                delta[key] = value - (old.get(key) or 0)
        return delta

    delta = diff(before, after)
    delta["tiers"] = diff(tier_counters(before), tier_counters(after))
    return delta
