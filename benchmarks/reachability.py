"""Which ``src/`` functions does a user surface reach?

The paper's figures and tables reach a user through the CLI, the serving
daemon, the examples and the figure benchmarks.  This script runs each
of those surfaces under a call tracer, then runs tier-1 (``tests/``)
under the same tracer, and prints per module the functions of
``src/repro`` that no surface reaches, split into those tier-1 reaches
and those nothing reaches, with totals::

    PYTHONPATH=src python benchmarks/reachability.py

Its stores and artifacts go to a temporary directory; the engine
benchmark writes the git-ignored ``.bench/``.  Tooling, not a test:
tier-1 does not run it.

The surfaces:

* the CLI, in-process: ``list`` (also ``--kind table``), then ``show``
  and ``run --out`` of every registry scenario into a ``file://`` store,
  cold and then warm; ``run fig5 --no-cache``; ``run`` of a user
  ``spec.json``; ``run-all`` over ``mem://`` stacked on that store and
  over a plain directory; ``cache stats`` on both stores, ``cache gc --max-entries 5``
  and ``cache clear``;
* every script in ``examples/``, run with :mod:`runpy`;
* a live daemon (``quiet=False``) over ``mem://?max_bytes=…,file://…``,
  sent one request per route and reply kind (:func:`_daemon_requests`);
* ``benchmarks/bench_*.py`` and ``benchmarks/perf/``, under pytest with
  ``--benchmark-disable``.

How a function is counted: every ``def`` that :mod:`ast` finds under
``src/repro`` (methods and nested functions included; lambdas,
comprehensions and dataclass-generated methods are not), keyed by file
and first line (a decorated function's code starts at its first
decorator).  The tracer is ``sys.settrace`` + ``threading.settrace`` on
call events only.  It is not a profile hook, because the work-budget
tests run cProfile, which replaces that hook; and pytest-benchmark clears
both hooks around each timed call, hence ``--benchmark-disable``.  The
surfaces and tier-1 each run in a fresh interpreter (this script runs
itself with ``--phase``), so a memo one of them fills cannot hide a call
from the other.  Subprocesses (the ``python -m repro`` smoke test, the
import probe) are not traced, and neither is the blocking ``serve``
loop.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"


# -- the functions ------------------------------------------------------------
def src_functions() -> dict[tuple[str, int], str]:
    """Every ``def`` under ``src/repro``: (file, first line) -> its
    qualified name."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        _collect(tree, str(path), "", functions)
    return functions


def _collect(node, filename: str, prefix: str, out: dict) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            out[(filename, first)] = prefix + child.name
            _collect(child, filename, f"{prefix}{child.name}.", out)
        elif isinstance(child, ast.ClassDef):
            _collect(child, filename, f"{prefix}{child.name}.", out)
        else:
            _collect(child, filename, prefix, out)


# -- the tracer ---------------------------------------------------------------
_REACHED: set[tuple[str, int]] = set()
_PREFIX = str(PACKAGE)


def _trace(frame, event, arg):
    code = frame.f_code
    if code.co_filename.startswith(_PREFIX):
        _REACHED.add((code.co_filename, code.co_firstlineno))
    return None  # no line events


def _pytest(what: str, args: list[str]) -> None:
    import pytest

    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", "--rootdir", str(REPO_ROOT), *args]
        )
    if code != 0:
        sys.stderr.write(output.getvalue()[-5000:])
        raise SystemExit(f"{what} failed under the tracer: pytest exited {code}")


# -- the surfaces -------------------------------------------------------------
def _cli(argv: list[str]) -> None:
    from repro.cli import main

    code = main(argv)
    if code != 0:
        raise SystemExit(f"surface failed: python -m repro {' '.join(argv)} -> {code}")


def _cli_surface(work: Path) -> None:
    from repro.scenarios import REGISTRY, get

    plain = work / "cli-store"
    tiered = f"mem://,file://{plain}"
    _cli(["list"])
    _cli(["list", "--kind", "table"])
    for _ in ("cold", "warm"):
        for name in REGISTRY:
            _cli(["show", name])
            _cli(["run", name, "--cache", f"file://{plain}", "--out", str(work / "out")])
    _cli(["run", "fig5", "--no-cache"])
    spec = work / "spec.json"
    spec.write_text(get("fig7-gpu").to_json())
    _cli(["run", str(spec), "--cache", str(plain)])
    _cli(["run-all", "--cache", tiered])
    _cli(["run-all", "--cache", str(work / "cli-dir")])
    for store in (str(plain), tiered):
        _cli(["cache", "stats", "--cache", store])
    _cli(["cache", "gc", "--max-entries", "5", "--cache", str(plain)])
    _cli(["cache", "clear", "--cache", str(plain)])


def _examples_surface() -> None:
    for path in sorted((REPO_ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")


def _daemon_requests(host: str, port: int) -> None:
    """One request per route and reply kind; a reply with an unexpected
    status stops the run."""
    import http.client

    from repro.scenarios import get

    conn = http.client.HTTPConnection(host, port, timeout=60)

    def call(method, path, body=None, headers=None, expect=200):
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        conn.request(method, path, body, headers or {})
        reply = conn.getresponse()
        data = reply.read()
        if expect is not None and reply.status != expect:
            raise SystemExit(f"surface failed: {method} {path} -> {reply.status} {data[:200]!r}")
        return reply, data

    def until_done(digest):
        while call("GET", f"/jobs/{digest}", expect=None)[0].status != 303:
            time.sleep(0.01)

    call("GET", "/healthz")
    call("GET", "/scenarios")
    reply, _ = call("GET", "/scenarios/fig5")
    call("GET", "/scenarios/fig5", headers={"If-None-Match": reply.getheader("ETag")}, expect=304)

    _, data = call("POST", "/run", {"scenario": "fig5"}, expect=202)
    until_done(json.loads(data)["digest"])
    call("GET", "/jobs")

    _, data = call("POST", "/run?wait=1", {"scenario": "fig6"})
    digest = json.loads(data)["digest"]
    call("POST", "/run", {"scenario": "fig6"}, {"Accept-Encoding": "gzip"})
    call("POST", "/run", {"scenario": "fig6"}, {"If-None-Match": f'"{digest}"'}, expect=304)
    inline = dict(get("fig7-gpu").to_dict(), name="reachability-inline")
    call("POST", "/run", {"scenario": inline}, {"Prefer": "wait"})

    call("POST", "/run?wait=1", {"scenarios": ["table1", "table1", "fig2b-datalink"]})
    _, data = call("POST", "/run", {"scenarios": ["fig7-gpu", "dse"]}, expect=202)
    for item in json.loads(data)["entries"]:
        if "status_url" in item:
            until_done(item["digest"])

    _, data = call("POST", "/run", {"scenario": "fig5"})
    fig5 = json.loads(data)["digest"]
    call("GET", f"/results/{fig5}")
    call("GET", f"/results/{fig5}", headers={"If-None-Match": f'"{fig5}"'}, expect=304)
    call("GET", f"/results/{fig5}/csv")
    call("GET", f"/results/{fig5}/text")
    call("GET", "/stats")
    call("GET", "/no-such-route", expect=404)
    call("POST", "/run", b"{]", expect=400)
    conn.close()


def _daemon_surface(work: Path) -> None:
    from repro.serving.testing import launch_daemon

    cache = f"mem://?max_bytes={1 << 22},file://{work / 'daemon-store'}"
    with launch_daemon(cache=cache, quiet=False) as daemon:
        _daemon_requests(daemon.host, daemon.port)


def _surfaces() -> None:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        work = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            _cli_surface(work)
            _examples_surface()
            _daemon_surface(work)
    figures = sorted(str(p) for p in (REPO_ROOT / "benchmarks").glob("bench_*.py"))
    perf = str(REPO_ROOT / "benchmarks" / "perf")
    _pytest("the benchmarks", ["--benchmark-disable", *figures, perf])


def _tier1() -> None:
    _pytest("tier-1", [str(REPO_ROOT / "tests")])


def _run_phase(phase: str, out: Path) -> None:
    # As ``PYTHONPATH=src python -m pytest`` from the repo root sees it.
    sys.path[:0] = [str(SRC), str(REPO_ROOT)]
    sys.settrace(_trace)
    threading.settrace(_trace)
    try:
        {"surfaces": _surfaces, "tier1": _tier1}[phase]()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    out.write_text(json.dumps(sorted(_REACHED)))


def _phase(phase: str, work: Path) -> set[tuple[str, int]]:
    out = work / f"{phase}.json"
    subprocess.run(
        [sys.executable, __file__, "--phase", phase, "--out", str(out)],
        cwd=REPO_ROOT,
        check=True,
    )
    return {tuple(key) for key in json.loads(out.read_text())}


# -- the report ---------------------------------------------------------------
def report(
    functions: dict[tuple[str, int], str],
    surfaces: set[tuple[str, int]],
    tier1: set[tuple[str, int]],
) -> str:
    by_module: dict[str, dict[str, list[str]]] = defaultdict(
        lambda: {"tier-1": [], "nothing": []}
    )
    for key, name in functions.items():
        if key in surfaces:
            continue
        module = Path(key[0]).relative_to(PACKAGE).as_posix()
        by_module[module]["tier-1" if key in tier1 else "nothing"].append(
            f"{name}:{key[1]}"
        )
    lines = []
    for module in sorted(by_module):
        for reach, names in by_module[module].items():
            if names:
                lines.append(f"{module}  [{reach}]  {', '.join(names)}")
    n_surface = sum(1 for key in functions if key in surfaces)
    n_tier1 = sum(1 for key in functions if key not in surfaces and key in tier1)
    n_nothing = len(functions) - n_surface - n_tier1
    lines.append(
        f"functions {len(functions)}: user surfaces reach {n_surface}; "
        f"of the {len(functions) - n_surface} they do not, tier-1 reaches "
        f"{n_tier1} and nothing reaches {n_nothing}"
    )
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--phase", choices=("surfaces", "tier1"), help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.phase:
        _run_phase(args.phase, args.out)
        return
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        surfaces = _phase("surfaces", Path(tmp))
        tier1 = _phase("tier1", Path(tmp))
    print(report(src_functions(), surfaces, tier1))


if __name__ == "__main__":
    main()
