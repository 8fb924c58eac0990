"""The system benchmark's tracing seams still resolve.

``perfbench/tracing.install`` rebinds every ``(module, attribute)`` that
its ``SPANS`` table names, plus ``repro.serving.jobs.run_cached`` (the
binding that keys a job's spans to its digest).  A refactor that moves
one of them breaks every traced benchmark run, so tier-1 resolves each
target here.  Only the table is imported; nothing is installed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    """Import ``perfbench/tracing.py`` the way the benchmark does (its
    sibling ``common`` by bare name), leaving ``sys`` as it was."""
    saved_path = list(sys.path)
    saved_common = sys.modules.pop("common", None)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracing", PERFBENCH / "tracing.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("common", None)
        if saved_common is not None:
            sys.modules["common"] = saved_common
    return module


def resolve(module_name: str, path: str):
    """The function ``install`` would wrap: a class attribute is looked up
    in the class's own ``__dict__``, a module attribute by name."""
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        raw = vars(getattr(module, owner_name))[attr]
        return getattr(raw, "__func__", raw)
    return getattr(module, attr)


def test_every_traced_target_resolves():
    tracing = load_tracing()
    targets = [target for group in tracing.SPANS.values() for target in group]
    targets.append(("repro.serving.jobs", "run_cached"))
    missing = []
    for module_name, path in targets:
        try:
            function = resolve(module_name, path)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{module_name}:{path} ({type(exc).__name__})")
            continue
        if not callable(function):
            missing.append(f"{module_name}:{path} (not callable)")
    assert missing == []
    assert len(targets) > len(tracing.SPANS)
