"""The work budgets' call counter sums every code object of a label."""

from __future__ import annotations

import cProfile
from dataclasses import dataclass

from call_counts import calls_per_function, calls_per_label


@dataclass
class _Point:
    x: int


@dataclass
class _Pair:
    a: int
    b: int


def test_dataclass_methods_sharing_a_label_all_count():
    # Both generated __init__s are labelled ("<string>", 2, "__init__");
    # pstats keeps one row per label, so it would count 7 here.
    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(100):
        _Point(i)
    for i in range(7):
        _Pair(i, i)
    profiler.disable()
    calls = calls_per_label(profiler)
    inits = {label: n for label, n in calls.items() if label[2] == "__init__"}
    assert len(inits) == 1
    assert sum(inits.values()) == 107
    assert calls_per_function(calls)["<string>:__init__"] == 107


def test_builtins_are_counted_by_name_without_addresses():
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(3):
        object.__new__(_Point)
    profiler.disable()
    functions = calls_per_function(calls_per_label(profiler))
    new = [key for key in functions if "__new__" in key]
    assert new == ["~:<built-in method __new__ of type object>"]
    assert functions[new[0]] == 3
