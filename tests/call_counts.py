"""Call counts of a cProfile run, summed per function label.

Both work budgets (``tests/core/test_cold_work_budget.py`` and
``tests/serving/test_work_budget.py``) count calls with this module.
``pstats.Stats`` is not used for that: it keeps one row per (file, first
line, name) label, so when two code objects share a label the second one's
row replaces the first.  Every dataclass-generated method shares one
(``("<string>", 2, "__init__")`` for every ``__init__``), so ``pstats``
would count the calls of one class only.  ``Profile.getstats()`` gives one
entry per code object, and this module adds up the entries of each label.

A builtin is labelled by its name, without the object address that some
builtins' names carry (it differs from run to run).
"""

from __future__ import annotations

import cProfile
import re
import sysconfig
from collections import Counter

#: The address some builtins' names carry (``… of type object at 0x…``).
_ADDRESS = re.compile(r" at 0x[0-9a-f]+")
_STDLIB = sysconfig.get_paths()["stdlib"]


def calls_per_label(
    profiler: cProfile.Profile,
) -> Counter[tuple[str, int, str]]:
    """Calls per ``(file, first line, name)`` label of a finished profile,
    builtins as ``("~", 0, name)`` (the labels ``pstats`` uses)."""
    calls: Counter[tuple[str, int, str]] = Counter()
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            label = ("~", 0, _ADDRESS.sub("", code))
        else:
            label = (code.co_filename, code.co_firstlineno, code.co_name)
        calls[label] += entry.callcount
    return calls


def _where(filename: str) -> str:
    """A profiled function's file, without the install prefix."""
    if "/repro/" in filename:
        return "repro/" + filename.rsplit("/repro/", 1)[1]
    if filename.startswith(_STDLIB):
        return filename[len(_STDLIB) :].lstrip("/")
    return filename


def calls_per_function(
    calls: Counter[tuple[str, int, str]],
) -> Counter[str]:
    """``calls`` keyed ``file:name``, the file without its install prefix
    (the keys the budgets pin; functions of one name in one file add up)."""
    functions: Counter[str] = Counter()
    for (filename, _, name), n in calls.items():
        functions[f"{_where(filename)}:{name}"] += n
    return functions
