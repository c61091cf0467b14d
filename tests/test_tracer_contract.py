"""The names the slot benchmark's tracer wraps still exist.

``perfbench/tracing.py`` installs its spans by replacing module
attributes and class methods named in four tables (``_COMMON``,
``_CLIENT``, ``_SERVICE``, ``_WORKER``).  A refactor that renames or moves
one of them breaks ``perfbench/run.py --trace 1`` with a ``KeyError`` or
``AttributeError``; this test resolves every entry the way
``Recorder._patch`` does, so the break shows up in the unit tests instead.
It only reads ``perfbench/``.
"""

import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
KINDS = {"sync", "async"}


def _tables() -> dict[str, tuple]:
    namespace: dict = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return {
        name: tuple(namespace[name])
        for name in ("_COMMON", "_CLIENT", "_SERVICE", "_WORKER")
    }


ENTRIES = [
    pytest.param(entry, id=f"{table}:{entry[1]}.{entry[2]}")
    for table, entries in _tables().items()
    for entry in entries
]


@pytest.mark.parametrize("entry", ENTRIES)
def test_traced_name_resolves(entry):
    _span, module, path, kind = entry
    assert kind in KINDS
    owner: object = importlib.import_module(module)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # _patch reads the class's own __dict__: an inherited method
        # would be a KeyError there.
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    assert callable(original)
    if kind == "async":
        assert inspect.iscoroutinefunction(original)


def test_tables_are_not_empty():
    tables = _tables()
    assert tables["_SERVICE"] and tables["_WORKER"] and tables["_CLIENT"]
