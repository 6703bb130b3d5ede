"""Every name the benchmark tracer wraps exists in the library.

``perfbench/tracing.py`` rebinds each (module, attribute) of its ``TRACED``
table; a name removed from ``zetakit`` would otherwise surface only when a
traced benchmark run starts.  The table is read with ``ast.literal_eval``,
so the tracer is not imported."""

import ast
import importlib
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced(source: str) -> tuple:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("no TRACED table")


def _missing(table) -> list:
    return [(module, attr) for module, attr, _ in table
            if not callable(getattr(importlib.import_module(f"zetakit.{module}"), attr, None))]


def test_every_traced_name_exists():
    table = _traced(TRACING.read_text())
    assert len(table) >= 20
    assert _missing(table) == []


def test_a_missing_name_is_caught():
    table = _traced('TRACED = (("kernels", "gamma", "k"), ("shift", "no_such_name", "s"))\n')
    assert _missing(table) == [("shift", "no_such_name")]
