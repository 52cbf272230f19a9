"""The benchmark's tracer wraps proxopt attributes by name (perfbench/spans.py).

A traced run drops its per-layer metrics when one of those names is gone, so
every name it lists must exist on the imported module.
"""

import ast
import importlib
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _entry_points():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no ENTRY_POINTS")


def test_every_traced_entry_point_exists():
    entries = _entry_points()
    assert entries
    missing = [
        f"{module}.{attr} ({span})"
        for module, attr, span in entries
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
