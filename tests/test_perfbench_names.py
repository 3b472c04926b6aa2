"""Every vbx function the benchmark traces by name exists.

perfbench/tracing.py rebinds the functions listed in its TARGETS and
COUNTED tables by (module, attribute) strings, so a refactor that renames
or deletes one would only show as a broken `run.py --trace 1`. The tables
are read from the file's source, without importing or running it.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _table(name: str) -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING.name}")


def test_every_traced_and_counted_function_exists():
    pairs = [(row[0], row[1]) for row in _table("TARGETS") + _table("COUNTED")]
    assert len(pairs) >= 25
    missing = [f"{module}.{fn}" for module, fn in pairs
               if not callable(getattr(importlib.import_module(module), fn, None))]
    assert not missing, missing
