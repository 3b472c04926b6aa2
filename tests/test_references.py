"""Every top-level function of vbx is used somewhere.

A function counts as used when its name appears outside its own def in
src/, tests/ or perfbench/: as a name or attribute in code, as an
imported name, or as a string, the way perfbench/tracing.py names the
functions it traces. Sources are read, not imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names(node) -> set:
    """The identifiers that the code under node uses."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out.add(n.value)
    return out


def test_every_top_level_function_is_referenced_outside_its_def():
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text()) for p in files}
    names = {p: _names(t) for p, t in trees.items()}
    unused = []
    for path in sorted((ROOT / "src" / "vbx").glob("*.py")):
        body = trees[path].body
        per_statement = [_names(stmt) for stmt in body]
        for i, fn in enumerate(body):
            if not isinstance(fn, ast.FunctionDef):
                continue
            elsewhere = any(fn.name in n for p, n in names.items() if p != path)
            in_module = any(fn.name in n for j, n in enumerate(per_statement) if j != i)
            if not elsewhere and not in_module:
                unused.append(f"{path.name}:{fn.name}")
    assert len(files) > 30
    assert not unused, unused
