"""Mutation testing of a vbx source file, with the standard library only.

Usage:

    python tests/mutants.py src/vbx/dets.py
    python tests/mutants.py src/vbx/calculus.py --function _Trial.chosen --function _Trial.maps

Every mutant changes one token of the file's text, found through its
`ast`, and leaves every other byte alone, so line counts and comments stay
as they are. The operators:

* comparison flips: < and <=, > and >=, == and !=, `is` and `is not`,
  `in` and `not in`;
* arithmetic swaps: + and -, * and /, also in augmented assignments;
* the names maximum and minimum, argmax and argmin, any and all;
* a dropped `not`, or a dropped `~`, its array form;
* integer literals plus and minus 1.

Each mutant runs in one copy of the repository (under --work, else a new
temporary directory), against the test files that import the mutated
module; each survivor then runs against every test. A survivor listed in
mutants_equivalent.json, beside this script, with the argument that it
computes what the original computes, counts as equivalent. The script
prints one line per mutant and the counts, and exits 1 when a survivor is
not listed. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EQUIVALENT = Path(__file__).with_name("mutants_equivalent.json")
TIMEOUT = 900  # seconds for one test run; a mutant that loops forever is killed

_COMPARE = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
            ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
_WORDS = {ast.Is: (r"is(?!\s+not)", "is not"), ast.IsNot: (r"is\s+not", "is"),
          ast.In: (r"in", "not in"), ast.NotIn: (r"not\s+in", "in")}
_ARITH = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}
_NAMES = {"maximum": "minimum", "minimum": "maximum", "argmax": "argmin", "argmin": "argmax",
          "any": "all", "all": "any"}


class Mutant:
    """One edit of the source bytes: [start, stop) becomes new."""

    def __init__(self, line: int, function: str, start: int, stop: int, old: str, new: str):
        self.line, self.function = line, function
        self.start, self.stop, self.old, self.new = start, stop, old, new

    def apply(self, src: bytes) -> bytes:
        return src[:self.start] + self.new.encode() + src[self.stop:]

    def key(self, src: bytes) -> tuple:
        """How mutants_equivalent.json names the mutant: its function, its
        line's text and the edit, so that moving the line keeps the entry."""
        text = src.splitlines()[self.line - 1].decode().strip()
        return self.function, text, f"{self.old} -> {self.new}"


class _Finder(ast.NodeVisitor):
    """The mutants of a module, in source order, within the functions named
    (qualified names such as _Trial.chosen), else everywhere."""

    def __init__(self, src: bytes, functions):
        self.src, self.functions, self.scope, self.found = src, functions, [], []
        self.seen = set()  # the qualified names of the functions and classes met
        self.starts = [0]
        for line in src.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def at(self, line: int, col: int) -> int:
        return self.starts[line - 1] + col

    def wanted(self) -> bool:
        name = ".".join(self.scope)
        return not self.functions or any(name == f or name.startswith(f + ".")
                                         for f in self.functions)

    def add(self, node, start: int, stop: int, new: str) -> None:
        old = self.src[start:stop].decode()
        self.found.append(Mutant(node.lineno, ".".join(self.scope) or "<module>",
                                 start, stop, old, new))

    def between(self, node, left, right, pattern: str, new: str) -> None:
        """The operator matching pattern between the nodes left and right,
        past any parentheses and comments, replaced by new."""
        start = self.at(left.end_lineno, left.end_col_offset)
        gap = self.src[start:self.at(right.lineno, right.col_offset)].decode()
        code = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), gap)
        hit = re.search(rf"(?<![=<>!*/+-]){pattern}(?![=*/])", code)
        if hit is None:
            raise ValueError(f"line {node.lineno}: no {pattern!r} between operands")
        self.add(node, start + hit.start(), start + hit.end(), new)

    def scoped(self, node) -> None:
        self.scope.append(node.name)
        self.seen.add(".".join(self.scope))
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = scoped

    def visit_JoinedStr(self, node) -> None:
        """An f-string's parts are messages, which no mutant edits."""

    def visit_Compare(self, node) -> None:
        if self.wanted():
            for left, op, right in zip([node.left] + node.comparators, node.ops,
                                       node.comparators):
                if type(op) in _COMPARE:
                    old, new = _COMPARE[type(op)]
                    self.between(node, left, right, re.escape(old), new)
                else:
                    pattern, new = _WORDS[type(op)]
                    self.between(node, left, right, rf"\b{pattern}\b", new)
        self.generic_visit(node)

    def visit_BinOp(self, node) -> None:
        if self.wanted() and type(node.op) in _ARITH:
            old, new = _ARITH[type(node.op)]
            self.between(node, node.left, node.right, re.escape(old), new)
        self.generic_visit(node)

    def visit_AugAssign(self, node) -> None:
        if self.wanted() and type(node.op) in _ARITH:
            old, new = _ARITH[type(node.op)]
            self.between(node, node.target, node.value, re.escape(old + "="), new + "=")
        self.generic_visit(node)

    def visit_UnaryOp(self, node) -> None:
        """The `not` or `~` and the blanks after it, so that a parenthesis
        opening the operand stays."""
        if self.wanted() and isinstance(node.op, (ast.Not, ast.Invert)):
            start = self.at(node.lineno, node.col_offset)
            hit = re.match(rb"(not\b|~)\s*", self.src[start:])
            self.add(node, start, start + hit.end(), "")
        self.generic_visit(node)

    def visit_Name(self, node) -> None:
        if self.wanted() and node.id in _NAMES:
            start = self.at(node.lineno, node.col_offset)
            self.add(node, start, start + len(node.id), _NAMES[node.id])

    def visit_Attribute(self, node) -> None:
        if self.wanted() and node.attr in _NAMES:
            stop = self.at(node.end_lineno, node.end_col_offset)
            self.add(node, stop - len(node.attr), stop, _NAMES[node.attr])
        self.generic_visit(node)

    def visit_Constant(self, node) -> None:
        if self.wanted() and type(node.value) is int:
            start = self.at(node.lineno, node.col_offset)
            stop = self.at(node.end_lineno, node.end_col_offset)
            for step in (1, -1):
                self.add(node, start, stop, str(node.value + step))


def mutants(path: Path, functions=()) -> list:
    src = path.read_bytes()
    finder = _Finder(src, tuple(functions))
    finder.visit(ast.parse(src))
    missing = set(functions) - finder.seen
    if missing:
        raise SystemExit(f"{path} defines no {', '.join(sorted(missing))}")
    for m in finder.found:
        compile(m.apply(src), str(path), "exec")  # a mutant is valid Python
    return finder.found


def importers(module: str, tests: Path) -> list:
    """The test files that import vbx.<module> by name."""
    def imports(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == f"vbx.{module}" or (
                node.module == "vbx" and any(a.name == module for a in node.names))
        return isinstance(node, ast.Import) and any(a.name == f"vbx.{module}" for a in node.names)

    return [str(path.relative_to(tests.parent)) for path in sorted(tests.glob("test_*.py"))
            if any(map(imports, ast.walk(ast.parse(path.read_bytes()))))]


def pytest(work: Path, files) -> str:
    """'killed', 'survived' or 'timeout': the run of files (every test when
    empty) in the copy at work, stopping at the first failure."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               *files], cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def copy_repo(work: Path) -> None:
    shutil.copytree(ROOT, work, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_*"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("file", type=Path, help="a module under src/vbx")
    parser.add_argument("--function", action="append", default=[],
                        help="mutate only this function or method (repeatable)")
    parser.add_argument("--work", type=Path, help="the directory of the copy")
    args = parser.parse_args(argv)
    path = args.file.resolve()
    rel = path.relative_to(ROOT)
    found = mutants(path, args.function)
    src = path.read_bytes()
    listed = json.loads(EQUIVALENT.read_text()) if EQUIVALENT.exists() else []
    equivalent = {(e["file"], e["function"], e["code"], e["mutation"]) for e in listed}
    work = args.work or Path(tempfile.mkdtemp(prefix="vbx-mutants-"))
    copy_repo(work)
    target = work / rel
    files = importers(path.stem, work / "tests")
    counts = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    try:
        if pytest(work, []) != "survived":
            raise SystemExit("the unmutated copy fails a test")
        for m in found:
            began = time.monotonic()
            target.write_bytes(m.apply(src))
            try:
                fate = pytest(work, files)
                if fate == "survived":
                    fate = pytest(work, [])
            finally:
                target.write_bytes(src)
            if fate == "survived" and (str(rel), *m.key(src)) in equivalent:
                fate = "equivalent"
            counts[fate] += 1
            print(f"{fate:<10} {rel}:{m.line}  {m.function}  {m.old} -> {m.new}"
                  f"  ({time.monotonic() - began:.0f} s)", flush=True)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    print(", ".join(f"{n} {fate}" for fate, n in counts.items()), f"of {len(found)} mutants")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
