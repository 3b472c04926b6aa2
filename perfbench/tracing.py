"""Layer tracing of vbx from outside the program.

`Tracer.install()` rebinds the public functions of each vbx module, at
every module that holds them, to wrappers that record one span per call:
name, start, end, parent span and operation id. Recursive definitions
(`eval_expr`, `to_string`) are rebound only at their callers, never in
their defining module, so each span is one outermost call. Spans are kept
in flat arrays in memory and written out with `dump()` when a run ends.

A layer's self time is the sum over its spans of the span's duration
minus the part covered by its child spans.

Run as a script, this file is the traced form of one fresh-interpreter
command:

    python3 perfbench/tracing.py SPANS.npz check spec.json --samples 50

installs the tracer, runs `vbx.cli.main` on the remaining arguments,
writes the spans to SPANS.npz and exits with the command's exit code.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, function, span name, recursive)
TARGETS = (
    ("vbx.expr", "eval_expr", "expr.eval", True),
    ("vbx.expr", "parse_expr", "expr.parse", False),
    ("vbx.expr", "to_string", "expr.to_string", True),
    ("vbx.calculus", "eval_map", "calculus.eval_map", False),
    ("vbx.calculus", "jacobian", "calculus.jacobian", False),
    ("vbx.linalg", "scaled_abs_det", "linalg.det", False),
    ("vbx.geometry", "sample_region", "geometry.sample", False),
    ("vbx.geometry", "sample_box", "geometry.sample", False),
    ("vbx.bundles", "check_base_atlas", "bundles.check_base_atlas", False),
    ("vbx.bundles", "check_vb", "bundles.check_vb", False),
    ("vbx.bundles", "check_section", "bundles.check_section", False),
    ("vbx.bundles", "check_frame", "bundles.check_frame", False),
    ("vbx.constructions", "tensor_bundle", "constructions.build.tensor", False),
    ("vbx.constructions", "dual_bundle", "constructions.build.dual", False),
    ("vbx.constructions", "direct_product", "constructions.build.product", False),
    ("vbx.constructions", "tangent_bundle", "constructions.build.tangent", False),
    ("vbx.constructions", "check_tensor_field", "constructions.check_tensor_field", False),
    ("vbx.symmat", "mat_inverse", "symmat.inverse", False),
    ("vbx.symmat", "mat_kron", "symmat.kron", False),
    ("vbx.specio", "load_spec", "specio.load", False),
    ("vbx.specio", "save_spec", "specio.save", False),
    ("vbx.report", "format_report", "report.format", False),
    ("vbx.report", "report_to_json", "report.json", False),
    ("vbx.cli", "main", "cli", False),
)
COUNTED = (("vbx.bundles", "find_edge", "bundles.find_edge_calls"),)
TRIPLE_CHECKS = ("tau_triple", "triple_cocycle")


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.names: list = []
        self.name_col = array("i")
        self.parent = array("i")
        self.op_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.outputs: list = []  # bundles handed to save_spec, walked between ops
        self.op = -1
        self._stack: list = []
        self._saved: list = []  # (module, attribute, original) to undo install()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _span(self, name: str, fn, hook):
        nid = self._name_id(name)
        name_col, parent, op_col = self.name_col, self.parent, self.op_col
        start, end, stack, clock = self.start, self.end, self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_col.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_col.append(tracer.op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks: counts taken at the layer boundary, outside the span's own time

    def _outer(self, sid: int) -> bool:
        p = self.parent[sid]
        return p < 0 or self.name_col[p] != self.name_col[sid]

    def _points(self, sid, args, kwargs, result):
        if self._outer(sid):
            self.counts["geometry.points"] += len(result)

    def _records(self, sid, args, kwargs, report):
        self.counts["bundles.records"] += len(report.records)
        samples = args[1] if len(args) > 1 else kwargs.get("samples", 200)
        subject = args[0]
        between = (getattr(subject, "edges_between", None)
                   or getattr(subject, "overlaps_between", None))
        for r in report.records:
            if r.note.startswith("vacuous"):
                self.counts["bundles.vacuous_records"] += 1
            if r.check in TRIPLE_CHECKS and between is not None:
                i, j, _ = r.subject.split("->")
                self.counts["bundles.triple_points"] += samples * len(between(i, j))
                self.counts["bundles.triple_hits"] += r.samples

    def _loaded(self, sid, args, kwargs, result):
        self.counts["specio.load_bytes"] += os.path.getsize(args[0])

    def _saved_file(self, sid, args, kwargs, result):
        self.counts["specio.save_bytes"] += os.path.getsize(args[1])
        self.outputs.append(args[0])

    def install(self) -> None:
        """Rebind every target at every loaded vbx module that holds it."""
        import importlib

        hooks = {
            "geometry.sample": self._points,
            "bundles.check_base_atlas": self._records,
            "bundles.check_vb": self._records,
            "bundles.check_section": self._records,
            "bundles.check_frame": self._records,
            "specio.load": self._loaded,
            "specio.save": self._saved_file,
        }
        plan = [(m, f, self._span(name, getattr(importlib.import_module(m), f), hooks.get(name)),
                 rec) for m, f, name, rec in TARGETS]
        plan += [(m, f, self._counter(key, getattr(importlib.import_module(m), f)), False)
                 for m, f, key in COUNTED]
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if (name == "vbx" or name.startswith("vbx.")) and mod is not None]
        for home, fname, wrapper, recursive in plan:
            original = wrapper.__wrapped__
            for mod in modules:
                if recursive and mod.__name__ == home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def walk_outputs(self) -> None:
        """Count tree and unique expression nodes of each saved construct output."""
        for bundle in self.outputs:
            tree, unique = expr_sizes(bundle)
            self.counts["constructions.tree_nodes"] += tree
            self.counts["constructions.unique_nodes"] += unique
        self.outputs.clear()

    def columns(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op_col, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def dump(self, path) -> None:
        import numpy as np

        Path(path).parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names, dtype=str),
                 counts=np.array(json.dumps(dict(self.counts))), **self.columns())

    def absorb(self, path, op: int) -> None:
        """Append the spans and counts a traced child process dumped."""
        import numpy as np

        with np.load(path) as z:
            ids = [self._name_id(str(n)) for n in z["names"]]
            offset = len(self.start)
            parent = z["parent"]
            self.name_col.extend(int(ids[k]) for k in z["name"])
            self.parent.extend(int(p + offset) if p >= 0 else -1 for p in parent)
            self.op_col.extend([op] * len(parent))
            self.start.extend(z["start"].tolist())
            self.end.extend(z["end"].tolist())
            self.counts.update(json.loads(str(z["counts"])))

    def totals(self) -> tuple:
        """(self seconds per span name, outermost calls per span name)."""
        import numpy as np

        c = self.columns()
        n = len(c["start"])
        if n == 0:
            return {}, {}
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        covered = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        k = len(self.names)
        self_s = np.bincount(c["name"], weights=own, minlength=k)
        parent_name = np.where(has_parent, c["name"][np.maximum(c["parent"], 0)], -1)
        outer = parent_name != c["name"]
        calls = np.bincount(c["name"][outer], minlength=k)
        return ({nm: float(self_s[i]) for i, nm in enumerate(self.names)},
                {nm: int(calls[i]) for i, nm in enumerate(self.names)})


def expr_sizes(bundle) -> tuple:
    """(tree nodes, structurally unique nodes) over a bundle's expressions.

    Tree nodes count a shared subtree once per occurrence; unique nodes
    count each distinct structure once. Both walk the Expr dataclasses
    iteratively, so deep trees do not hit the recursion limit.
    """
    from dataclasses import fields

    from vbx.expr import Expr

    roots = [c for e in bundle.edges for row in e.g for c in row]
    roots += [c for o in bundle.base.overlaps for c in o.tau.components]
    size: dict = {}  # id(node) -> tree size
    canon: dict = {}  # id(node) -> unique id
    table: dict = {}  # structure key -> unique id; the bundle keeps every id valid
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            if id(node) in size:
                continue
            kids = [getattr(node, f.name) for f in fields(node)]
            if not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in kids if isinstance(k, Expr) and id(k) not in size)
                continue
            key = (type(node).__name__,) + tuple(
                ("#", canon[id(k)]) if isinstance(k, Expr) else k for k in kids)
            canon[id(node)] = table.setdefault(key, len(table))
            size[id(node)] = 1 + sum(size[id(k)] for k in kids if isinstance(k, Expr))
    return sum(size[id(r)] for r in roots), len(table)


def span_cost(calls: int = 20_000, reps: int = 7) -> float:
    """Wall seconds one span adds to a call: a wrapped no-op minus a bare
    one, per call, the median of reps; never below 0."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._span("noop", noop, None)
    diffs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        diffs.append((t2 - t1 - (t1 - t0)) / calls)
        del tracer.start[:], tracer.end[:], tracer.parent[:], tracer.name_col[:], tracer.op_col[:]
    return max(0.0, statistics.median(diffs))


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_breakdown(env: dict, cwd) -> dict:
    """Cumulative import seconds of `vbx` and `scipy.special` in a fresh
    interpreter, from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vbx"],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"import vbx failed: {proc.stderr[-500:]}")
    cumulative = {}
    for m in _IMPORT_LINE.finditer(proc.stderr):
        cumulative[m.group(3)] = int(m.group(2)) / 1e6
    return {"import.total_s": cumulative.get("vbx", 0.0),
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0)}


def _child(argv: list) -> int:
    """Traced fresh-interpreter command: SPANS.npz then the vbx arguments."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import vbx.cli

    spans, rest = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return vbx.cli.main(rest)
    finally:
        tracer.uninstall()
        tracer.walk_outputs()
        tracer.dump(spans)


if __name__ == "__main__":
    raise SystemExit(_child(sys.argv[1:]))
