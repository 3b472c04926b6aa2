"""Command-line front end.

    vbx check <spec> [--samples N] [--tol T] [--seed S] [--out REPORT]
    vbx construct <kind> [kind flags] <inputs...> -o <out>
    vbx eval <spec> --target <name> --chart <name> --point <csv>

Exit codes: 0 everything verified, 1 usage or specification problem,
2 verification failure (a check failed, or a construction rejected its
inputs on mathematical grounds).
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, unless the user set OPENBLAS_NUM_THREADS. vbx matrices
# are at most 81 x 81 at desk scale, so a worker pool gains nothing; it
# starts while numpy loads and competes with the import, and one thread
# keeps reports free of the host's core count. Only a process that has not
# loaded numpy yet, that is a `vbx` command, takes the default: a program
# that imported numpy first keeps its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import functools
import gc
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import (
    BaseMismatch,
    ChartAssignmentError,
    CocycleViolation,
    DomainViolation,
    FileError,
    NotAnIsomorphism,
    SingularFrame,
    VbxError,
)
from .expr import compile_exprs, tree_size
from .spec import field_eval
from .specio import atlas_from_document, load_json, load_spec, save_spec

_VERIFY_ERRORS = (BaseMismatch, ChartAssignmentError, CocycleViolation,
                  DomainViolation, NotAnIsomorphism, SingularFrame)

# A check holds each subject's n sample points in memory at once, though it
# evaluates them at most bundles._PACK_ROWS at a time: 10^9 points of one
# coordinate are already 8 GB. Larger counts are refused before numpy is
# asked for them.
MAX_SAMPLES = 10**9


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise _Usage(f"{self.format_usage().rstrip()}\n{self.prog}: error: {message}")


@functools.cache  # a constant: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    p = _Parser(prog="vbx", description="Verify and construct smooth vector bundle specs.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_run_config(sp):
        sp.add_argument("--samples", type=int, default=200,
                        help="sample points per overlap region (default 200)")
        sp.add_argument("--tol", type=float, default=1e-9,
                        help="residual tolerance (default 1e-9)")
        sp.add_argument("--seed", type=int, default=42,
                        help="sampling seed (default 42)")

    c = sub.add_parser("check", help="run every verification suite a file supports")
    c.add_argument("spec", help="specification file")
    add_run_config(c)
    c.add_argument("--out", help="write the JSON report here")

    k = sub.add_parser("construct", help="build a derived bundle and save it")
    k.add_argument("kind", choices=["tensor", "dual", "hom", "sum", "product",
                                    "induced", "restrict", "tangent"])
    k.add_argument("inputs", nargs="+", help="input files (count depends on kind)")
    k.add_argument("-o", "--out", required=True, help="output specification file")
    k.add_argument("--r", type=int, default=None, help="vector slots (tensor kind)")
    k.add_argument("--s", type=int, default=None, help="covector slots (tensor kind)")

    e = sub.add_parser("eval", help="evaluate a named section or field at a point")
    e.add_argument("spec", help="specification file")
    e.add_argument("--target", required=True, help="section or field name")
    e.add_argument("--chart", required=True, help="chart the point is given in")
    e.add_argument("--point", required=True, help="comma-separated coordinates")
    return p


def cmd_check(args) -> int:
    # Only this command checks, so only it loads the check layer: the
    # suites, their sampling and reports.
    from .bundles import check_base_atlas, check_frame, check_section, check_vb
    from .geometry import sampling_scope
    from .report import format_report, make_report, merge_reports, report_to_json

    if not 1 <= args.samples <= MAX_SAMPLES:
        raise _Usage(f"--samples must be between 1 and {MAX_SAMPLES:,}")
    if not 0 < args.tol < math.inf:
        raise _Usage("--tol must be a positive finite number")
    doc = load_spec(args.spec)

    with sampling_scope():  # the suites of one check share their point sets
        reports = [check_base_atlas(doc.base, args.samples, args.tol, args.seed)]
        if doc.bundle is not None:
            reports.append(check_vb(doc.bundle, args.samples, args.tol, args.seed))
        for kind, entries in (("section", doc.sections), ("frame", doc.frames),
                              ("field", doc.fields)):  # empty without a bundle
            for name, X in sorted(entries.items()):
                report = (check_frame(X, args.samples, seed=args.seed) if kind == "frame"
                          else check_section(X, args.samples, args.tol, args.seed))
                reports.append(make_report(report.suite, [
                    replace(r, subject=f"{kind} '{name}' {r.subject}") for r in report.records]))
    merged = merge_reports("check", reports)
    print(format_report(merged))
    if args.out:
        try:
            Path(args.out).write_text(report_to_json(merged), encoding="utf-8")
        except OSError as exc:
            raise FileError(f"cannot write '{args.out}': {exc}") from exc
    return 0 if merged.passed else 2


def cmd_construct(args) -> int:
    # Only this command builds bundles, so only it loads the constructions.
    from .constructions import (base_restriction, direct_product, dual_bundle, hom_bundle,
                                induced_bundle, tangent_bundle, tensor_bundle, whitney_sum)

    kind, n = args.kind, 1 if args.kind in ("tensor", "dual", "tangent") else 2
    if len(args.inputs) != n:
        raise _Usage(f"construct {kind} takes exactly {n} input file(s), got {len(args.inputs)}")
    if kind == "tensor" and (args.r is None or args.s is None):
        raise _Usage("construct tensor needs --r and --s")
    if kind == "tangent":
        out = tangent_bundle(load_spec(args.inputs[0]).base)
    elif kind in ("tensor", "dual"):
        B = _bundle_input(args.inputs[0])
        out = tensor_bundle(B, args.r, args.s) if kind == "tensor" else dual_bundle(B)
    elif kind in ("hom", "sum", "product"):
        build = {"hom": hom_bundle, "sum": whitney_sum, "product": direct_product}[kind]
        out = build(_bundle_input(args.inputs[0]), _bundle_input(args.inputs[1]))
    elif kind == "induced":
        B, pull = _bundle_input(args.inputs[0]), load_json(args.inputs[1])
        for key in pull:
            if key not in {"base", "assignment", "map"}:
                raise _Usage(f"unknown key '{key}' in the induced-map file")
        for key in ("base", "assignment", "map"):
            if key not in pull:
                raise _Usage(f"the induced-map file needs a '{key}' key")
        out = induced_bundle(B, atlas_from_document(pull), pull["assignment"], pull["map"])
    else:  # restrict
        B, reg = _bundle_input(args.inputs[0]), load_json(args.inputs[1])
        if set(reg) != {"regions"}:
            raise _Usage("the restriction file must have exactly one key, 'regions'")
        out = base_restriction(B, reg["regions"])
    save_spec(out, args.out)
    print(f"wrote {args.out}")
    print(_size_line(out, args.out))
    return 0


def _size_line(B, path: str) -> str:
    """How big a written bundle is; deterministic, so fit for stdout."""
    roots = [c for e in B.edges for row in e.g for c in row]
    roots += [c for o in B.base.overlaps for c in o.tau.components]
    prog = compile_exprs(roots)
    return (f"fiber dim {B.fiber_dim}, {len(B.edges)} edges, {tree_size(prog)} tree nodes, "
            f"{len(prog.code)} unique nodes, {Path(path).stat().st_size} bytes")


def _bundle_input(path: str):
    doc = load_spec(path)
    if doc.bundle is None:
        raise _Usage(f"'{path}' is an atlas-only file; this construction needs a bundle")
    return doc.bundle


def _fmt(v) -> str:
    if np.iscomplexobj(v):
        return f"{v.real:.17g}{v.imag:+.17g}j"
    return f"{float(v):.17g}"


def cmd_eval(args) -> int:
    doc = load_spec(args.spec)
    try:
        point = [float(t) for t in args.point.split(",")]
    except ValueError:
        raise _Usage(f"cannot parse point '{args.point}'") from None
    if not all(map(math.isfinite, point)):
        raise _Usage(f"--point must hold finite coordinates, got '{args.point}'")
    found = [A for A in (doc.sections.get(args.target), doc.fields.get(args.target)) if A]
    if not found:
        raise _Usage(f"no section or field named '{args.target}' in '{args.spec}'")
    if len(found) > 1:
        raise _Usage(f"'{args.target}' names both a section and a field in '{args.spec}'")
    values = field_eval(found[0], args.chart, point).coeffs
    print(f"chart {args.chart}")
    print("point " + " ".join(_fmt(x) for x in point))
    print("value " + " ".join(_fmt(v) for v in np.atleast_1d(values)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if argv is None and args.command == "eval":  # names typed on the command line
            # A spec's names are UTF-8, so these are read as UTF-8 from the
            # bytes typed, whatever the locale; file paths stay as given.
            args.chart, args.target = (os.fsencode(a).decode("utf-8", "surrogateescape")
                                       for a in (args.chart, args.target))
        command = {"check": cmd_check, "construct": cmd_construct}.get(args.command, cmd_eval)
        code = command(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # Nothing more can reach stdout; send what is left in its buffer
        # nowhere, so that the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: cannot write to standard output: it was closed", file=sys.stderr)
        return 1
    except _Usage as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except _VERIFY_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except VbxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # A sample count under MAX_SAMPLES can still need more memory than
        # the process may have; only the count is the user's to change.
        samples = getattr(args, "samples", None)
        hint = "" if samples is None else f" at {samples} samples; lower --samples"
        print(f"error: out of memory{hint}", file=sys.stderr)
        return 1


def console() -> int:
    """The `vbx` command: main() in a process of its own. The modules it
    imported stay for the life of the process, so they leave the cyclic
    collector's care (gc.freeze). It writes UTF-8, the encoding it reads
    specification files in, whatever the locale: a chart named in any
    script prints the same bytes everywhere. Only a command's own process
    may freeze and set its streams: code that calls main() many times keeps
    its garbage collectable and its streams as they are."""
    gc.freeze()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the descriptor was closed at start-up
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    return main()


if __name__ == "__main__":
    raise SystemExit(console())
