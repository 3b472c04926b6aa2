"""Batched evaluation and batched checks against the scalar oracle.

compile_exprs/run_program must agree with the scalar tree walk of
scalar_oracle (eval_expr for values) point by point, and must fail exactly
where it raises EvalError, with the same message. The Jacobian stage of
the check suites (the components and their symbolic partials in one
program) must agree with the oracle's forward-mode jacobian the same way,
except where only the oracle's derivative rules fail (DERIVATIVE_ONLY).
The check suites must report what the per-point loops they
replaced reported; two of those loops are kept here, verbatim, as the
oracle, on the one-point functions of scalar_oracle.
"""

import gc
import json
import math
import weakref

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scalar_oracle import eval_expr, eval_map, eval_matrix, field_eval, jacobian
from support import PI, TWO_PI, gallery_expressions, mobius_bundle

from vbx import calculus, expr, geometry
from vbx.bundles import (
    _overlap_subject,
    check_base_atlas,
    check_frame,
    check_section,
    check_vb,
    find_edge,
)
from vbx.calculus import _Trial, make_smooth_map
from vbx.cli import main
from vbx.coords import FieldTag
from vbx.errors import EvalError, VbxError
from vbx.expr import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_exprs,
    parse_expr,
    run_program,
)
from vbx.geometry import halton, sample_region
from vbx.report import RESIDUAL, failed_record, make_report, sampled_record
from vbx.spec import make_atlas, make_bundle, make_frame, make_section
from vbx.specio import gallery_path, list_gallery, load_spec

# Values and gradients may differ from the scalar path where numpy's exp,
# log or tan round differently from the math module's (one ulp at the
# source, amplified by the operations above it).
REL_BOUND = 1e-9

# Points in [-2, 2]^3, plus points with zero coordinates, where divisions,
# logs and square roots hit their domain edges exactly.
POINTS = np.vstack([halton(40, 3, seed=5) * 4.0 - 2.0,
                    [[0.0, 0.0, 0.0], [0.0, 1.0, -1.0], [1.0, 0.0, 0.5], [-1.0, 2.0, 0.0]]])
BOX = [(-10.0, 10.0)] * 3


def close(got, want) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want)
                       <= REL_BOUND * np.maximum(1.0, np.abs(want))))


def scalar_values(exprs, x):
    """eval_expr of each expression at x, or the EvalError the first raises."""
    try:
        return [eval_expr(e, [float(c) for c in x]) for e in exprs]
    except EvalError as exc:
        return exc


def scalar_jacobian(exprs, x):
    try:
        return jacobian(make_smooth_map(exprs, BOX), x)
    except EvalError as exc:
        return exc


# Where the oracle's forward mode fails and the symbolic partials need not:
# sqrt at zero under an identically zero inner derivative, a derivative
# power x^(k-1) that overflows, and products of an infinite and a zero
# derivative. Where both fail at sqrt at zero, the stage meets a value
# failure or the partial's division by zero first.
DERIVATIVE_ONLY = ("sqrt not differentiable at zero", "power overflow", "jacobian not finite")


def jacobian_stage(exprs, X):
    """The check suites' Jacobian stage over X: (n, k, m) Jacobians, and
    the trial whose cause and why tell the failed points."""
    t = _Trial(X, {})
    with np.errstate(all="ignore"):
        J = t.jacobian(make_smooth_map(exprs, BOX[:X.shape[1]]), X, t.rows)
    return J, t


def value_stage(exprs, X):
    """The values of exprs over X from a trial's run: (n, k) values, and
    the trial whose cause and why tell the failed points."""
    X = np.asarray(X, dtype=float)
    t = _Trial(X, {})
    with np.errstate(all="ignore"):  # as the trial's callers hold it
        return t.run(compile_exprs(exprs), X, t.rows), t


def assert_matches_oracle(exprs):
    values, run = value_stage(exprs, POINTS)
    J, trial = jacobian_stage(exprs, POINTS)
    for i, x in enumerate(POINTS):
        want = scalar_values(exprs, x)
        if isinstance(want, EvalError):
            assert run.cause[i] >= 0, (exprs, x, want)
            assert str(run.why(i)) == str(want)
        else:
            assert run.cause[i] < 0, (exprs, x, run.why(i))
            assert close(values[i], want), (exprs, x, values[i], want)
        want_j = scalar_jacobian(exprs, x)
        if isinstance(want_j, EvalError):
            if trial.live[i]:
                assert str(want_j).startswith(DERIVATIVE_ONLY), (exprs, x, want_j)
            elif str(want_j) != DERIVATIVE_ONLY[0]:
                assert str(trial.why(i)) == str(want_j), (exprs, x)
        else:
            assert trial.live[i], (exprs, x, trial.why(i))
            assert close(J[i], want_j), (exprs, x, J[i], want_j)


def _exprs(depth=3):
    leaves = st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]).map(Num),
        st.sampled_from([Var(1), Var(2), Var(3), Const("pi"), Const("e")]),
    )
    if depth == 0:
        return leaves

    def combine(children):
        a, b = children
        return st.sampled_from([
            Neg(a), Add(a, b), Sub(a, b), Mul(a, b), Div(a, b),
            Pow(a, -2), Pow(a, -1), Pow(a, 0), Pow(a, 2), Pow(a, 3),
            Call("sin", a), Call("cos", a), Call("tan", a), Call("exp", a),
            Call("log", a), Call("sqrt", a),
        ])

    return st.one_of(leaves,
                     st.tuples(_exprs(depth - 1), _exprs(depth - 1)).flatmap(combine))


@seed(20240817)
@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_batch_matches_scalar_oracle_on_random_expressions(e):
    assert_matches_oracle([e])


@seed(20240817)
@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs(2), min_size=2, max_size=4))
def test_batch_reports_the_error_the_scalar_loop_meets_first(exprs):
    assert_matches_oracle(exprs)


def test_batch_matches_scalar_oracle_on_gallery_expressions():
    exprs = [parse_expr(t) for t in gallery_expressions()]
    assert len(exprs) > 10
    for e in exprs:
        assert_matches_oracle([e])
    assert_matches_oracle(exprs)


def test_compile_shares_common_subexpressions():
    e = parse_expr("sin(x1) * sin(x1) + sin(x1)")
    prog = compile_exprs([e, e, parse_expr("sin(x1)")])
    assert len(prog.code) == 4  # x1, sin, product, sum
    assert prog.outputs[0] == prog.outputs[1]
    assert prog.outputs[2] == 1
    # 0.0 and -0.0 print differently, so they stay distinct literals
    assert len(compile_exprs([Num(0.0), Num(-0.0)]).code) == 2


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs(2), min_size=1, max_size=3))
def test_a_maps_value_program_is_the_prefix_of_its_jacobian_program(exprs):
    F = make_smooth_map(exprs, BOX)
    t = _Trial(POINTS, {})
    assert t.components(F) == compile_exprs(F.components)
    assert t.map_program(F).code[:len(t.components(F).code)] == t.components(F).code


def test_a_gallery_check_compiles_each_map_and_matrix_once(monkeypatch):
    # A map's values run the prefix of its components-plus-partials
    # program, and equal entry tuples share a program: per suite call, one
    # compile per distinct tuple of tau components (atlas) and per distinct
    # transition matrix or tau (bundle).
    compiled = []
    monkeypatch.setattr(calculus, "compile_exprs",
                        lambda exprs: compiled.append(exprs) or compile_exprs(exprs))

    def compiles(suite, *args):
        compiled.clear()
        suite(*args, samples=20)
        return len(compiled)

    for name in list_gallery():
        doc = load_spec(gallery_path(name))
        taus = {tuple(map(id, o.tau.components)) for o in doc.base.overlaps}
        assert compiles(check_base_atlas, doc.base) == len(taus), name
        if doc.bundle is not None:
            gs = {tuple(id(c) for row in e.g for c in row) for e in doc.bundle.edges}
            assert compiles(check_vb, doc.bundle) == len(gs | taus), name


def test_one_check_command_compiles_each_distinct_program_once(monkeypatch, capsys):
    # The suites of one command (atlas, bundle, sections, frames, fields)
    # share one program cache, so a tau the atlas suite compiled is not
    # compiled again by the bundle suite; main drops the cache on return.
    compiled, programs = [], []

    def spy(exprs):
        compiled.append(tuple(map(id, exprs)))
        prog = compile_exprs(exprs)
        programs.append(weakref.ref(prog))
        return prog

    monkeypatch.setattr(calculus, "compile_exprs", spy)
    for name in list_gallery():
        compiled.clear()
        assert main(["check", str(gallery_path(name)), "--samples", "20"]) in (0, 2)
        assert compiled and len(set(compiled)) == len(compiled), name
    assert geometry._point_sets is None
    gc.collect()
    assert programs and all(ref() is None for ref in programs)


def test_deep_trees_compile_and_run_without_recursion():
    e = Var(1)
    for _ in range(5000):
        e = Add(Neg(e), Num(1.0))
    values, run = value_stage([e], [[0.25], [3.0]])
    assert not (run.cause >= 0).any()
    assert values[:, 0].tolist() == [0.25, 3.0]  # an even number of negations
    J, trial = jacobian_stage([e], np.array([[0.25], [3.0]]))
    assert trial.live.all()
    assert J[:, 0, 0].tolist() == [1.0, 1.0]


def test_missing_variable_fails_every_sample():
    _, run = value_stage([parse_expr("x1 + x2")], [[1.0], [2.0]])
    assert (run.cause >= 0).all()
    assert str(run.why(1)) == "no value for x2: point has 1 coordinates"


def test_power_overflow_is_an_eval_error_on_both_paths():
    e = parse_expr("exp(x1*200)^3")
    for x in (3.0, np.float64(3.0)):
        try:
            eval_expr(e, [x])
        except EvalError as exc:
            assert str(exc) == "power overflow"
        else:
            raise AssertionError("no EvalError")
    _, run = value_stage([e], [[0.0], [3.0]])
    assert (run.cause >= 0).tolist() == [False, True]
    assert str(run.why(1)) == "power overflow"


def test_run_program_reports_each_failing_operation_to_fail():
    calls = []  # (mask, why) of each fail call, in order
    xs = [-1.0, 2.0, 3.0]
    e = parse_expr("log(x1) + 1/(x1 - 2)")
    with np.errstate(all="ignore"):  # as every caller runs it
        values = run_program(compile_exprs([e]), [[x] for x in xs],
                             lambda mask, why: calls.append((mask, why)))
    outcomes = []
    for i, x in enumerate(xs):
        held = [why for mask, why in calls if mask[i]]
        try:
            want = expr.eval_expr(e, [x])
        except EvalError as exc:
            want = str(exc)
        got = (held[0] if isinstance(held[0], str) else held[0](i)) if held else values[i, 0]
        assert got == want, x
        outcomes.append(got)
    assert outcomes == ["log of non-positive value -1.0", "division by zero",
                        float.fromhex("0x1.0c9f53d568186p+1")]  # log(3) + 1


# --------------------------------------------------------------------------
# The per-point loops the check suites used to run, kept as the oracle.


def scalar_check_section(S, samples, tol, seed):
    B = S.bundle
    records = []
    for e in B.edges:
        i, j = e.overlap.frm, e.overlap.to
        if i not in S.per_chart or j not in S.per_chart:
            continue
        subject = f"{e.overlap.frm}->{e.overlap.to}#{e.component}"
        pts = sample_region(e.overlap.region, samples, seed)
        worst = 0.0
        trouble = None
        for x in pts:
            try:
                lhs = field_eval(S, i, x)
                y = eval_map(e.overlap.tau, x)
                rhs = eval_matrix(e.g, x, B.field.dtype) @ field_eval(S, j, y)
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            except VbxError as exc:
                trouble = f"evaluation failed at {np.asarray(x).tolist()}: {exc}"
                break
        if trouble is not None:
            records.append(failed_record("section_compat", subject, len(pts), seed, tol, trouble))
        else:
            records.append(sampled_record("section_compat", subject, RESIDUAL, len(pts), seed, tol,
                                          worst))
    return make_report("section", records)


def scalar_pair_cocycle_records(B, samples, tol, seed):
    records = []
    for frm, to in sorted({(e.overlap.frm, e.overlap.to) for e in B.edges}):
        for e in B.edges_between(frm, to):
            subject = f"{e.overlap.frm}->{e.overlap.to}#{e.component}"
            pts = sample_region(e.overlap.region, samples, seed)
            trouble = None
            for x in pts:
                try:
                    y = eval_map(e.overlap.tau, x)
                    back = find_edge(B, to, frm, y)
                    if back is None:
                        trouble = (f"tau image {y.tolist()} is in no declared "
                                   f"{to}->{frm} region")
                        break
                    eval_matrix(back.g, y, B.field.dtype)
                except VbxError as exc:
                    trouble = f"evaluation failed at {np.asarray(x).tolist()}: {exc}"
                    break
            if trouble is not None:
                records.append(failed_record("pair_cocycle", subject, len(pts), seed, tol,
                                             trouble))
    return records


def same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.check, g.subject, g.kind, g.samples, g.seed, g.tol, g.passed, g.note) == \
            (w.check, w.subject, w.kind, w.samples, w.seed, w.tol, w.passed, w.note)
        assert g.worst == w.worst or abs(g.worst - w.worst) <= 1e-14


def test_section_failures_note_the_first_failing_sample_like_the_scalar_loop():
    B = mobius_bundle()
    for comps in (["log(x1)"], ["sqrt(x1 - 1)"], ["1/(x1 - 2)"], ["tan(x1)/sin(x1)"],
                  ["cos(x1/2)"], ["exp(x1*300)^2"]):
        S = make_section(B, {"east": comps, "west": comps})
        got = check_section(S, 60, 1e-9, 3)
        same_records(got.records, scalar_check_section(S, 60, 1e-9, 3).records)
        assert got.passed == (comps == ["cos(x1/2)"])


def test_tau_escapes_are_noted_like_the_scalar_loop():
    # x1 + 4 carries the east->west#0 overlap past 2*pi, out of every
    # west->east region, for x1 above 2*pi - 4
    A2 = make_atlas(1, [("east", [(-PI, PI)]), ("west", [(0.0, TWO_PI)])], [
        ("east", "west", [[(0.0, PI)]], ["x1 + 4"]),
        ("east", "west", [[(-PI, 0.0)]], ["x1 + 2*pi"]),
        ("west", "east", [[(0.0, PI)]], ["x1"]),
        ("west", "east", [[(PI, TWO_PI)]], ["x1 - 2*pi"]),
    ])
    B = make_bundle(A2, 1, FieldTag.REAL, [(o.frm, o.to, [["1"]]) for o in A2.overlaps])
    want = scalar_pair_cocycle_records(B, 50, 1e-9, 7)
    got = [r for r in check_vb(B, 50, 1e-9, 7).records if r.check == "pair_cocycle"
           and not r.passed]
    same_records(got, want)
    assert "is in no declared west->east region" in got[0].note
    atlas = check_base_atlas(A2, 50, 1e-9, 7)
    bad_record = next(r for r in atlas.records if r.subject == _overlap_subject(A2.overlaps[0], 0))
    assert not bad_record.passed
    assert "escapes every declared west->east region" in bad_record.note


# --------------------------------------------------------------------------
# Non-finite values fail their record.


def test_nan_residual_fails_the_section_record(tmp_path):
    # Each side overflows to inf, so the residual is inf - inf = NaN, which
    # a running max(worst, r) used to drop: the record passed with 0.
    doc = json.loads(gallery_path("circle_tangent").read_text())
    doc["sections"].append({"name": "huge", "components": {
        "east": ["1e200*1e200*(2+x1)"], "west": ["1e200*1e200*(5+x1)"]}})
    spec = tmp_path / "huge.json"
    spec.write_text(json.dumps(doc))
    S = load_spec(spec).sections["huge"]
    rep = check_section(S, 50, 1e-9, 42)
    assert not rep.passed
    assert all(not r.passed and r.note.startswith("non-finite residual at") for r in rep.records)


def test_non_finite_determinant_fails_the_frame_record():
    B = mobius_bundle()
    rep = check_frame(make_frame(B, "east", [["1e200*1e200*x1"]]), 40)
    assert not rep.passed
    assert rep.records[0].note.startswith("non-finite scaled determinant at")
    assert math.isinf(rep.records[0].worst)


def test_overlapping_components_resolve_to_the_first_in_declaration_order():
    # b->a has two components, the second inside the first; find_edge takes
    # the first, whose transition 0.5 inverts a->b's 2 everywhere.
    A = make_atlas(1, [("a", [(0.0, 4.0)]), ("b", [(0.0, 4.0)])], [
        ("a", "b", [[(0.0, 4.0)]], ["x1"]),
        ("b", "a", [[(0.0, 4.0)]], ["x1"]),
        ("b", "a", [[(1.0, 3.0)]], ["x1"]),
    ])
    B = make_bundle(A, 1, FieldTag.REAL, [("a", "b", [["2"]]), ("b", "a", [["0.5"]]),
                                          ("b", "a", [["7"]])])
    assert find_edge(B, "b", "a", [2.0]).component == 0
    records = {(r.check, r.subject): r for r in check_vb(B, 50, 1e-9, 1).records}
    assert records[("pair_cocycle", "a->b#0")].passed
    assert not records[("pair_cocycle", "b->a#1")].passed
