"""One numeric path: every one-point function is one row of a batched run.

eval_expr, eval_map, jacobian, field_eval, frame_matrix_at and
transition_eval must return exactly the bits of row k of a trial's run
(calculus._Trial.run; for jacobian, of the check suites' Jacobian stage)
over the same points, and where they fail they must raise what the scalar
tree walk of scalar_oracle raised (type and message; for pulled-back
fields, the type the closures of scalar_oracle raised). The constructions
that sample, once per-point loops, are held against copies of those loops
on the oracle: the first failing sample must give the same exception.
"""

import numpy as np
import pytest
import scalar_oracle as oracle
from support import gallery_expressions, local_field, mobius_bundle, plane_rotation_bundle

from vbx.bundles import check_frame
from vbx.calculus import _Trial, eval_map, jacobian, make_smooth_map
from vbx.constructions import (
    LOCAL_CHART,
    induced_bundle,
    local_expression,
    make_morphism,
    map_pullback_cov,
    map_pullback_rs,
    tangent_bundle,
    vb_pullback_rs,
)
from vbx.coords import Box, region_contains
from vbx.errors import (
    ChartAssignmentError,
    DomainViolation,
    EvalError,
    NotAnIsomorphism,
    ShapeMismatch,
    SingularFrame,
    SpecError,
    VbxError,
)
from vbx.expr import compile_exprs, eval_expr, max_var_index, parse_expr
from vbx.geometry import halton, sample_box, sample_region
from vbx.pointwise import dual_frame, field_add, field_product, frame_matrix_at, transition_eval
from vbx.spec import field_eval, make_atlas, make_field, make_frame
from vbx.specio import gallery_path, list_gallery, load_spec

SEED = 17


def outcome(fn):
    """fn()'s value, or (type, message) of the VbxError it raised."""
    try:
        return fn()
    except VbxError as exc:
        return type(exc), str(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def row_or_oracle(got, row, want_error):
    """got (a value or an error outcome) is the batch row, or the oracle's
    error when the oracle failed."""
    if isinstance(want_error, tuple):
        assert got == want_error
    else:
        assert not isinstance(got, tuple), got
        assert same_bits(got, row), (got, row)


def batch(exprs, X):
    """exprs over the rows of X through a trial's run: the (n, k) values,
    and the trial whose cause and why tell the rows that failed."""
    X = np.asarray(X, dtype=float)
    t = _Trial(X, {})
    with np.errstate(all="ignore"):  # as the trial's callers hold it
        return t.run(compile_exprs(exprs), X, t.rows), t


def box_points(box: Box, n: int = 24) -> np.ndarray:
    """Seeded points of the box, then points past each of its faces."""
    inside = sample_box(box, n, SEED)
    lo, hi = np.array(box.lo), np.array(box.hi)
    width = np.where(np.isfinite(hi - lo), hi - lo, 10.0)
    mid = np.where(np.isfinite(lo + hi), (lo + hi) / 2, 0.0)
    return np.vstack([inside, mid - width, mid + width])


def gallery_docs():
    return [load_spec(gallery_path(name)) for name in list_gallery()]


# --------------------------------------------------------------------------
# One-point functions against rows of the batch.


def test_eval_expr_is_a_row_of_the_batch_on_gallery_expressions():
    checked = failed = 0
    for text in gallery_expressions():
        e = parse_expr(text)
        m = max(1, max_var_index(e))
        X = np.vstack([halton(20, m, seed=SEED) * 8.0 - 4.0, np.zeros((1, m))])
        values, t = batch([e], X)
        for k, x in enumerate(X):
            got = outcome(lambda: eval_expr(e, list(x)))
            want = outcome(lambda: oracle.eval_expr(e, [float(c) for c in x]))
            if t.cause[k] >= 0:
                assert got == want == (EvalError, str(t.why(k)))
                failed += 1
            else:
                assert isinstance(got, float)
                assert same_bits(np.float64(got), values[k, 0])
            checked += 1
    assert checked > 300 and failed > 0


def test_eval_map_and_jacobian_are_rows_of_the_batch_on_gallery_maps():
    checked = 0
    for doc in gallery_docs():
        for o in doc.base.overlaps:
            F = o.tau
            X = box_points(F.box)
            values, _ = batch(F.components, X)
            t = _Trial(X, {})
            with np.errstate(all="ignore"):
                J = t.jacobian(F, X, t.rows)
            for k, x in enumerate(X):
                row_or_oracle(outcome(lambda: eval_map(F, x)), values[k],
                              outcome(lambda: oracle.eval_map(F, x)))
                got = outcome(lambda: jacobian(F, x).matrix)
                row_or_oracle(got, J[k], outcome(lambda: oracle.jacobian(F, x)))
                checked += 1
    assert checked > 200


def test_field_functions_are_rows_of_the_batch_on_gallery_fields():
    checked = 0
    for doc in gallery_docs():
        B = doc.bundle
        if B is None:
            continue
        for A in list(doc.sections.values()) + list(doc.fields.values()):
            for chart, comps in A.per_chart.items():
                box = B.base.chart(chart).box
                X = box_points(box)
                values = batch(comps, X)[0].astype(B.field.dtype)
                for k, x in enumerate(X):
                    got = outcome(lambda: field_eval(A, chart, x).coeffs)
                    row_or_oracle(got, values[k], outcome(lambda: oracle.field_eval(A, chart, x)))
                    checked += 1
    assert checked > 500


def test_frame_matrix_at_is_a_row_of_the_batch_on_gallery_frames():
    checked = 0
    for doc in gallery_docs():
        for F in doc.frames.values():
            ((chart, P),) = F.fiber_map.items()
            d = F.target.fiber_dim
            X = box_points(F.target.base.chart(chart).box)
            flat = [e for row in P for e in row]
            values, _ = batch(flat, X)
            for k, x in enumerate(X):
                row = values[k].reshape(d, d).astype(F.target.field.dtype)
                row_or_oracle(outcome(lambda: frame_matrix_at(F, x)), row,
                              outcome(lambda: oracle.frame_matrix_at(F, x)))
                checked += 1
    assert checked > 100


def test_transition_eval_is_a_row_of_the_batch_on_gallery_bundles():
    checked = 0
    for doc in gallery_docs():
        B = doc.bundle
        if B is None:
            continue
        for e in B.edges:
            i, j = e.overlap.frm, e.overlap.to
            X = np.vstack([sample_region(e.overlap.region, 16, SEED),
                           box_points(B.base.chart(i).box, 8)])
            for x in X:
                got = outcome(lambda: transition_eval(B, i, j, x).matrix)
                want = outcome(lambda: oracle.transition_matrix(B, i, j, x))
                edge = next((f for f in B.edges_between(i, j)
                             if region_contains(f.overlap.region, x)), None)
                row = None
                if edge is not None:
                    flat = [c for r in edge.g for c in r]
                    row = batch(flat, x[None])[0][0]
                    row = row.reshape(B.fiber_dim, B.fiber_dim).astype(B.field.dtype)
                row_or_oracle(got, row, want)
                checked += 1
    assert checked > 200


def test_tf_eval_of_pulled_sums_and_products_is_a_row_of_the_batch():
    plane = make_smooth_map(["x1^2 - x2^2", "2*x1*x2"], [(-1, 1), (-1, 1)])
    maps = [(o.tau, base.chart(o.to).box)
            for base in (load_spec(gallery_path(n)).base for n in ("circle_base", "projective_base"))
            for o in base.overlaps]
    checked = 0
    for f, target in maps + [(plane, Box((-0.8, -0.8), (0.8, 0.8)))]:
        d = f.in_dim
        A = local_field(target, d, 1, 1, [f"{k + 2} + sin(x1 - x{d})" for k in range(d * d)])
        B = local_field(target, d, 1, 0, [f"sqrt(x{k + 1} + 0.5)" for k in range(d)])
        S = local_field(f.box, d, 1, 0, [f"cos({k + 1}*x1)" for k in range(d)])
        P, Q = map_pullback_rs(f, A, 1, 1), map_pullback_cov(f, B, 1)
        fields = [(P, oracle.closure_pullback_diffeo(f, A, 1, 1)),
                  (field_add(Q, S), oracle.closure_add(oracle.closure_pullback_cov(f, B, 1), S)),
                  (field_product(S, P), oracle.closure_product(S, oracle.closure_pullback_diffeo(f, A, 1, 1)))]
        X = box_points(f.box)
        for F, old in fields:
            values, _ = batch(F.per_chart[LOCAL_CHART], X)
            for k, x in enumerate(X):
                got = outcome(lambda: field_eval(F, LOCAL_CHART, x).coeffs)
                if isinstance(got, tuple):
                    assert outcome(lambda: oracle.closure_eval(old, x))[0] is got[0]
                else:
                    assert same_bits(got, values[k]), (got, values[k])
                    checked += 1
    assert checked > 300


def test_every_frame_stage_meets_the_fiber_map_entries_in_one_order():
    # At x1 < 0 two entries fail: log(x1) in column 1, sqrt(x1) in column 2.
    # The frame is its fiber map, the frame matrix, read row by row, so
    # every stage meets sqrt(x1) first.
    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "log(x1)"], ["sqrt(x1)", "1"]])
    A = make_field(B, 0, 1, {"left": ["1", "0"], "right": ["1", "0"]})
    x = [-0.5, 0.1]
    want = (EvalError, "sqrt of negative value -0.5")
    assert outcome(lambda: frame_matrix_at(F, x)) == want
    assert outcome(lambda: local_expression(A, F, [x])) == want
    assert outcome(lambda: oracle.frame_matrix_at(F, x)) == want
    assert "sqrt of negative value" in check_frame(F, 5).records[0].note
    assert "sqrt of negative value" in outcome(lambda: dual_frame(F))[1]


def test_one_point_shape_rule():
    doc = load_spec(gallery_path("mobius"))
    S, F = doc.sections["halfwave"], doc.frames["unit_east"]
    tau = doc.base.overlaps[0].tau
    message = "point shape (2,) does not match base dim 1"
    for call in (lambda: field_eval(S, "east", [0.1, 0.2]),
                 lambda: frame_matrix_at(F, [0.1, 0.2]),
                 lambda: transition_eval(doc.bundle, "east", "west", [0.1, 0.2])):
        assert outcome(call) == (ShapeMismatch, message)
    for call in (lambda: eval_map(tau, [0.1, 0.2]), lambda: jacobian(tau, [[0.1]])):
        assert outcome(call)[0] is ShapeMismatch
        assert "does not match domain dim 1" in outcome(call)[1]


def test_field_eval_fails_on_non_finite_values():
    B = mobius_bundle()
    S = make_field(B, 0, 1, {"east": ["x1*1e308*10"], "west": ["x1"]})
    assert outcome(lambda: field_eval(S, "east", [1.0])) == (
        EvalError, "field value not finite at [1.0]")
    assert field_eval(S, "west", [1.0]).coeffs.tolist() == [1.0]


# --------------------------------------------------------------------------
# The per-point loops the constructions used to run, on the oracle.


def old_tangent_loop(base, samples=25, seed=42):
    for o in base.overlaps:
        candidates = base.overlaps_between(o.to, o.frm)
        pts = sample_region(o.region, samples, seed)
        images = [oracle.eval_map(o.tau, x) for x in pts]
        rev = next((c for c in candidates if region_contains(c.region, images[0])), None)
        if rev is None:
            raise SpecError(
                f"image {images[0].tolist()} of overlap {o.frm}->{o.to} lies in no "
                f"declared {o.to}->{o.frm} overlap region")
        for y in images[1:]:
            if not region_contains(rev.region, y):
                raise SpecError(
                    f"overlap {o.frm}->{o.to} maps into more than one {o.to}->{o.frm} "
                    "component; split the overlap")


def old_induced_loop(B, base, assignment, maps, samples=50, seed=42):
    from vbx.calculus import make_smooth_map

    smooth = {}
    for c in base.charts:
        target_chart = B.base.chart(assignment[c.name])
        f = make_smooth_map(maps[c.name], c.box)
        for x in sample_box(c.box, samples, seed):
            y = oracle.eval_map(f, x)
            if not target_chart.box.contains(y):
                raise ChartAssignmentError(
                    f"image {y.tolist()} of chart '{c.name}' point {x.tolist()} "
                    f"escapes assigned chart '{target_chart.name}'")
        smooth[c.name] = f
    for o in base.overlaps:
        ci, cj = assignment[o.frm], assignment[o.to]
        if ci == cj:
            continue
        images = [oracle.eval_map(smooth[o.frm], x) for x in sample_region(o.region, samples, seed)]
        edge = next((e for e in B.edges_between(ci, cj)
                     if region_contains(e.overlap.region, images[0])), None)
        if edge is None:
            raise ChartAssignmentError(
                f"image {images[0].tolist()} of overlap {o.frm}->{o.to} lies in no "
                f"declared {ci}->{cj} overlap region")
        for y in images[1:]:
            if not region_contains(edge.overlap.region, y):
                raise ChartAssignmentError(
                    f"overlap {o.frm}->{o.to} maps into more than one {ci}->{cj} "
                    "component; split the overlap")


def old_pullback_loops(M, samples=25, tol=1e-10, seed=42, roundtrip_tol=1e-8):
    from vbx.calculus import make_smooth_map

    for c in M.source.base.charts:
        for x in sample_box(c.box, samples, seed):
            phi = oracle.eval_matrix(M.fiber_map[c.name], x, M.source.field.dtype)
            if not np.isfinite(phi).all():
                raise EvalError(f"fiber map not finite at {x.tolist()}")
            if oracle.scaled_abs_det(phi) <= tol:
                raise NotAnIsomorphism(f"fiber map singular at {x.tolist()}")
    smooth = {c.name: make_smooth_map(M.base_map[c.name], c.box)
              for c in M.source.base.charts}
    for c in M.target.base.charts:
        src_chart, comps = M.inverse[c.name]
        h = make_smooth_map(comps, c.box)
        src_box = M.source.base.chart(src_chart).box
        for y in sample_box(c.box, samples, seed):
            x = oracle.eval_map(h, y)
            if not src_box.contains(x):
                raise NotAnIsomorphism(
                    f"declared inverse leaves chart '{src_chart}' at {y.tolist()}")
            back = oracle.eval_map(smooth[src_chart], x)
            if float(np.max(np.abs(back - y))) > roundtrip_tol:
                raise NotAnIsomorphism(
                    f"declared inverse fails the round trip at {y.tolist()}")


def frame_rule(F, x, tol):
    """The fiber-map rule on a frame: its matrix is finite, then nonsingular."""
    P = oracle.frame_matrix_at(F, x)
    if not np.isfinite(P).all():
        raise EvalError(f"frame matrix not finite at {np.asarray(x).tolist()}")
    if oracle.scaled_abs_det(P) <= tol:
        raise SingularFrame(f"frame matrix singular at {np.asarray(x).tolist()}")


def old_dual_frame_loop(F, samples=25, tol=1e-10, seed=42):
    for x in sample_box(F.source.base.charts[0].box, samples, seed):
        frame_rule(F, x, tol)


def old_local_expression_loop(A, F, points, tol=1e-10):
    for p in points:
        frame_rule(F, p, tol)
        oracle.field_eval(A, F.source.base.charts[0].name, p)


def same_first_failure(new, old, error):
    """new() raises what old() raises, an error of type `error`; with error
    None, neither raises."""
    want = outcome(old)
    got = outcome(new)
    if error is None:
        assert not isinstance(want, tuple), want
        assert not isinstance(got, tuple), got
    else:
        assert want[0] is error
        assert got == want


def line_atlas(tau, region=(-1.0, 1.0), back="x1/2"):
    charts = [("a", [(-2.0, 2.0)]), ("b", [(-2.0, 2.0)])]
    return make_atlas(1, charts, [("a", "b", [[region]], [tau]),
                                  ("b", "a", [[(-2.0, 2.0)]], [back])])


@pytest.mark.parametrize("tau,error", [
    ("log(x1 + 0.5)", EvalError), ("sqrt(x1)*3", EvalError), ("exp(x1*1000)", EvalError),
    ("1e308*10*x1", EvalError), ("x1*3", SpecError), ("x1/2", None)])
def test_tangent_sampling_fails_at_the_first_sample_like_the_loop(tau, error):
    A = line_atlas(tau)
    same_first_failure(lambda: tangent_bundle(A), lambda: old_tangent_loop(A), error)


def test_tangent_sampling_rejects_straddling_images_like_the_loop():
    charts = [("a", [(-1.0, 1.0)]), ("b", [(-1.0, 1.0)])]
    A = make_atlas(1, charts, [("a", "b", [[(-0.5, 0.5)]], ["x1"]),
                               ("b", "a", [[(-0.5, 0.0)]], ["x1"]),
                               ("b", "a", [[(0.0, 0.5)]], ["x1"]),
                               ("a", "b", [[(-0.5, 0.0)]], ["x1"]),
                               ("a", "b", [[(0.0, 0.5)]], ["x1"])])
    same_first_failure(lambda: tangent_bundle(A), lambda: old_tangent_loop(A), SpecError)


@pytest.mark.parametrize("map_a,error", [
    # sqrt(x1)*6 escapes at the first sample and fails to evaluate at later ones
    ("sqrt(x1)*6", ChartAssignmentError), ("log(x1 + 0.5)*2", EvalError),
    ("3*x1 + 1", ChartAssignmentError), ("x1", ChartAssignmentError),
    ("x1 + 1e308*10", EvalError), ("x1/2 + 1", None)])
def test_induced_sampling_fails_at_the_first_sample_like_the_loop(map_a, error):
    B = mobius_bundle()
    charts = [("a", [(-1.0, 1.0)]), ("b", [(-1.0, 1.0)])]
    box = [(-1.0, 1.0)]
    A = make_atlas(1, charts, [("a", "b", [box], ["x1"]), ("b", "a", [box], ["x1"])])
    args = (B, A, {"a": "east", "b": "west"}, {"a": [map_a], "b": ["x1/2 + 1"]})
    same_first_failure(lambda: induced_bundle(*args), lambda: old_induced_loop(*args), error)


def plane_morphism(phi, inverse):
    B = plane_rotation_bundle()
    ident = ["x1", "x2"]
    return make_morphism(B, B, {"left": "left", "right": "right"},
                         {"left": ident, "right": ident}, {"left": phi, "right": phi},
                         inverse={"left": ("left", inverse), "right": ("right", ident)})


EYE = [["1", "0"], ["0", "1"]]


# Singular where x1 > 0.04 (exp underflows), overflowing where x1 < -0.71:
# the first sample is singular, later ones overflow.
SINGULAR_OR_OVERFLOW = [["1", "1"], ["1", "1 + exp(-1000*x1)"]]


@pytest.mark.parametrize("phi,inverse,error", [
    (SINGULAR_OR_OVERFLOW, ["x1", "x2"], NotAnIsomorphism),
    ([["log(x1 + 1)", "0"], ["0", "1"]], ["x1", "x2"], EvalError),
    (EYE, ["x1*3", "x2"], NotAnIsomorphism),  # leaves the chart, or fails the round trip
    (EYE, ["log(x1 + 1)", "x2"], NotAnIsomorphism),  # fails the round trip, then to evaluate
    (EYE, ["log(-x1)", "x2"], EvalError),
    (EYE, ["x1", "x2"], None),
    ([["1e200*1e200*x1", "0"], ["0", "1"]], ["x1", "x2"], EvalError),  # not finite
])
def test_pullback_sampling_fails_at_the_first_sample_like_the_loops(phi, inverse, error):
    M = plane_morphism(phi, inverse)
    A = make_field(M.target, 1, 1, {"left": ["1", "0", "0", "1"], "right": ["1", "0", "0", "1"]})
    same_first_failure(lambda: vb_pullback_rs(M, A), lambda: old_pullback_loops(M), error)


@pytest.mark.parametrize("columns,error", [(SINGULAR_OR_OVERFLOW, SingularFrame),
                                           ([["log(x1 + 1)", "0"], ["0", "1"]], EvalError),
                                           ([["1", "1"], ["1", "1 + 0*x1"]], SingularFrame),
                                           (EYE, None),
                                           ([["1e200*1e200*x1", "0"], ["0", "1"]], EvalError)])
def test_dual_frame_sampling_fails_at_the_first_sample_like_the_loop(columns, error):
    F = make_frame(plane_rotation_bundle(), "left", columns)
    same_first_failure(lambda: dual_frame(F), lambda: old_dual_frame_loop(F), error)


def test_local_expression_fails_at_the_first_point_like_the_loop():
    B = plane_rotation_bundle()
    A = make_field(B, 1, 1, {"left": ["log(x1 + 1)", "x2", "1", "x1"],
                             "right": ["1", "0", "0", "1"]})
    F = make_frame(B, "left", SINGULAR_OR_OVERFLOW)
    fine = [(-0.5, 0.2), (-0.3, -0.4)]
    for bad, error in (((-1.5, 0.0), EvalError), ((0.3, 0.0), SingularFrame),
                       ((-0.9, 0.0), EvalError), ((3.0, 0.0), DomainViolation)):
        for points in (fine + [bad], [bad] + fine, fine + [bad, (0.3, 0.0), bad]):
            same_first_failure(lambda: local_expression(A, F, points),
                               lambda: old_local_expression_loop(A, F, points), error)
    folded = make_frame(B, "left", [["1", "1"], ["1", "1"]])  # its determinant folds to 0
    points = [(-0.5, 0.2), (0.3, 0.0)]
    same_first_failure(lambda: local_expression(A, folded, points),
                       lambda: old_local_expression_loop(A, folded, points), SingularFrame)
    values = local_expression(A, F, fine)
    assert values.shape == (2, 4) and np.isfinite(values).all()
    assert local_expression(A, F, []).shape == (0,)
