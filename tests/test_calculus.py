"""Smooth maps, exact derivatives, and fields on a box pulled back along them."""

import math

import numpy as np
import pytest
import scalar_oracle as oracle
from support import local_field, mobius_bundle

from vbx.calculus import eval_map, identity_map, jacobian, make_smooth_map
from vbx.constructions import LOCAL_CHART, local_bundle, map_pullback_cov, map_pullback_rs
from vbx.coords import make_box
from vbx.errors import DomainViolation, NotADiffeomorphism, ShapeMismatch, SpecError, VbxError
from vbx.geometry import sample_box
from vbx.pointwise import (
    chain_defect,
    compose_maps,
    directional_derivative,
    field_add,
    field_product,
    field_smul,
    leibniz_defect,
    product_partials,
)
from vbx.spec import field_eval, make_field
from vbx.specio import gallery_path, list_gallery, load_spec
from vbx.tensors import tensor_eval

AD_VS_FD_TOL = 1e-6
DEFECT_TOL = 1e-10

BOX2 = make_box([(-4, 4), (-4, 4)])


def test_eval_and_jacobian_frozen_case():
    F = make_smooth_map(["x1*x2", "x1 + x2"], BOX2)
    assert np.allclose(eval_map(F, [2.0, 3.0]), [6.0, 5.0], atol=0)
    J = jacobian(F, [2.0, 3.0]).matrix
    assert np.allclose(J, [[3.0, 2.0], [1.0, 1.0]], atol=0)


def test_eval_rejects_points_outside_the_box():
    F = make_smooth_map(["x1*x2", "x1 + x2"], BOX2)
    with pytest.raises(DomainViolation):
        eval_map(F, [5.0, 0.0])
    with pytest.raises(DomainViolation):
        jacobian(F, [0.0, -4.0])  # boundary is outside an open box


def test_make_smooth_map_validates():
    with pytest.raises(ShapeMismatch):
        make_smooth_map(["x3"], BOX2)  # more variables than the box has axes
    with pytest.raises(ShapeMismatch):
        make_smooth_map([], BOX2)


def test_jacobian_matches_central_differences():
    F = make_smooth_map(["sin(x1)*exp(x2)", "x1^2 - x2^3", "x1/(4 + x2)"], BOX2)
    pts = sample_box(make_box([(-2, 2), (-2, 2)]), 100, seed=0)
    h = 1e-6
    for x in pts:
        J = jacobian(F, x).matrix
        for k in range(2):
            step = np.zeros(2)
            step[k] = h
            fd = (eval_map(F, x + step) - eval_map(F, x - step)) / (2 * h)
            scale = np.maximum(1.0, np.abs(J[:, k]))
            assert np.max(np.abs(J[:, k] - fd) / scale) < AD_VS_FD_TOL


def test_directional_derivative():
    f = make_smooth_map(["x1^2*x2"], BOX2)
    got = directional_derivative(f, [1.0, 2.0], [1.0, -1.0])
    # gradient is (2*x1*x2, x1^2) = (4, 1); dot with (1,-1) gives 3
    assert got == pytest.approx(3.0, abs=1e-14)


def test_compose_maps_and_identity():
    f = make_smooth_map(["x1 + 1", "2*x1"], make_box([(0, 1)]))
    g = make_smooth_map(["x1*x2"], BOX2)
    gf = compose_maps(g, f)
    assert gf.in_dim == 1 and gf.out_dim == 1
    assert eval_map(gf, [0.5])[0] == pytest.approx(1.5, abs=1e-15)
    ident = identity_map(BOX2)
    assert np.allclose(eval_map(ident, [0.3, -0.4]), [0.3, -0.4], atol=0)


def test_leibniz_defect_vanishes():
    f = make_smooth_map(["sin(x1)*x2"], BOX2)
    g = make_smooth_map(["exp(x1 - x2)"], BOX2)
    for x, v in [([0.5, 1.0], [1.0, 0.0]), ([-1.0, 2.0], [0.3, -0.7])]:
        assert abs(leibniz_defect(f, g, x, v)) < DEFECT_TOL


def test_chain_defect_vanishes():
    f = make_smooth_map(["x1/2", "x2/2"], BOX2)
    g = make_smooth_map(["sin(x1 + x2)", "x1*x2"], BOX2)
    for x in ([0.4, 0.8], [-1.2, 2.0]):
        assert chain_defect(g, f, x) < DEFECT_TOL


def test_chain_defect_guards_codomain():
    f = make_smooth_map(["10*x1", "x2"], BOX2)
    g = make_smooth_map(["x1 + x2"], BOX2)
    with pytest.raises(DomainViolation):
        chain_defect(g, f, [1.0, 0.0])


def test_product_partials_frozen_case():
    F = make_smooth_map(["x1*x2"], BOX2)
    got = product_partials(F, [2.0], [3.0], [1.0], [1.0])
    # slotwise: d/dt F(2+t, 3) + d/dt F(2, 3+t) = 3 + 2 = 5
    assert got.shape == (1,)
    assert got[0] == pytest.approx(5.0, abs=1e-14)


def test_product_partials_match_full_jacobian():
    F = make_smooth_map(["sin(x1)*x2 + x1*x3", "x2*x3"], make_box([(-2, 2)] * 3))
    p1, p2 = [0.7], [1.1, -0.4]
    v1, v2 = [0.9], [-0.2, 0.5]
    got = product_partials(F, p1, p2, v1, v2)
    full = jacobian(F, p1 + p2).matrix @ np.concatenate([v1, v2])
    assert np.allclose(got, full, atol=1e-12)


def test_tensor_field_eval_and_arithmetic():
    box = make_box([(-1, 1), (-1, 1)])
    A = local_field(box, 2, 1, 0, ["x1", "x2"])
    B = local_field(box, 2, 1, 0, ["1", "x2^2"])
    x = [0.25, -0.5]
    TA = field_eval(A, LOCAL_CHART, x)
    assert TA.valence == (1, 0)
    assert np.allclose(TA.coeffs, [0.25, -0.5], atol=0)
    S = field_add(A, B)
    assert np.allclose(field_eval(S, LOCAL_CHART, x).coeffs, [1.25, -0.25], atol=0)
    H = field_smul(2.0, A)
    assert np.allclose(field_eval(H, LOCAL_CHART, x).coeffs, 2 * TA.coeffs, atol=0)
    with pytest.raises(DomainViolation):
        field_eval(A, LOCAL_CHART, [2.0, 0.0])


def test_tf_product_matches_pointwise_tensor_product():
    box = make_box([(-1, 1)])
    A = local_field(box, 2, 1, 0, ["x1", "1 - x1"])
    B = local_field(box, 2, 0, 1, ["2", "x1^2"])
    P = field_product(A, B)
    assert (P.r, P.s) == (1, 1)
    for x in ([0.3], [-0.8]):
        want = np.outer(field_eval(A, LOCAL_CHART, x).coeffs,
                        field_eval(B, LOCAL_CHART, x).coeffs).reshape(-1)
        assert np.allclose(field_eval(P, LOCAL_CHART, x).coeffs, want, atol=1e-14)


def test_tf_pullback_diffeo_defining_property():
    # f(x) = (x1 + x2, x1 - x2) is linear with constant Jacobian M, so the
    # pulled field at x must be the linear pullback of the field at f(x).
    box = make_box([(-1, 1), (-1, 1)])
    f = make_smooth_map(["x1 + x2", "x1 - x2"], box)
    M = np.array([[1.0, 1.0], [1.0, -1.0]])
    A = local_field(make_box([(-2.5, 2.5)] * 2), 2, 1, 1, ["x1", "0", "x2", "1"])
    pulled = map_pullback_rs(f, A, 1, 1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-0.9, 0.9, size=2)
        v = rng.normal(size=2)
        u = rng.normal(size=2)
        target = field_eval(A, LOCAL_CHART, M @ x)
        want = tensor_eval(target, [M @ v], [np.linalg.inv(M).T @ u])
        got = tensor_eval(field_eval(pulled, LOCAL_CHART, x), [v], [u])
        assert got == pytest.approx(want, abs=1e-10 * max(1.0, abs(want)))


def test_tf_pullback_diffeo_rejects_folds():
    box = make_box([(-1, 1)])
    f = make_smooth_map(["x1^2"], box)  # Jacobian vanishes at the origin
    A = local_field(make_box([(-2, 2)]), 1, 0, 1, ["1"])
    pulled = map_pullback_rs(f, A, 0, 1)
    with pytest.raises(NotADiffeomorphism):
        field_eval(pulled, LOCAL_CHART, [0.0])


def test_make_tensor_field_rejects_negative_valence():
    with pytest.raises(SpecError, match="non-negative"):
        make_field(local_bundle(make_box([(0, 1)]), 2), -1, 1, {LOCAL_CHART: ["x1"]})


def test_pullbacks_check_the_field_box_against_the_codomain_when_built():
    f = make_smooth_map(["2*x1"], make_box([(-1, 1)]))
    A = local_field(BOX2, 1, 1, 0, ["x1"])
    with pytest.raises(ShapeMismatch, match="box dim 2 does not match the map's codomain dim 1"):
        map_pullback_rs(f, A, 1, 0)
    with pytest.raises(ShapeMismatch, match="box dim 2 does not match the map's codomain dim 1"):
        map_pullback_cov(f, A, 1)
    on_two_charts = make_field(mobius_bundle(), 1, 0, {"east": ["1"], "west": ["1"]})
    with pytest.raises(ShapeMismatch, match="a field on one chart, not 2"):
        map_pullback_cov(f, on_two_charts, 1)


def test_a_jacobian_whose_determinant_folds_to_zero():
    f = make_smooth_map(["x1 + x2", "x1 + x2"], make_box([(-1, 1), (-1, 1)]))
    with pytest.raises(NotADiffeomorphism, match="identically zero"):
        map_pullback_rs(f, local_field(BOX2, 2, 1, 1, ["1", "0", "0", "1"]), 1, 1)
    # With no covector slot no inverse is built, and each point breaks the rule.
    pulled = map_pullback_rs(f, local_field(BOX2, 2, 1, 0, ["1", "x2"]), 1, 0)
    with pytest.raises(NotADiffeomorphism, match=r"singular at \[0.5, 0.25\]"):
        field_eval(pulled, LOCAL_CHART, [0.5, 0.25])


def test_tf_pullback_cov_works_across_dimensions():
    f = make_smooth_map(["x1", "x1^2"], make_box([(-1, 1)]))
    A = local_field(make_box([(-2, 2), (-2, 2)]), 2, 1, 0, ["x2", "1"])
    pulled = map_pullback_cov(f, A, 1)
    assert pulled.bundle.fiber_dim == 1
    for x in ([0.5], [-0.3]):
        J = jacobian(f, x).matrix
        want = tensor_eval(field_eval(A, LOCAL_CHART, eval_map(f, x)),
                           [J @ np.array([1.0])], [])
        got = tensor_eval(field_eval(pulled, LOCAL_CHART, x), [np.array([1.0])], [])
        assert got == pytest.approx(want, abs=1e-12)


# --------------------------------------------------------------------------
# Derived fields against the closures they replaced (scalar_oracle): the
# same exception type at every point, the same message for the rules that
# name a point, and coefficients within PULLED_REL_TOL of the oracle's,
# relative to the largest of them. K(J) is the adjugate over det J where
# the oracle inverts J by LAPACK, so the last bits may differ: the largest
# difference measured on these inputs is 1.1e-15.

PULLED_REL_TOL = 1e-14
VALENCES = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
EXACT_MESSAGES = (DomainViolation, NotADiffeomorphism, ShapeMismatch)


def _sample_field(box, r, s, shift=0):
    """A smooth (r,s)-field on box whose first coefficient, a sqrt, fails
    on part of it. Both sides take it as the field to pull back."""
    d = box.dim
    comps = [f"{(k + shift) % 3 + 2} + sin({k + 1}*x1 - x{d})" for k in range(d ** (r + s))]
    comps[0] = f"sqrt(x1 + {0.75 * max(abs(box.lo[0]), 1.0)})"
    return local_field(box, d, r, s, comps)


def _probe_points(box, extra=()):
    """Seeded points of the box, a point past each of its corners lo and
    hi, any extra points and one point of the wrong shape."""
    lo, hi = np.array(box.lo), np.array(box.hi)
    pts = [*sample_box(box, 40, seed=5), lo - 0.5, hi + 0.5, *map(np.asarray, extra)]
    return pts + [np.zeros(box.dim + 1)]


def _outcome(fn):
    try:
        return fn()
    except VbxError as exc:
        return type(exc), str(exc)


def _agree(new, old, points) -> list:
    """Assert new and old (vbx and oracle fields) fail alike at every
    point; return the relative coefficient difference at each other one."""
    diffs = []
    for x in points:
        got = _outcome(lambda: field_eval(new, LOCAL_CHART, x).coeffs)
        want = _outcome(lambda: oracle.closure_eval(old, x).coeffs)
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert isinstance(got, tuple) and isinstance(want, tuple), (x, got, want)
            assert got[0] is want[0], (x, got, want)
            assert got[0] not in EXACT_MESSAGES or got == want, (x, got, want)
        else:
            err = np.max(np.abs(got - want))
            diffs.append(0.0 if err == 0 else float(err / np.max(np.abs(want))))
    return diffs


def _gallery_maps():
    """Each distinct gallery overlap map with the box of its target chart."""
    seen = {}
    for name in list_gallery():
        base = load_spec(gallery_path(name)).base
        for o in base.overlaps:
            target = base.chart(o.to).box
            seen.setdefault((repr(o.tau), target), (o.tau, target))
    return list(seen.values())


PLANE_MAPS = [
    (["x1*cos(x2)", "x1*sin(x2)"], [(0.5, 2), (-1, 1)], [(-3, 3), (-3, 3)]),
    (["x1 + x2^3/3", "x2 - sin(x1)/2"], [(-1, 1), (-1, 1)], [(-2, 2), (-2, 2)]),
    (["x1^2 - x2^2", "2*x1*x2"], [(-1, 1), (-1, 1)], [(-2.5, 2.5), (-2.5, 2.5)]),  # a fold at 0
]


def test_pulled_fields_match_the_closure_oracle_on_gallery_and_plane_maps():
    cases = _gallery_maps() + [(make_smooth_map(c, b), make_box(t)) for c, b, t in PLANE_MAPS]
    diffs = []
    for f, target in cases:
        points = _probe_points(f.box, extra=[np.zeros(f.in_dim)])
        for r, s in VALENCES:
            A = _sample_field(target, r, s)
            diffs += _agree(map_pullback_rs(f, A, r, s),
                            oracle.closure_pullback_diffeo(f, A, r, s), points)
    assert len(diffs) > 1000 and max(diffs) <= PULLED_REL_TOL


def test_nested_pullbacks_match_the_closure_oracle():
    diffs = []
    for name in ("circle_base", "projective_base"):
        atlas = load_spec(gallery_path(name)).base
        for o in atlas.overlaps:
            for rev in atlas.overlaps_between(o.to, o.frm):
                f, back = o.tau, rev.tau
                A = _sample_field(f.box, 1, 1)
                new = map_pullback_rs(f, map_pullback_rs(back, A, 1, 1), 1, 1)
                old = oracle.closure_pullback_diffeo(
                    f, oracle.closure_pullback_diffeo(back, A, 1, 1), 1, 1)
                diffs += _agree(new, old, _probe_points(f.box, extra=[[0.0]]))
    assert len(diffs) > 100 and max(diffs) <= PULLED_REL_TOL


def test_sums_multiples_and_products_of_pulled_fields_match_the_closure_oracle():
    # Inside the box the pulled fields fail at the fold, where the image
    # leaves the small target box, and where sqrt fails on it; so do the
    # operands' own coefficients, so that the order of the rules shows.
    f = make_smooth_map(*PLANE_MAPS[2][:2])
    target = make_box([(-0.8, 0.8), (-0.8, 0.8)])
    A, B = _sample_field(target, 1, 0), _sample_field(target, 1, 0, shift=1)
    S, T = _sample_field(f.box, 0, 1), _sample_field(f.box, 1, 0, shift=2)
    pa, pb = map_pullback_rs(f, A, 1, 0), map_pullback_rs(f, B, 1, 0)
    qa, qb = oracle.closure_pullback_diffeo(f, A, 1, 0), oracle.closure_pullback_diffeo(f, B, 1, 0)
    pairs = [
        (field_add(pa, pb), oracle.closure_add(qa, qb)),
        (field_add(T, pa), oracle.closure_add(T, qa)),
        (field_smul(-2.5, pa), oracle.closure_smul(-2.5, qa)),
        (field_smul(0.0, pa), oracle.closure_smul(0.0, qa)),
        (field_product(pa, S), oracle.closure_product(qa, S)),
        (field_product(S, field_add(pa, pb)), oracle.closure_product(S, oracle.closure_add(qa, qb))),
    ]
    diffs = []
    for new, old in pairs:
        diffs += _agree(new, old, _probe_points(f.box, extra=[[0.0, 0.0]]))
    assert len(diffs) > 100 and max(diffs) <= PULLED_REL_TOL


def test_covariant_pullbacks_across_dimensions_match_the_closure_oracle():
    cases = [
        (["x1", "x1^2"], [(-1, 1)], [(-2, 2), (-2, 2)]),
        (["x1", "0.5"], [(-1, 1)], [(-2, 2), (-2, 2)]),  # K drops the 2nd slot symbolically
        (["x1*x2 + 1"], [(-1, 1), (-1, 1)], [(-1.5, 1.5)]),
        (["x1", "x2", "x1*x2"], [(-1, 1), (-1, 1)], [(-2, 2)] * 3),
    ]
    diffs = []
    for comps, box, target in cases:
        f = make_smooth_map(comps, box)
        for r in (0, 1, 2):
            # Every coefficient but the first fails where the last coordinate
            # is below 0.25, so a slot K drops still fails its points.
            d = len(target)
            A = local_field(target, d, r, 0, ["x1 + 3"] + [f"log(x{d} - 0.25)"] * (d ** r - 1))
            diffs += _agree(map_pullback_cov(f, A, r), oracle.closure_pullback_cov(f, A, r),
                            _probe_points(f.box, extra=[np.zeros(f.in_dim)]))
    assert len(diffs) > 100 and max(diffs) <= PULLED_REL_TOL


def test_pulling_back_along_a_quotient_stays_finite_where_its_denominator_squared_overflows():
    # d(x1/x2)/dx2 is (0 - (x1/x2)*1)/x2, as forward mode has it; the
    # quotient rule's x2^2 would overflow at x2 = 1e160. A (0,2)-field's
    # pullback is itself about 1e320 there, so it is left out.
    f = make_smooth_map(["x1/x2", "x2"], [(0.5, 2), (1e159, 1e161)])
    target = make_box([(-1, 1), (1e159, 1e161)])
    x = [1.0, 1e160]
    for r, s in [v for v in VALENCES if v != (0, 2)]:
        A = local_field(target, 2, r, s, [f"{k + 2} + x1" for k in range(2 ** (r + s))])
        got = field_eval(map_pullback_rs(f, A, r, s), LOCAL_CHART, x).coeffs
        want = oracle.closure_eval(oracle.closure_pullback_diffeo(f, A, r, s), x).coeffs
        assert np.isfinite(got).all(), (r, s)
        assert np.max(np.abs(got - want)) <= PULLED_REL_TOL * np.max(np.abs(want)), (r, s)


@pytest.mark.parametrize("tau, box", [
    ("x1^2", (-1, 1)),  # a fold at 0
    ("3*x1", (-1, 1)),  # the image leaves the inner box past |x1| = 2/3
    ("exp(exp(x1))", (-10, 10)),  # overflows past x1 = 6.56
    ("1e308*(x1 + 2)", (-1, 1)),  # a finite Jacobian, an infinite value past x1 = -0.2
])
def test_failing_maps_fail_like_the_closure_oracle(tau, box):
    f = make_smooth_map([tau], make_box([box]))
    for r, s in VALENCES:
        A = _sample_field(make_box([(-2, 2)]), r, s)
        diffs = _agree(map_pullback_rs(f, A, r, s), oracle.closure_pullback_diffeo(f, A, r, s),
                       _probe_points(f.box, extra=[[0.0]]))
        assert max(diffs, default=0.0) <= PULLED_REL_TOL
