"""Derived bundles, fields, morphisms, and their sampled checks.

The algebraic constructions emit symbolic transition matrices; the tests
here evaluate those numerically and compare against matrices assembled
with plain numpy from the input bundle's transitions, so the symbolic
route is cross-checked by an independent numeric one.
"""

import hashlib
import itertools
import json
import warnings

import numpy as np
import pytest
from support import (
    PI,
    TWO_PI,
    circle_atlas,
    circle_trivial_bundle,
    double_cover_map,
    mobius_bundle,
    plane_atlas,
    plane_rotation_bundle,
    quarter_circle_atlas,
)

from vbx.bundles import check_frame, check_section, check_vb
from vbx.calculus import make_smooth_map
from vbx.constructions import (
    LOCAL_CHART,
    base_restriction,
    check_morphism,
    check_tensor_field,
    compose_morphism,
    direct_product,
    dual_bundle,
    hom_bundle,
    identity_morphism,
    induced_bundle,
    local_expression,
    make_morphism,
    map_pullback_cov,
    subbundle_check,
    tangent_bundle,
    tensor_bundle,
    vb_pullback_cov,
    vb_pullback_rs,
    whitney_sum,
)
from vbx.coords import FieldTag
from vbx.errors import (
    BaseMismatch,
    ChartAssignmentError,
    DomainViolation,
    NotAnIsomorphism,
    ShapeMismatch,
    SingularFrame,
    SpecError,
    UnsupportedField,
    VbxError,
)
from vbx.expr import eval_expr, parse_expr
from vbx.geometry import sample_box
from vbx.linalg import make_linear, make_space
from vbx.pointwise import (
    dual_frame,
    field_add,
    field_fmul,
    field_product,
    field_smul,
    frame_matrix_at,
    transition_eval,
)
from vbx.pullbacks import cov_pullback, rs_pullback
from vbx.report import MIN_DET
from vbx.spec import (
    BundleMorphismSpec,
    field_eval,
    make_atlas,
    make_bundle,
    make_field,
    make_frame,
    make_section,
)
from vbx.specio import gallery_path, list_gallery, load_spec, save_spec
from vbx.tensors import tensor_add, tensor_product

CHECK_TOL = 1e-9
SAMPLES = 120
BAND_POINTS = [(0.2, 0.3), (-0.4, -0.8), (0.0, 0.5)]  # inside the plane overlap


def shear_bundle():
    # non-orthogonal transition, so inverse-transpose differs from g itself
    g = [["1", "x1"], ["0", "1"]]
    g_inv = [["1", "-x1"], ["0", "1"]]
    return make_bundle(plane_atlas(), 2, FieldTag.REAL,
                       [("left", "right", g), ("right", "left", g_inv)])


def kron_power(m, k):
    out = np.eye(1)
    for _ in range(k):
        out = np.kron(out, m)
    return out


def box_mid(b):
    return [(lo + hi) / 2 for lo, hi in zip(b.lo, b.hi)]


def eval_expr_matrix(rows, x):
    env = list(x)
    return np.array([[eval_expr(e if not isinstance(e, str) else parse_expr(e), env)
                      for e in row] for row in rows])


# --------------------------------------------------------------------------
# Algebraic constructions over a fixed base.


@pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (0, 2), (1, 1), (2, 0)])
def test_tensor_bundle_transition_matches_numeric_kron(r, s):
    B = shear_bundle()
    TB = tensor_bundle(B, r, s)
    assert TB.fiber_dim == 2 ** (r + s)
    for x in BAND_POINTS:
        G = transition_eval(B, "left", "right", x).matrix
        expected = np.kron(kron_power(np.linalg.inv(G).T, r), kron_power(G, s))
        got = transition_eval(TB, "left", "right", x).matrix
        assert np.allclose(got, expected, atol=1e-12)


def test_tensor_bundle_cocycle_and_valence_guard():
    B = shear_bundle()
    rep = check_vb(tensor_bundle(B, 1, 1), SAMPLES, CHECK_TOL, seed=5)
    assert rep.passed
    with pytest.raises(SpecError):
        tensor_bundle(B, -1, 0)


def test_mixed_densities_untwist_the_mobius_band():
    # on a rank-one bundle the (1,1) transition is g/g = 1, so any global
    # function of the angle is a legal (1,1)-field even though the bundle
    # itself has no nonvanishing section
    B = mobius_bundle()
    TB = tensor_bundle(B, 1, 1)
    assert transition_eval(TB, "east", "west", [-0.5]).matrix[0, 0] == pytest.approx(1.0)
    A = make_field(B, 1, 1, {"east": ["sin(x1)"], "west": ["sin(x1)"]})
    assert check_tensor_field(A, SAMPLES, CHECK_TOL, seed=5).passed


def test_dual_bundle_transition_is_inverse_transpose():
    B = shear_bundle()
    D = dual_bundle(B)
    for x in BAND_POINTS:
        G = transition_eval(B, "left", "right", x).matrix
        got = transition_eval(D, "left", "right", x).matrix
        assert np.allclose(got, np.linalg.inv(G).T, atol=1e-12)
    # away from x1 = 0 the shear makes the dual genuinely differ
    G = transition_eval(B, "left", "right", (0.4, 0.0)).matrix
    got = transition_eval(D, "left", "right", (0.4, 0.0)).matrix
    assert not np.allclose(got, G)


def test_hom_bundle_transition_conjugates():
    B1 = shear_bundle()
    B2 = plane_rotation_bundle()
    H = hom_bundle(B1, B2)
    assert H.fiber_dim == 4
    for x in BAND_POINTS:
        G1 = transition_eval(B1, "left", "right", x).matrix
        G2 = transition_eval(B2, "left", "right", x).matrix
        got = transition_eval(H, "left", "right", x).matrix
        assert np.allclose(got, np.kron(G2, np.linalg.inv(G1).T), atol=1e-12)


def test_whitney_sum_blocks():
    B1 = mobius_bundle()
    B2 = circle_trivial_bundle(2)
    W = whitney_sum(B1, B2)
    assert W.fiber_dim == 3
    got = transition_eval(W, "east", "west", [-0.5]).matrix
    assert np.allclose(got, np.diag([-1.0, 1.0, 1.0]))
    assert check_vb(W, SAMPLES, CHECK_TOL, seed=5).passed
    # stacked sections: twisted first component, constant rest
    S = make_section(W, {"east": ["cos(x1/2)", "5", "x1"],
                         "west": ["cos(x1/2)", "5", "x1 - 2*pi"]})
    assert not check_section(S, SAMPLES, CHECK_TOL, seed=5).passed
    S = make_section(W, {"east": ["cos(x1/2)", "5", "sin(x1)"],
                         "west": ["cos(x1/2)", "5", "sin(x1)"]})
    assert check_section(S, SAMPLES, CHECK_TOL, seed=5).passed


def test_same_base_guards():
    with pytest.raises(BaseMismatch):
        whitney_sum(mobius_bundle(), plane_rotation_bundle())
    with pytest.raises(BaseMismatch):
        hom_bundle(plane_rotation_bundle(), mobius_bundle())


# --------------------------------------------------------------------------
# Direct products.


def test_direct_product_structure():
    P = direct_product(mobius_bundle(), circle_trivial_bundle())
    assert P.base.dim == 2
    assert sorted(c.name for c in P.base.charts) == [
        "east|east", "east|west", "west|east", "west|west"]
    assert P.fiber_dim == 2
    # both factors move: block of the two factor transitions
    got = transition_eval(P, "east|east", "west|west", [0.5, 0.7]).matrix
    assert np.allclose(got, np.eye(2))
    got = transition_eval(P, "east|east", "west|west", [-0.5, 0.7]).matrix
    assert np.allclose(got, np.diag([-1.0, 1.0]))
    # second factor stays in its chart: identity block there
    got = transition_eval(P, "east|east", "west|east", [-0.5, 0.7]).matrix
    assert np.allclose(got, np.diag([-1.0, 1.0]))


def test_direct_product_passes_checks():
    P = direct_product(mobius_bundle(), circle_trivial_bundle())
    assert check_vb(P, 60, CHECK_TOL, seed=5).passed


def test_direct_product_guards():
    complex_line = make_bundle(circle_atlas(), 1, FieldTag.COMPLEX,
                               [("east", "west", [["1"]]), ("east", "west", [["1"]]),
                                ("west", "east", [["1"]]), ("west", "east", [["1"]])])
    with pytest.raises(UnsupportedField):
        direct_product(mobius_bundle(), complex_line)
    # bracketed factor names collide: (x|(y)|z) is both ('(x', 'y)|z') and ('x|(y', 'z)')
    left = make_bundle(make_atlas(1, [("(x", [(0, 1)]), ("x|(y", [(2, 3)])], []),
                       1, FieldTag.REAL, [])
    right = make_bundle(make_atlas(1, [("y)|z", [(0, 1)]), ("z)", [(2, 3)])], []),
                        1, FieldTag.REAL, [])
    with pytest.raises(SpecError, match="duplicate chart name"):
        direct_product(left, right)


def test_products_nest():
    P = direct_product(mobius_bundle(), circle_trivial_bundle())
    PP = direct_product(P, mobius_bundle())
    assert sorted(c.name for c in PP.base.charts)[:2] == ["(east|east)|east", "(east|east)|west"]
    assert len(PP.base.charts) == 8 and PP.fiber_dim == 3
    got = transition_eval(PP, "(east|east)|east", "(west|west)|west", [-0.5, 0.7, -0.5]).matrix
    assert np.allclose(got, np.diag([-1.0, 1.0, -1.0]))
    assert check_vb(PP, 40, CHECK_TOL, seed=5).passed


# --------------------------------------------------------------------------
# Induced bundles.


def test_induced_double_cover_untwists():
    B = mobius_bundle()
    assignment, maps = double_cover_map()
    I = induced_bundle(B, quarter_circle_atlas(), assignment, maps)
    assert I.fiber_dim == 1
    assert check_vb(I, SAMPLES, CHECK_TOL, seed=6).passed
    # the angle doubles, so the sign flip is crossed twice and cancels:
    # a global nonvanishing section exists on the pullback
    S = make_section(I, {"c0": ["1"], "c1": ["1"], "c2": ["-1"], "c3": ["-1"]})
    assert check_section(S, SAMPLES, CHECK_TOL, seed=6).passed
    # while the naive constant refuses to match across the flips
    S1 = make_section(I, {"c0": ["1"], "c1": ["1"], "c2": ["1"], "c3": ["1"]})
    assert not check_section(S1, SAMPLES, CHECK_TOL, seed=6).passed


def test_induced_shared_target_chart_gives_identity():
    charts = [("u", [(-1.0, 0.5)]), ("v", [(-0.5, 1.0)])]
    box = [(-0.5, 0.5)]
    A = make_atlas(1, charts, [("u", "v", [box], ["x1"]), ("v", "u", [box], ["x1"])])
    B = mobius_bundle()
    I = induced_bundle(B, A, {"u": "east", "v": "east"}, {"u": ["x1"], "v": ["x1"]})
    assert transition_eval(I, "u", "v", [0.2]).matrix[0, 0] == 1.0
    assert check_vb(I, SAMPLES, CHECK_TOL, seed=6).passed


def test_induced_rejects_chart_escape():
    B = mobius_bundle()
    assignment, maps = double_cover_map()
    maps = dict(maps, c0=["2*x1 + 3"])  # pushes part of c0's image past pi
    with pytest.raises(ChartAssignmentError):
        induced_bundle(B, quarter_circle_atlas(), assignment, maps)


def test_induced_rejects_overlap_spanning_two_components():
    B = mobius_bundle()
    charts = [("a", [(-1.0, 1.0)]), ("b", [(-1.0, 1.0)])]
    box = [(-1.0, 1.0)]
    A = make_atlas(1, charts, [("a", "b", [box], ["x1"]), ("b", "a", [box], ["x1"])])
    # a's image straddles theta = 0, where the east->west gluing switches
    # from one declared component to the other
    with pytest.raises(ChartAssignmentError):
        induced_bundle(B, A, {"a": "east", "b": "west"},
                       {"a": ["x1"], "b": ["x1 + pi"]})


def test_induced_requires_complete_data():
    B = mobius_bundle()
    assignment, maps = double_cover_map()
    with pytest.raises(SpecError):
        induced_bundle(B, quarter_circle_atlas(),
                       {k: v for k, v in assignment.items() if k != "c2"}, maps)
    with pytest.raises(SpecError):
        induced_bundle(B, quarter_circle_atlas(), assignment,
                       dict(maps, c1=["x1", "x1"]))


# --------------------------------------------------------------------------
# Base restriction.


def test_full_restriction_reproduces_the_bundle():
    for B in (mobius_bundle(), plane_rotation_bundle()):
        full = {c.name: c.box for c in B.base.charts}
        assert base_restriction(B, full) == B


def test_full_restriction_reproduces_nonlinear_gallery_bundle():
    B = load_spec(gallery_path("projective_tangent")).bundle
    full = {c.name: c.box for c in B.base.charts}
    assert base_restriction(B, full) == B


def test_restriction_erodes_but_stays_consistent():
    B = mobius_bundle()
    R = base_restriction(B, {"east": [(-3.0, 3.0)], "west": [(0.5, 6.0)]})
    assert {c.name for c in R.base.charts} == {"east", "west"}
    assert R.base.chart("east").box.lo == (-3.0,)
    # both gluing directions survive with at least one component each
    assert R.base.overlaps_between("east", "west")
    assert R.base.overlaps_between("west", "east")
    assert check_vb(R, SAMPLES, CHECK_TOL, seed=7).passed
    # the certified overlap still carries the original transition values
    x = box_mid(R.base.overlaps_between("east", "west")[0].region[0])
    assert abs(transition_eval(R, "east", "west", x).matrix[0, 0]) == 1.0


def test_restriction_through_reciprocal_change():
    B = load_spec(gallery_path("projective_tangent")).bundle
    R = base_restriction(B, {"u": [(0.5, 2.0)], "v": [(0.25, 3.0)]})
    # only the positive branch of the overlap survives the u-restriction
    assert len(R.base.overlaps_between("u", "v")) == 1
    assert len(R.base.overlaps_between("v", "u")) == 1
    assert check_vb(R, SAMPLES, CHECK_TOL, seed=7).passed
    assert transition_eval(R, "u", "v", [1.0]).matrix[0, 0] == pytest.approx(-1.0)


def test_restriction_halves_no_box_without_a_midpoint():
    inf = float("inf")
    line = make_atlas(1, [("a", [(-inf, inf)]), ("b", [(-inf, inf)])],
                      [("a", "b", [[(-inf, inf)]], ["x1 + 1"]),
                       ("b", "a", [[(-inf, inf)]], ["x1 - 1"])])
    B = make_bundle(line, 1, FieldTag.REAL, [("a", "b", [["1"]]), ("b", "a", [["1"]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning for -inf + inf either
        R = base_restriction(B, {"a": [(-inf, inf)], "b": [(0.0, inf)]})
    # the image of (-inf, inf) is not inside (0, inf), and the box has no midpoint to halve at
    assert not R.base.overlaps


def test_restriction_drops_absent_charts():
    B = mobius_bundle()
    R = base_restriction(B, {"east": [(-1.0, 1.0)]})
    assert [c.name for c in R.base.charts] == ["east"]
    assert not R.base.overlaps
    assert check_vb(R, SAMPLES, CHECK_TOL, seed=7).passed


def test_restriction_validation():
    B = mobius_bundle()
    with pytest.raises(SpecError):
        base_restriction(B, {})
    with pytest.raises(SpecError):
        base_restriction(B, {"north": [(-1.0, 1.0)]})
    with pytest.raises(SpecError):
        base_restriction(B, {"east": [(2.0, 1.0)]})
    with pytest.raises(SpecError):
        base_restriction(B, {"east": [(-9.0, 1.0)]})


# --------------------------------------------------------------------------
# Tangent bundles.


def projective_base():
    return load_spec(gallery_path("projective_tangent")).bundle.base


def test_tangent_of_reciprocal_atlas_is_minus_x_squared():
    T = tangent_bundle(projective_base())
    assert T.fiber_dim == 1
    for t in (0.5, 1.0, 2.0, 3.9, -0.5, -3.0):
        got = transition_eval(T, "u", "v", [t]).matrix[0, 0]
        assert got == pytest.approx(-t * t, rel=1e-12)
    assert check_vb(T, SAMPLES, CHECK_TOL, seed=8).passed


def test_tangent_agrees_with_shipped_gallery_bundle():
    doc = load_spec(gallery_path("projective_tangent"))
    T = tangent_bundle(doc.base)
    for frm, to in (("u", "v"), ("v", "u")):
        for o in doc.base.overlaps_between(frm, to):
            for b in o.region:
                x = box_mid(b)
                ours = transition_eval(T, frm, to, x).matrix
                shipped = transition_eval(doc.bundle, frm, to, x).matrix
                assert np.allclose(ours, shipped, atol=1e-12)


def test_tangent_sections_detect_the_twist():
    T = tangent_bundle(projective_base())
    euler = make_section(T, {"u": ["x1"], "v": ["-x1"]})
    assert check_section(euler, SAMPLES, CHECK_TOL, seed=8).passed
    const = make_section(T, {"u": ["1"], "v": ["1"]})
    assert not check_section(const, SAMPLES, CHECK_TOL, seed=8).passed


def test_tangent_of_translation_atlas_is_trivial():
    T = tangent_bundle(circle_atlas())
    for theta in (0.5, -0.5):
        assert transition_eval(T, "east", "west", [theta]).matrix[0, 0] == 1.0
    assert check_vb(T, SAMPLES, CHECK_TOL, seed=8).passed


def test_tangent_rejects_ambiguous_reverse_components():
    charts = [("a", [(-1.0, 1.0)]), ("b", [(-1.0, 1.0)])]
    overlaps = [
        ("a", "b", [[(-0.5, 0.5)]], ["x1"]),
        ("b", "a", [[(-0.5, 0.0)]], ["x1"]),
        ("b", "a", [[(0.0, 0.5)]], ["x1"]),
        ("a", "b", [[(-0.5, 0.0)]], ["x1"]),  # reverse images of the split pair
        ("a", "b", [[(0.0, 0.5)]], ["x1"]),
    ]
    A = make_atlas(1, charts, overlaps)
    with pytest.raises(SpecError) as caught:
        tangent_bundle(A)
    # the inverse of a transition pairs each overlap the same way
    B = make_bundle(A, 1, FieldTag.REAL, [(frm, to, [["1"]]) for frm, to, _, _ in overlaps])
    for construct in (dual_bundle, lambda B: tensor_bundle(B, 1, 0), lambda B: hom_bundle(B, B)):
        with pytest.raises(SpecError) as again:
            construct(B)
        assert str(again.value) == str(caught.value)


# --------------------------------------------------------------------------
# Tensor fields.


def test_rotation_invariant_metric_passes():
    B = plane_rotation_bundle()
    g = make_field(B, 0, 2, {"left": ["1", "0", "0", "1"],
                             "right": ["1", "0", "0", "1"]})
    assert check_tensor_field(g, SAMPLES, CHECK_TOL, seed=9).passed


def test_anisotropic_metric_fails_under_rotation():
    B = plane_rotation_bundle()
    g = make_field(B, 0, 2, {"left": ["1", "0", "0", "2"],
                             "right": ["1", "0", "0", "2"]})
    assert not check_tensor_field(g, SAMPLES, CHECK_TOL, seed=9).passed


def test_field_arithmetic_matches_tensor_arithmetic():
    B = plane_rotation_bundle()
    A = make_field(B, 1, 1, {"left": ["x2", "x1", "1", "-x1"],
                             "right": ["x2", "x1", "1", "-x1"]})
    C = make_field(B, 1, 1, {"left": ["1", "0", "x2", "3"],
                             "right": ["1", "0", "x2", "3"]})
    for x in BAND_POINTS:
        ta, tc = field_eval(A, "left", x), field_eval(C, "left", x)
        assert np.allclose(field_eval(field_add(A, C), "left", x).coeffs,
                           tensor_add(ta, tc).coeffs)
        assert np.allclose(field_eval(field_smul(2.5, A), "left", x).coeffs,
                           2.5 * ta.coeffs)
        scaled = field_fmul({"left": "x1 + 2", "right": "x1 + 2"}, A)
        assert np.allclose(field_eval(scaled, "left", x).coeffs,
                           (x[0] + 2) * ta.coeffs)


def test_field_product_matches_tensor_product():
    B = plane_rotation_bundle()
    A = make_field(B, 1, 0, {"left": ["x1", "x2"], "right": ["x1", "x2"]})
    C = make_field(B, 0, 1, {"left": ["2", "x1"], "right": ["2", "x1"]})
    P = field_product(A, C)
    assert (P.r, P.s) == (1, 1)
    for x in BAND_POINTS:
        expected = tensor_product(field_eval(A, "left", x), field_eval(C, "left", x))
        assert np.allclose(field_eval(P, "left", x).coeffs, expected.coeffs)


def test_field_product_past_the_bound_is_refused():
    A = make_field(plane_rotation_bundle(), 3, 3, {"left": ["0"] * 64})
    with pytest.raises(SpecError, match=r"valence \(6,6\) is above the bound r \+ s <= 10"):
        field_product(A, A)


def test_field_validation_and_eval_domains():
    B = plane_rotation_bundle()
    with pytest.raises(SpecError):
        make_field(B, 0, 2, {"left": ["1", "0", "0"]})
    with pytest.raises(SpecError):
        make_field(B, -1, 0, {"left": ["1", "0"]})
    with pytest.raises(SpecError):
        make_field(B, 1, 0, {"left": ["x3", "0"]})
    A = make_field(B, 1, 0, {"left": ["x1", "x2"]})
    with pytest.raises(DomainViolation):
        field_eval(A, "right", (0.0, 0.0))
    with pytest.raises(DomainViolation):
        field_eval(A, "left", (5.0, 0.0))
    C = make_field(B, 0, 1, {"left": ["x1", "x2"]})
    with pytest.raises(ShapeMismatch):
        field_add(A, C)
    with pytest.raises(ShapeMismatch):
        field_fmul({"right": "x1"}, A)


# --------------------------------------------------------------------------
# Local expressions in a frame.


def test_local_expression_in_the_standard_frame_is_raw_components():
    B = plane_rotation_bundle()
    A = make_field(B, 1, 1, {"left": ["x1", "x2", "1", "2"],
                             "right": ["x1", "x2", "1", "2"]})
    F = make_frame(B, "left", [["1", "0"], ["0", "1"]])
    pts = [(0.1, 0.2), (-1.5, 0.9)]
    table = local_expression(A, F, pts)
    for row, x in zip(table, pts):
        assert np.allclose(row, [x[0], x[1], 1.0, 2.0], atol=1e-12)


def test_metric_in_its_orthonormal_frame_is_the_identity():
    B = plane_rotation_bundle()
    g = make_field(B, 0, 2, {"left": ["1", "0", "0", "1"],
                             "right": ["1", "0", "0", "1"]})
    F = make_frame(B, "left", [["cos(x1)", "sin(x1)"], ["-sin(x1)", "cos(x1)"]])
    table = local_expression(g, F, [(0.3, 0.4), (-1.2, -0.7)])
    for row in table:
        assert np.allclose(row, [1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_local_expression_matches_slotwise_evaluation():
    from vbx.tensors import tensor_eval

    B = plane_rotation_bundle()
    A = make_field(B, 1, 1, {"left": ["x2", "x1", "1", "-x1"],
                             "right": ["x2", "x1", "1", "-x1"]})
    F = make_frame(B, "left", [["1", "0"], ["x2", "1"]])
    pts = [(0.2, 0.6), (-1.0, -0.4)]
    table = local_expression(A, F, pts)
    for row, x in zip(table, pts):
        P = eval_expr_matrix([["1", "x2"], ["0", "1"]], x)  # frame matrix
        D = np.linalg.inv(P)
        T = field_eval(A, "left", x)
        for idx, (j, k) in enumerate(itertools.product((1, 2), repeat=2)):
            want = tensor_eval(T, [P[:, j - 1]], [D[k - 1, :]])
            assert row[idx] == pytest.approx(want, abs=1e-12)


def test_local_expression_guards():
    B = plane_rotation_bundle()
    A = make_field(B, 1, 1, {"right": ["x1", "x2", "1", "2"]})
    F = make_frame(B, "left", [["1", "0"], ["0", "1"]])
    with pytest.raises(DomainViolation):
        local_expression(A, F, [(0.0, 0.0)])
    singular = make_frame(B, "left", [["1", "x2"], ["1", "x2"]])
    full = make_field(B, 0, 1, {"left": ["1", "0"], "right": ["1", "0"]})
    with pytest.raises(SingularFrame):
        local_expression(full, singular, [(0.0, 0.0)])
    other = make_field(shear_bundle(), 0, 1, {"left": ["1", "0"], "right": ["1", "0"]})
    with pytest.raises(ShapeMismatch):
        local_expression(other, F, [(0.0, 0.0)])


def test_local_expression_on_a_complex_bundle_matches_the_pointwise_pullback():
    rot = [["cos(x1)", "-sin(x1)"], ["sin(x1)", "cos(x1)"]]
    rot_inv = [["cos(x1)", "sin(x1)"], ["-sin(x1)", "cos(x1)"]]
    B = make_bundle(plane_atlas(), 2, FieldTag.COMPLEX,
                    [("left", "right", rot), ("right", "left", rot_inv)])
    A = make_field(B, 1, 1, {"left": ["x2", "x1", "1 + x1*x2", "-x1"]})
    F = make_frame(B, "left", [["2", "x2"], ["x1", "1 + exp(x2)"]])
    pts = [(0.2, 0.6), (-1.0, -0.4), (-1.9, 0.9)]
    table = local_expression(A, F, pts)
    space = B.fiber_space
    want = [rs_pullback(make_linear(space, space, frame_matrix_at(F, p)), 1, 1,
                        field_eval(A, "left", p)).coeffs for p in pts]
    assert table.dtype == np.complex128 and table.shape == (3, 4)
    assert np.allclose(table, want, rtol=1e-14, atol=0)


# A frame is an ordinary morphism: from the bundle's fiber over its chart,
# with the identity base map and the frame matrix as fiber map.

GALLERY_SAVE_SHA256 = {  # load, then save_spec with every named entry
    "circle_tangent": "be8d4b5706d4090dea065af7fb913c465d57b0677ddb85df3471ebe77e06455e",
    "mobius": "d18682e4ece00a1b391142417de764ef3355101dce6d52cc16cf171c2222c3b5",
    "mobius_bad_section": "f8f8e56786c598b692966d60680e9c2a92b43876337ed0ef8021467b932dbf7c",
    "mobius_tampered": "dd700d6f14653fc969abbccea0d3c3633412f0a41393f8e49466350495f1e646",
    "projective_tangent": "b5e85f9e80b422b5049060687ce302ef0dbe5532ded99882c830e84ee37decb2",
    "trivial": "ab0df3506c9ebb29926e71e31b347a61709be3edd9654430eea7842ffb293f7a",
}


def gallery_bundle_docs():
    docs = {name: load_spec(gallery_path(name)) for name in list_gallery()}
    return {name: doc for name, doc in docs.items() if doc.bundle is not None}


def test_gallery_frames_pass_check_morphism():
    frames = [F for doc in gallery_bundle_docs().values() for F in doc.frames.values()]
    assert len(frames) == 5
    for F in frames:
        assert isinstance(F, BundleMorphismSpec)
        assert check_morphism(F, 40).passed


def test_frame_functions_refuse_a_morphism_whose_source_has_two_charts():
    B = plane_rotation_bundle()
    M = identity_morphism(B)
    S = make_section(B, {"left": ["1", "0"], "right": ["1", "0"]})
    for call in (lambda: frame_matrix_at(M, [0.5, 0.5]), lambda: check_frame(M, 10),
                 lambda: dual_frame(M), lambda: local_expression(S, M, [[0.5, 0.5]])):
        with pytest.raises(SpecError, match="a frame's source has one chart; this morphism's has 2"):
            call()


def test_covariant_pullback_through_a_gallery_frame_is_its_local_expression():
    pairs = 0
    for doc in gallery_bundle_docs().values():
        for A in list(doc.fields.values()) + list(doc.sections.values()):
            if A.s:
                continue
            for F in doc.frames.values():
                (chart,) = F.assignment
                if chart not in A.per_chart:
                    continue
                pulled = vb_pullback_cov(F, A)
                for p in sample_box(F.source.base.chart(chart).box, 20, 3):
                    want = local_expression(A, F, [p])[0]
                    assert field_eval(pulled, chart, p).coeffs.tobytes() == want.tobytes()
                pairs += 1
    assert pairs >= 5


def test_gallery_files_save_as_they_load(tmp_path):
    for name, doc in gallery_bundle_docs().items():
        out = tmp_path / f"{name}.json"
        save_spec(doc.bundle, out, doc.sections, doc.frames, doc.fields)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GALLERY_SAVE_SHA256[name], name
    assert len(GALLERY_SAVE_SHA256) == len(gallery_bundle_docs())


# --------------------------------------------------------------------------
# Morphisms.


def gauge_morphism(scale="2"):
    """Fiberwise scale-and-rotate; rotations commute, so it intertwines."""
    B = plane_rotation_bundle()
    ident = ["x1", "x2"]
    phi = [[f"{scale}*cos(x1)", f"-{scale}*sin(x1)"],
           [f"{scale}*sin(x1)", f"{scale}*cos(x1)"]]
    return make_morphism(B, B,
                         {"left": "left", "right": "right"},
                         {"left": ident, "right": ident},
                         {"left": phi, "right": phi},
                         inverse={"left": ("left", ident), "right": ("right", ident)})


def test_gauge_morphism_passes_check():
    rep = check_morphism(gauge_morphism(), SAMPLES, CHECK_TOL, seed=10)
    assert rep.passed
    checks = {r.check for r in rep.records}
    assert checks == {"morphism_intertwine", "base_map_coherence"}


def test_non_intertwining_fiber_map_fails_check():
    B = plane_rotation_bundle()
    ident = ["x1", "x2"]
    squash = [["2", "0"], ["0", "1"]]  # does not commute with the rotations
    M = make_morphism(B, B, {"left": "left", "right": "right"},
                      {"left": ident, "right": ident},
                      {"left": squash, "right": squash})
    rep = check_morphism(M, SAMPLES, CHECK_TOL, seed=10)
    assert not rep.passed
    assert any(r.check == "morphism_intertwine" and not r.passed for r in rep.records)


def test_identity_morphism_checks_out():
    assert check_morphism(identity_morphism(plane_rotation_bundle()),
                          SAMPLES, CHECK_TOL, seed=10).passed


def test_compose_morphism_multiplies_fiber_maps():
    M = gauge_morphism()
    MM = compose_morphism(M, M)
    x = (0.3, 0.0)
    got = eval_expr_matrix(MM.fiber_map["left"], x)
    c, s = np.cos(0.6), np.sin(0.6)  # rotation angles add
    assert np.allclose(got, 4.0 * np.array([[c, -s], [s, c]]), atol=1e-12)
    base = eval_expr_matrix([MM.base_map["left"]], x)
    assert np.allclose(base, [[0.3, 0.0]])
    assert check_morphism(MM, 60, CHECK_TOL, seed=10).passed


def test_compose_morphism_requires_matching_middle():
    with pytest.raises(ShapeMismatch):
        compose_morphism(identity_morphism(mobius_bundle()), gauge_morphism())


def test_make_morphism_validation():
    B = plane_rotation_bundle()
    ident = ["x1", "x2"]
    eye = [["1", "0"], ["0", "1"]]
    with pytest.raises(SpecError):
        make_morphism(B, B, {"left": "left"}, {"left": ident}, {"left": eye})
    with pytest.raises(SpecError):
        make_morphism(B, B, {"left": "left", "right": "right"},
                      {"left": ["x1"], "right": ident},
                      {"left": eye, "right": eye})
    with pytest.raises(SpecError):
        make_morphism(B, B, {"left": "left", "right": "right"},
                      {"left": ident, "right": ident},
                      {"left": [["1", "0"]], "right": eye})
    with pytest.raises(SpecError):
        make_morphism(B, B, {"left": "left", "right": "right"},
                      {"left": ["x1", "x3"], "right": ident},
                      {"left": eye, "right": eye})
    with pytest.raises(SpecError):
        make_morphism(B, B, {"left": "left", "right": "right"},
                      {"left": ident, "right": ident},
                      {"left": eye, "right": eye},
                      inverse={"left": ("left", ident)})
    complex_line = make_bundle(circle_atlas(), 1, FieldTag.COMPLEX,
                               [("east", "west", [["1"]]), ("east", "west", [["1"]]),
                                ("west", "east", [["1"]]), ("west", "east", [["1"]])])
    with pytest.raises(UnsupportedField):
        make_morphism(mobius_bundle(), complex_line, {}, {}, {})


# --------------------------------------------------------------------------
# Field pullbacks along morphisms.


def test_mixed_pullback_matches_pointwise_tensor_pullback():
    M = gauge_morphism()
    B = M.target
    A = make_field(B, 1, 1, {"left": ["x2", "x1", "1", "-x1"],
                             "right": ["x2", "x1", "1", "-x1"]})
    pulled = vb_pullback_rs(M, A)
    assert (pulled.r, pulled.s) == (1, 1)
    space = make_space(2, FieldTag.REAL)
    for x in BAND_POINTS:
        phi = eval_expr_matrix(M.fiber_map["left"], x)
        L = make_linear(space, space, phi)
        want = rs_pullback(L, 1, 1, field_eval(A, "left", x))
        assert np.allclose(field_eval(pulled, "left", x).coeffs, want.coeffs,
                           atol=1e-12)


def test_pullback_along_identity_is_identity():
    B = plane_rotation_bundle()
    A = make_field(B, 0, 2, {"left": ["1", "x1", "0", "x2"],
                             "right": ["1", "x1", "0", "x2"]})
    pulled = vb_pullback_rs(identity_morphism(B), A)
    for x in BAND_POINTS:
        assert np.allclose(field_eval(pulled, "left", x).coeffs,
                           field_eval(A, "left", x).coeffs, atol=1e-14)


def test_mixed_pullback_isomorphism_guards():
    B = plane_rotation_bundle()
    ident = ["x1", "x2"]
    eye = [["1", "0"], ["0", "1"]]
    A = make_field(B, 1, 1, {"left": ["1", "0", "0", "1"],
                             "right": ["1", "0", "0", "1"]})

    no_inverse = make_morphism(B, B, {"left": "left", "right": "right"},
                               {"left": ident, "right": ident},
                               {"left": eye, "right": eye})
    with pytest.raises(NotAnIsomorphism):
        vb_pullback_rs(no_inverse, A)

    rank_drop = [["1", "x2"], ["x2", "x2^2"]]  # determinant vanishes identically
    singular = make_morphism(B, B, {"left": "left", "right": "right"},
                             {"left": ident, "right": ident},
                             {"left": rank_drop, "right": rank_drop},
                             inverse={"left": ("left", ident),
                                      "right": ("right", ident)})
    with pytest.raises(NotAnIsomorphism):
        vb_pullback_rs(singular, A)

    halve = {"left": ["x1/2", "x2"], "right": ["x1/2", "x2"]}
    wrong_inverse = make_morphism(B, B, {"left": "left", "right": "right"},
                                  halve, {"left": eye, "right": eye},
                                  inverse={"left": ("left", ident),
                                           "right": ("right", ident)})
    with pytest.raises(NotAnIsomorphism):
        vb_pullback_rs(wrong_inverse, A)

    line = make_bundle(plane_atlas(), 1, FieldTag.REAL,
                       [("left", "right", [["1"]]), ("right", "left", [["1"]])])
    thin = make_morphism(line, B, {"left": "left", "right": "right"},
                         {"left": ident, "right": ident},
                         {"left": [["1"], ["0"]], "right": [["1"], ["0"]]},
                         inverse={"left": ("left", ident), "right": ("right", ident)})
    with pytest.raises(NotAnIsomorphism):
        vb_pullback_rs(thin, A)

    on_source = make_field(line, 1, 1, {"left": ["1"], "right": ["1"]})
    with pytest.raises(ShapeMismatch):
        vb_pullback_rs(gauge_morphism(), on_source)


def test_covariant_pullback_crosses_ranks():
    line = make_bundle(plane_atlas(), 1, FieldTag.REAL,
                       [("left", "right", [["1"]]), ("right", "left", [["1"]])])
    sheet = make_bundle(plane_atlas(), 2, FieldTag.REAL,
                        [("left", "right", [["1", "0"], ["0", "1"]]),
                         ("right", "left", [["1", "0"], ["0", "1"]])])
    ident = ["x1", "x2"]
    incl = [["1"], ["x1"]]
    M = make_morphism(line, sheet, {"left": "left", "right": "right"},
                      {"left": ident, "right": ident},
                      {"left": incl, "right": incl})
    assert check_morphism(M, SAMPLES, CHECK_TOL, seed=11).passed
    A = make_field(sheet, 2, 0, {"left": ["1", "x2", "0", "x1"],
                                 "right": ["1", "x2", "0", "x1"]})
    pulled = vb_pullback_cov(M, A)
    assert (pulled.r, pulled.s) == (2, 0)
    dom, cod = make_space(1, FieldTag.REAL), make_space(2, FieldTag.REAL)
    for x in BAND_POINTS:
        phi = eval_expr_matrix(M.fiber_map["left"], x)
        L = make_linear(dom, cod, phi)
        want = cov_pullback(L, 2, field_eval(A, "left", x))
        assert np.allclose(field_eval(pulled, "left", x).coeffs, want.coeffs,
                           atol=1e-12)
    with pytest.raises(ShapeMismatch):
        vb_pullback_cov(M, make_field(sheet, 1, 1, {"left": ["1", "0", "0", "1"],
                                                    "right": ["1", "0", "0", "1"]}))
    with pytest.raises(ShapeMismatch):
        vb_pullback_cov(M, make_field(line, 1, 0, {"left": ["1"], "right": ["1"]}))


def interval_bundle(name: str, lo: float, hi: float):
    """The trivial real line bundle over one interval chart."""
    return make_bundle(make_atlas(1, [(name, [(lo, hi)])], []), 1, FieldTag.REAL, [])


def test_morphism_pullbacks_check_where_their_points_land():
    # A lives on V = (-0.5, 0.5) only; the base map x1 sends U = (-1, 1)
    # past it, so the pulled field is undefined at 0.9, through the
    # morphism as along the smooth map.
    U, V = interval_bundle("U", -1, 1), interval_bundle("V", -0.5, 0.5)
    M = make_morphism(U, V, {"U": "V"}, {"U": ["x1"]}, {"U": [["1"]]})
    A = make_field(V, 1, 0, {"V": ["x1^2"]})
    pulled = vb_pullback_cov(M, A)
    assert field_eval(pulled, "U", [0.25]).coeffs[0] == 0.0625
    with pytest.raises(DomainViolation, match=r"point \[0.9\] outside chart 'V'"):
        field_eval(pulled, "U", [0.9])
    along_map = map_pullback_cov(make_smooth_map(["x1"], [(-1, 1)]), A, 1)
    with pytest.raises(DomainViolation, match=r"point \[0.9\] outside chart 'V'"):
        field_eval(along_map, LOCAL_CHART, [0.9])


def test_mixed_pullback_fiber_map_must_be_nonsingular_at_the_point():
    # Singular only at x1 = 0.3, which the construction's samples miss.
    U = interval_bundle("U", -1, 1)
    M = make_morphism(U, U, {"U": "U"}, {"U": ["x1"]}, {"U": [["x1 - 0.3"]]},
                      inverse={"U": ("U", ["x1"])})
    pulled = vb_pullback_rs(M, make_field(U, 1, 1, {"U": ["2"]}))
    assert field_eval(pulled, "U", [0.5]).coeffs[0] == pytest.approx(2.0, abs=1e-15)
    with pytest.raises(NotAnIsomorphism, match=r"fiber map singular at \[0.3\]"):
        field_eval(pulled, "U", [0.3])


def test_checks_of_a_pulled_field_apply_its_point_rules():
    # On east the base map 2*x1 leaves east past |x1| = pi/2, so the
    # constant field pulled back is compatible only where it is defined.
    B = circle_trivial_bundle()
    M = make_morphism(B, B, {"east": "east", "west": "west"},
                      {"east": ["2*x1"], "west": ["x1"]}, {"east": [["1"]], "west": [["1"]]})
    A = make_field(B, 1, 0, {"east": ["1"], "west": ["1"]})
    rep = check_tensor_field(vb_pullback_cov(M, A), 50, CHECK_TOL, seed=3)
    assert not rep.passed
    assert any("outside chart 'east'" in r.note for r in rep.records)
    assert check_tensor_field(vb_pullback_cov(identity_morphism(B), A), 50, CHECK_TOL, seed=3).passed


def test_check_morphism_samples_each_chart_for_the_base_image_rule():
    U, V = interval_bundle("U", -1, 1), interval_bundle("V", -0.5, 0.5)
    for base_map, ok in (("3*x1", False), ("x1/4", True)):
        M = make_morphism(U, V, {"U": "V"}, {"U": [base_map]}, {"U": [["1"]]})
        rep = check_morphism(M, 50, CHECK_TOL, seed=3)
        assert rep.passed is ok
        bad = [r for r in rep.records if r.check == "base_map_image"]
        assert len(bad) == (0 if ok else 1)
        if bad:
            assert bad[0].subject == "U" and "outside chart 'V'" in bad[0].note


def test_check_morphism_names_the_chart_an_overlap_image_escapes():
    B = circle_trivial_bundle()
    M = make_morphism(B, B, {"east": "east", "west": "west"},
                      {"east": ["2*x1"], "west": ["x1"]}, {"east": [["1"]], "west": [["1"]]})
    notes = [r.note for r in check_morphism(M, 50, CHECK_TOL, seed=3).records if not r.passed]
    assert any("outside chart 'east'" in n for n in notes)
    assert not any("<function" in n for n in notes)


# --------------------------------------------------------------------------
def test_gallery_sections_are_01_fields():
    # a section of B is a (0,1)-field: tensor_bundle(B, 0, 1) has B's
    # transitions, so both checks give the same records
    seen = 0
    for name in list_gallery():
        raw = json.loads(gallery_path(name).read_text())
        if not raw.get("sections"):
            continue
        B = load_spec(gallery_path(name)).bundle
        for entry in raw["sections"]:
            S = make_section(B, entry["components"])
            assert S == make_field(B, 0, 1, entry["components"])
            assert (check_section(S, 60, CHECK_TOL, seed=5).records
                    == check_tensor_field(S, 60, CHECK_TOL, seed=5).records)
            seen += 1
    assert seen == 7


# Sub-bundle criterion.


def test_rotating_line_is_a_subbundle():
    B = plane_rotation_bundle()
    W = {"left": [["cos(x1)", "sin(x1)"]], "right": [["1", "0"]]}
    rep = subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12)
    assert rep.passed
    checks = {r.check for r in rep.records}
    assert checks == {"subbundle_rank", "subbundle_span"}


def test_constant_line_is_not_preserved_by_rotation():
    B = plane_rotation_bundle()
    W = {"left": [["1", "0"]], "right": [["1", "0"]]}
    rep = subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12)
    assert not rep.passed
    assert any(r.check == "subbundle_span" and not r.passed for r in rep.records)


def test_swap_transition_moves_the_axis_line():
    # transitions permute the axes, so span{e1} is carried to span{e2}:
    # pointwise independence alone does not make a sub-bundle
    swap = [["0", "1"], ["1", "0"]]
    B = make_bundle(circle_atlas(), 2, FieldTag.REAL,
                    [("east", "west", swap), ("east", "west", swap),
                     ("west", "east", swap), ("west", "east", swap)])
    assert check_vb(B, SAMPLES, CHECK_TOL, seed=12).passed
    W = {"east": [["1", "0"]], "west": [["1", "0"]]}
    rep = subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12)
    assert not rep.passed
    # the diagonal line, however, is swap-invariant
    W = {"east": [["1", "1"]], "west": [["1", "1"]]}
    assert subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12).passed


def test_rank_two_subbundle_of_whitney_sum():
    B = whitney_sum(plane_rotation_bundle(), plane_rotation_bundle())
    W = {"left": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
         "right": [["1", "0", "0", "0"], ["0", "1", "0", "0"]]}
    assert subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12).passed


def test_subbundle_on_charts_without_a_shared_overlap_gets_a_vacuous_span_record():
    # c0 and c2 of the four-chart circle are never glued directly, so no
    # transport of the span is tested, and the report must say so
    line = [["1"]]
    overlaps = [(o.frm, o.to) for o in quarter_circle_atlas().overlaps]
    B = make_bundle(quarter_circle_atlas(), 1, FieldTag.REAL,
                    [(frm, to, line) for frm, to in overlaps])
    rep = subbundle_check(B, {"c0": [["1"]], "c2": [["1"]]}, SAMPLES, CHECK_TOL, seed=12)
    assert [(r.check, r.subject) for r in rep.records] == [
        ("subbundle_rank", "c0"), ("subbundle_rank", "c2"),
        ("subbundle_span", "no shared overlaps")]
    span = rep.records[-1]
    assert span.passed and span.samples == 0 and span.note.startswith("vacuous")


def test_subbundle_validation():
    B = plane_rotation_bundle()
    with pytest.raises(SpecError):
        subbundle_check(B, {})
    with pytest.raises(SpecError):
        subbundle_check(B, {"left": []})
    with pytest.raises(SpecError):
        subbundle_check(B, {"left": [["1", "0"], ["0", "1"], ["1", "1"]]})
    with pytest.raises(SpecError):
        subbundle_check(B, {"left": [["1", "0"]], "right": [["1", "0"], ["0", "1"]]})
    with pytest.raises(SpecError):
        subbundle_check(B, {"left": [["1", "0", "0"]]})


def test_section_entry_that_fails_to_evaluate_fails_its_rank_record():
    B = plane_rotation_bundle()
    W = {"left": [["log(x1)", "1"]], "right": [["1", "0"]]}  # left has x1 < 0
    rep = subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12)
    rank = {r.subject: r for r in rep.records if r.check == "subbundle_rank"}
    assert not rank["left"].passed
    assert rank["left"].note.startswith("evaluation failed at [")
    assert "log of non-positive value" in rank["left"].note
    assert rank["right"].passed


def test_failed_rank_record_is_a_failed_min_scaled_det():
    B = plane_rotation_bundle()
    rep = subbundle_check(B, {"left": [["log(x1)", "1"]], "right": [["1", "0"]]},
                          SAMPLES, CHECK_TOL, seed=12)
    left = next(r for r in rep.records if r.check == "subbundle_rank" and r.subject == "left")
    assert (left.kind, left.worst, left.passed) == (MIN_DET, float("inf"), False)


def test_pointwise_dependence_fails_the_rank_record():
    B = plane_rotation_bundle()
    W = {"left": [["1", "x2"], ["x1", "x1*x2"]],  # second = x1 * first
         "right": [["1", "0"], ["0", "1"]]}
    rep = subbundle_check(B, W, SAMPLES, CHECK_TOL, seed=12)
    assert not rep.passed
    assert any(r.check == "subbundle_rank" and not r.passed for r in rep.records)


# --------------------------------------------------------------------------
# Entry validation: one rule, each caller's exception type and location.


def _plane_morphism(base_map, inverse):
    B = plane_rotation_bundle()
    eye = [["1", "0"], ["0", "1"]]
    return make_morphism(B, B, {"left": "left", "right": "right"},
                         {"left": base_map, "right": ["x1", "x2"]}, {"left": eye, "right": eye},
                         inverse={"left": ("left", inverse), "right": ("right", ["x1", "x2"])})


ENTRY_CALLERS = {
    "make_smooth_map": (ShapeMismatch, "", lambda: make_smooth_map(["x1", "x3"], [(0, 1), (0, 1)])),
    "make_bundle": (SpecError, "/transitions/1", lambda: make_bundle(
        plane_atlas(), 1, FieldTag.REAL, [("left", "right", [["1"]]), ("right", "left", [["x3"]])])),
    "make_field": (SpecError, "", lambda: make_field(
        plane_rotation_bundle(), 0, 1, {"left": ["x1", "x3"]})),
    "field_fmul": (ShapeMismatch, "", lambda: field_fmul(
        {"left": "x3"}, make_field(plane_rotation_bundle(), 0, 1, {"left": ["1", "0"]}))),
    "make_frame": (SpecError, "", lambda: make_frame(
        plane_rotation_bundle(), "left", [["1", "0"], ["0", "x3"]])),
    "make_morphism maps": (SpecError, "", lambda: _plane_morphism(["x1", "x3"], ["x1", "x2"])),
    "make_morphism inverse": (SpecError, "", lambda: _plane_morphism(["x1", "x2"], ["x3", "x2"])),
    "subbundle_check": (SpecError, "", lambda: subbundle_check(
        plane_rotation_bundle(), {"left": [["1", "x3"]]})),
}


@pytest.mark.parametrize("caller", sorted(ENTRY_CALLERS))
def test_every_entry_validator_caller_rejects_a_variable_past_the_dimension(caller):
    error, location, call = ENTRY_CALLERS[caller]
    with pytest.raises(VbxError) as err:
        call()
    assert type(err.value) is error
    assert getattr(err.value, "location", "") == location
    assert "references x3 but the dimension is 2" in str(err.value)
