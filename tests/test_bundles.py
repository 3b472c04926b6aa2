"""Atlas assembly, transition evaluation, fields and sections, and frames."""

import warnings

import numpy as np
import pytest
from support import (
    PI,
    TWO_PI,
    circle_atlas,
    circle_trivial_bundle,
    mobius_bundle,
    plane_rotation_bundle,
)

from vbx.bundles import check_base_atlas, check_frame, check_section, check_vb, find_edge
from vbx.coords import FieldTag
from vbx.errors import (
    CocycleViolation,
    DomainViolation,
    ShapeMismatch,
    SingularFrame,
    SpecError,
    UnsupportedField,
)
from vbx.linalg import make_basis, make_space
from vbx.pointwise import (
    change_chart,
    dual_frame,
    field_add,
    field_fmul,
    field_smul,
    frame_from_trivialization,
    frame_matrix_at,
    make_total_point,
    transition_eval,
    zero_section,
)
from vbx.spec import field_eval, make_atlas, make_bundle, make_field, make_frame, make_section

CHECK_TOL = 1e-9
SAMPLES = 120


# --------------------------------------------------------------------------
# Atlas assembly.


def test_atlas_accessors():
    A = circle_atlas()
    assert A.dim == 1
    assert [c.name for c in A.charts] == ["east", "west"]
    assert len(A.overlaps_between("east", "west")) == 2
    with pytest.raises(SpecError):
        A.chart("north")


def test_atlas_rejects_duplicate_chart_names():
    with pytest.raises(SpecError):
        make_atlas(1, [("a", [(0, 1)]), ("a", [(0, 1)])], [])


def test_atlas_rejects_self_overlap():
    with pytest.raises(SpecError) as err:
        make_atlas(1, [("a", [(0, 1)])], [("a", "a", [[(0, 1)]], ["x1"])])
    assert "self-overlap" in str(err.value)


def test_atlas_rejects_region_outside_chart():
    with pytest.raises(SpecError):
        make_atlas(1, [("a", [(0, 1)]), ("b", [(0, 1)])],
                   [("a", "b", [[(0.5, 1.5)]], ["x1"]),
                    ("b", "a", [[(0.5, 1.0)]], ["x1"])])


def test_atlas_requires_declared_reverse():
    with pytest.raises(SpecError) as err:
        make_atlas(1, [("a", [(0, 1)]), ("b", [(0, 1)])],
                   [("a", "b", [[(0.2, 0.8)]], ["x1"])])
    assert "reverse" in str(err.value)


def test_atlas_checks_tau_dimensions():
    with pytest.raises(SpecError):
        make_atlas(2, [("a", [(0, 1), (0, 1)]), ("b", [(0, 1), (0, 1)])],
                   [("a", "b", [[(0, 1), (0, 1)]], ["x1"]),
                    ("b", "a", [[(0, 1), (0, 1)]], ["x1", "x2"])])


def test_atlas_rejects_wrong_dim_region_box():
    with pytest.raises(SpecError):
        make_atlas(2, [("a", [(0, 1), (0, 1)]), ("b", [(0, 1), (0, 1)])],
                   [("a", "b", [[(0, 1)]], ["x1", "x2"]),
                    ("b", "a", [[(0, 1), (0, 1)]], ["x1", "x2"])])


# --------------------------------------------------------------------------
# Bundle assembly and transition evaluation.


def test_make_bundle_counts_components_per_pair():
    A = circle_atlas()
    with pytest.raises(SpecError) as err:
        make_bundle(A, 1, FieldTag.REAL, [
            ("east", "west", [["1"]]),
            ("west", "east", [["1"]]),
            ("west", "east", [["1"]]),
        ])
    assert "component" in str(err.value)


def test_make_bundle_rejects_unknown_pair():
    A = circle_atlas()
    with pytest.raises(SpecError):
        make_bundle(A, 1, FieldTag.REAL, [
            ("east", "west", [["1"]]), ("east", "west", [["1"]]),
            ("west", "east", [["1"]]), ("west", "east", [["1"]]),
            ("east", "north", [["1"]]),
        ])


def test_make_bundle_rejects_bad_matrix_shape():
    A = circle_atlas()
    with pytest.raises(SpecError):
        make_bundle(A, 2, FieldTag.REAL, [
            ("east", "west", [["1", "0"]]),
            ("east", "west", [["1", "0"], ["0", "1"]]),
            ("west", "east", [["1", "0"], ["0", "1"]]),
            ("west", "east", [["1", "0"], ["0", "1"]]),
        ])


def test_make_bundle_rejects_out_of_range_variables():
    A = circle_atlas()
    with pytest.raises(SpecError) as err:
        make_bundle(A, 1, FieldTag.REAL, [
            ("east", "west", [["x2"]]), ("east", "west", [["1"]]),
            ("west", "east", [["1"]]), ("west", "east", [["1"]]),
        ])
    assert "x2" in str(err.value)


def test_transitions_attach_in_declaration_order():
    B = mobius_bundle()
    # first east->west component covers (0, pi) with g = +1, second covers
    # (-pi, 0) with g = -1
    g_pos = transition_eval(B, "east", "west", [1.0])
    g_neg = transition_eval(B, "east", "west", [-1.0])
    assert g_pos.matrix[0, 0] == 1.0
    assert g_neg.matrix[0, 0] == -1.0


def test_transition_eval_identity_on_same_chart():
    B = mobius_bundle()
    assert transition_eval(B, "east", "east", [0.5]).matrix[0, 0] == 1.0
    assert transition_eval(B, "west", "west", [5.0]).matrix[0, 0] == 1.0


def test_transition_eval_on_one_chart_applies_the_point_rules():
    B = mobius_bundle()
    with pytest.raises(ShapeMismatch):
        transition_eval(B, "east", "east", [99.0, 5.0])
    with pytest.raises(DomainViolation, match="outside chart 'east'"):
        transition_eval(B, "east", "east", [99.0])


def test_transition_eval_outside_overlap():
    B = mobius_bundle()
    with pytest.raises(DomainViolation):
        transition_eval(B, "east", "west", [3.5])  # not in either component


def test_transition_eval_singular_matrix():
    A = circle_atlas()
    B = make_bundle(A, 1, FieldTag.REAL, [
        ("east", "west", [["x1 - 1"]]), ("east", "west", [["1"]]),
        ("west", "east", [["x1 - 1"]]), ("west", "east", [["1"]]),
    ])
    with pytest.raises(CocycleViolation):
        transition_eval(B, "west", "east", [1.0])


def test_find_edge_picks_first_matching_region():
    B = mobius_bundle()
    e = find_edge(B, "east", "west", [0.5])
    assert e is not None and e.component == 0
    e = find_edge(B, "east", "west", [-0.5])
    assert e.component == 1
    assert find_edge(B, "east", "west", [3.2]) is None


def test_change_chart_round_trip():
    B = plane_rotation_bundle()
    p = make_total_point(B, "left", [0.2, -0.3], [1.0, 2.0])
    q = change_chart(B, p, "right")
    assert q.chart == "right"
    assert np.allclose(q.x, [0.2, -0.3])
    back = change_chart(B, q, "left")
    assert np.allclose(back.x, p.x, atol=1e-12)
    assert np.allclose(back.v, p.v, atol=1e-12)


def test_change_chart_respects_sign_flip():
    B = mobius_bundle()
    p = make_total_point(B, "east", [-1.0], [2.0])
    q = change_chart(B, p, "west")
    assert q.x[0] == pytest.approx(-1.0 + TWO_PI, abs=1e-15)
    assert q.v[0] == pytest.approx(-2.0, abs=1e-15)


def test_change_chart_outside_overlap():
    B = mobius_bundle()
    # theta = 0 is the one east point the two open half-circle regions miss
    p = make_total_point(B, "east", [0.0], [1.0])
    with pytest.raises(DomainViolation):
        change_chart(B, p, "west")


def test_make_total_point_validation():
    B = plane_rotation_bundle()
    with pytest.raises(SpecError):
        make_total_point(B, "nowhere", [0, 0], [1, 0])
    with pytest.raises(DomainViolation):
        make_total_point(B, "left", [5, 0], [1, 0])
    with pytest.raises(ShapeMismatch):
        make_total_point(B, "left", [0, 0], [1, 0, 0])


# --------------------------------------------------------------------------
# Whole-bundle checks.


def test_atlas_and_cocycle_checks_pass():
    B = mobius_bundle()
    rep = check_base_atlas(B.base, SAMPLES, CHECK_TOL, seed=1)
    assert rep.passed, rep
    rep = check_vb(B, SAMPLES, CHECK_TOL, seed=1)
    assert rep.passed
    checks = {r.check for r in rep.records}
    assert "transition_gl" in checks and "pair_cocycle" in checks


def test_pair_cocycle_detects_tampering():
    A = circle_atlas()
    B = make_bundle(A, 1, FieldTag.REAL, [
        ("east", "west", [["1"]]), ("east", "west", [["2"]]),
        ("west", "east", [["1"]]), ("west", "east", [["-1"]]),
    ])
    rep = check_vb(B, SAMPLES, CHECK_TOL, seed=1)
    assert not rep.passed
    bad = [r for r in rep.records if not r.passed]
    assert any(r.check == "pair_cocycle" for r in bad)


def three_arc_circle_bundle():
    # three arcs covering a circle of circumference 2*pi, consecutive arcs
    # overlapping, with an empty triple intersection
    charts = [("a", [(0.0, 2.5)]), ("b", [(2.0, 4.5)]), ("c", [(4.0, 6.5)])]
    wrap = 6.5 - TWO_PI
    overlaps = [
        ("a", "b", [[(2.0, 2.5)]], ["x1"]), ("b", "a", [[(2.0, 2.5)]], ["x1"]),
        ("b", "c", [[(4.0, 4.5)]], ["x1"]), ("c", "b", [[(4.0, 4.5)]], ["x1"]),
        ("c", "a", [[(TWO_PI, 6.5)]], ["x1 - 2*pi"]),
        ("a", "c", [[(0.0, wrap)]], ["x1 + 2*pi"]),
    ]
    A = make_atlas(1, charts, overlaps)
    return make_bundle(A, 1, FieldTag.REAL, [
        ("a", "b", [["2"]]), ("b", "a", [["0.5"]]),
        ("b", "c", [["3"]]), ("c", "b", [["1/3"]]),
        ("c", "a", [["1"]]), ("a", "c", [["1"]]),
    ])


def test_triple_cocycle_vacuous_when_no_triple_intersection():
    B = three_arc_circle_bundle()
    rep = check_vb(B, SAMPLES, CHECK_TOL, seed=1)
    assert rep.passed
    # every chart pair overlaps, so all six ordered triples get a record,
    # but no sampled point survives the full cycle: each must say so
    trip = [r for r in rep.records if r.check == "triple_cocycle"]
    assert len(trip) == 6
    assert all(r.passed and r.note.startswith("vacuous") for r in trip)


def test_triple_cocycle_has_teeth_on_a_genuine_triple_overlap():
    charts = [("a", [(0.0, 3.0)]), ("b", [(1.0, 4.0)]), ("c", [(2.0, 5.0)])]
    overlaps = [
        ("a", "b", [[(1.0, 3.0)]], ["x1"]), ("b", "a", [[(1.0, 3.0)]], ["x1"]),
        ("b", "c", [[(2.0, 4.0)]], ["x1"]), ("c", "b", [[(2.0, 4.0)]], ["x1"]),
        ("a", "c", [[(2.0, 3.0)]], ["x1"]), ("c", "a", [[(2.0, 3.0)]], ["x1"]),
    ]
    A = make_atlas(1, charts, overlaps)
    # pair cocycles all hold, but g_ab g_bc g_ca = 2 * 3 * 0.5 = 3 != 1
    B = make_bundle(A, 1, FieldTag.REAL, [
        ("a", "b", [["2"]]), ("b", "a", [["0.5"]]),
        ("b", "c", [["3"]]), ("c", "b", [["1/3"]]),
        ("a", "c", [["2"]]), ("c", "a", [["0.5"]]),
    ])
    rep = check_vb(B, SAMPLES, CHECK_TOL, seed=1)
    assert not rep.passed
    bad = [r for r in rep.records if not r.passed]
    assert bad and all(r.check == "triple_cocycle" for r in bad)


# --------------------------------------------------------------------------
# Sections: (0,1)-fields.


def test_section_eval_and_compatibility():
    B = mobius_bundle()
    S = make_section(B, {"east": ["cos(x1/2)"], "west": ["cos(x1/2)"]})
    assert (S.r, S.s) == (0, 1)
    assert field_eval(S, "east", [0.4]).coeffs[0] == pytest.approx(np.cos(0.2), abs=1e-15)
    rep = check_section(S, SAMPLES, CHECK_TOL, seed=2)
    assert rep.passed


def test_constant_section_fails_on_twisted_bundle():
    B = mobius_bundle()
    S = make_section(B, {"east": ["1"], "west": ["1"]})
    rep = check_section(S, SAMPLES, CHECK_TOL, seed=2)
    assert not rep.passed


def test_zero_section_always_passes():
    B = mobius_bundle()
    rep = check_section(zero_section(B), SAMPLES, CHECK_TOL, seed=2)
    assert rep.passed


def test_partial_sections_check_what_they_cover():
    B = mobius_bundle()
    S = make_section(B, {"east": ["x1"]})
    rep = check_section(S, SAMPLES, CHECK_TOL, seed=2)
    assert rep.passed
    assert any(r.note.startswith("vacuous") for r in rep.records)
    with pytest.raises(DomainViolation):
        field_eval(S, "west", [1.0])


def test_make_section_validation():
    B = plane_rotation_bundle()
    with pytest.raises(SpecError):
        make_section(B, {"nowhere": ["1", "0"]})
    with pytest.raises(SpecError):
        make_section(B, {"left": ["1"]})
    with pytest.raises(SpecError):
        make_section(B, {"left": ["x3", "0"]})


def test_section_arithmetic():
    B = mobius_bundle()
    S1 = make_section(B, {"east": ["cos(x1/2)"], "west": ["cos(x1/2)"]})
    S2 = field_smul(3.0, S1)
    assert field_eval(S2, "east", [0.0]).coeffs[0] == pytest.approx(3.0, abs=1e-15)
    S3 = field_add(S1, S2)
    assert field_eval(S3, "east", [0.0]).coeffs[0] == pytest.approx(4.0, abs=1e-15)
    rep = check_section(S3, SAMPLES, CHECK_TOL, seed=3)
    assert rep.passed
    # multiplying by a chart-dependent scalar function needs compatible
    # expressions on both charts to stay a section; a global function of
    # the base point given per chart is fine
    f = {"east": "2 + sin(x1)", "west": "2 + sin(x1)"}
    S4 = field_fmul(f, S1)
    rep = check_section(S4, SAMPLES, CHECK_TOL, seed=3)
    assert rep.passed


def test_section_add_needs_same_bundle_and_charts():
    B = mobius_bundle()
    S1 = make_section(B, {"east": ["1"]})
    S2 = make_section(B, {"west": ["1"]})
    with pytest.raises(ShapeMismatch):
        field_add(S1, S2)
    with pytest.raises(ShapeMismatch):
        field_add(S1, make_section(circle_trivial_bundle(), {"east": ["1"]}))


def test_section_smul_field_guard():
    B = mobius_bundle()
    S = make_section(B, {"east": ["1"]})
    with pytest.raises(ShapeMismatch):
        field_smul(1j, S)


@pytest.mark.parametrize("field", [FieldTag.REAL, FieldTag.COMPLEX])
def test_field_smul_rejects_non_real_scalars_on_real_and_complex_bundles(field):
    B = make_bundle(circle_atlas(), 1, field,
                    [(o.frm, o.to, [["1"]]) for o in circle_atlas().overlaps])
    for A in (make_section(B, {"east": ["1"]}), make_field(B, 1, 1, {"east": ["x1"]})):
        with pytest.raises(ShapeMismatch):
            field_smul(1j, A)
        with pytest.raises(ShapeMismatch):
            field_smul(np.complex128(2 - 0.5j), A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no ComplexWarning either
            halved = field_smul(np.complex128(0.5), A)  # a zero imaginary part is a real scalar
        assert (field_eval(halved, "east", [0.5]).coeffs[0]
                == pytest.approx(0.5 * field_eval(A, "east", [0.5]).coeffs[0], abs=1e-15))


@pytest.mark.parametrize("c", [float("inf"), float("-inf"), float("nan"), complex("inf")])
def test_field_smul_rejects_non_finite_scalars(c):
    A = make_section(mobius_bundle(), {"east": ["1"]})
    with pytest.raises(ShapeMismatch, match="not finite"):
        field_smul(c, A)


# --------------------------------------------------------------------------
# Frames.


def test_frame_checks_and_matrix():
    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "0"], ["x2", "1"]])
    m = frame_matrix_at(F, [0.1, 0.7])
    # columns of the matrix are the frame sections evaluated at x
    assert np.allclose(m, [[1.0, 0.7], [0.0, 1.0]])
    rep = check_frame(F, SAMPLES, seed=4)
    assert rep.passed


def test_degenerate_frame_fails_check():
    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "x2"], ["1", "x2"]])
    rep = check_frame(F, SAMPLES, seed=4)
    assert not rep.passed


@pytest.mark.parametrize("corner,passed", [("1e-11", False), ("1e-9", True)])
def test_a_frame_is_judged_at_the_fixed_determinant_tolerance(corner, passed):
    # The scaled |det| of [[1, 1], [1, 1 + eps]] is eps: the rule is 1e-10.
    F = make_frame(plane_rotation_bundle(), "left", [["1", "1"], ["1", f"1 + {corner}"]])
    (rec,) = check_frame(F, 20).records
    assert (rec.check, rec.tol, rec.passed) == ("frame_gl", 1e-10, passed)
    assert rec.worst == pytest.approx(float(corner), rel=1e-3)


def test_a_frame_check_takes_its_seed_by_keyword_only():
    # The tolerance is fixed, so a third positional argument is refused, not
    # taken for a seed.
    F = make_frame(plane_rotation_bundle(), "left", [["1", "0"], ["0", "1"]])
    with pytest.raises(TypeError):
        check_frame(F, 20, 1e-9)


def test_frame_from_trivialization():
    B = plane_rotation_bundle()
    plane = make_space(2, FieldTag.REAL)
    F = frame_from_trivialization(B, "left", make_basis(plane, [[2.0, 0.0], [0.0, 1.0]]))
    m = frame_matrix_at(F, [0.0, 0.0])
    assert np.allclose(m, [[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ShapeMismatch):
        frame_from_trivialization(
            B, "left", make_basis(make_space(1, FieldTag.REAL), [[1.0]]))
    with pytest.raises(UnsupportedField):
        frame_from_trivialization(
            B, "left",
            make_basis(make_space(2, FieldTag.COMPLEX), [[1j, 0.0], [0.0, 1.0]]))
    with pytest.raises(SpecError, match="unknown chart 'nowhere'"):  # checked as it is built
        frame_from_trivialization(B, "nowhere", make_basis(plane, [[2.0, 0.0], [0.0, 1.0]]))


def test_dual_frame_constant_case():
    # basis {(2,0),(0,1)}: the dual pairing forces {(1/2,0),(0,1)}
    B = circle_trivial_bundle(2)
    plane = make_space(2, FieldTag.REAL)
    F = frame_from_trivialization(B, "east", make_basis(plane, [[2.0, 0.0], [0.0, 1.0]]))
    D = dual_frame(F)
    m = frame_matrix_at(D, [0.3])
    assert np.allclose(m, [[0.5, 0.0], [0.0, 1.0]], atol=1e-12)


def test_dual_frame_pairing_is_kronecker():
    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "x2"], ["0", "1"]])
    D = dual_frame(F)
    for x in ([0.1, 0.5], [-1.0, -0.9], [0.4, 0.0]):
        fm = frame_matrix_at(F, x)
        dm = frame_matrix_at(D, x)
        # row i of the dual pairing with column j of the frame
        assert np.allclose(dm.T @ fm, np.eye(2), atol=1e-10)


def test_dual_frame_lives_on_the_dual_bundle():
    from vbx.constructions import dual_bundle

    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "0"], ["0", "1"]])
    D = dual_frame(F)
    assert D.target == dual_bundle(B)


def test_dual_frame_rejects_singular_frames():
    B = plane_rotation_bundle()
    F = make_frame(B, "left", [["1", "x2"], ["1", "x2"]])
    with pytest.raises(SingularFrame):
        dual_frame(F)


def test_frame_validation():
    B = plane_rotation_bundle()
    with pytest.raises(SpecError):
        make_frame(B, "nowhere", [["1", "0"], ["0", "1"]])
    with pytest.raises(SpecError):
        make_frame(B, "left", [["1", "0"]])
