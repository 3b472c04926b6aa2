"""The inverse of a transition comes from the cocycle, g_ij(x)^-1 =
g_ji(tau_ij(x)), in the tensor, dual and Hom constructions and in the
field check; tests/adjugate_oracle.py keeps the adjugate definitions they
replaced.

On every gallery bundle that passes its cocycle checks, on
tests/golden/dense.json and on a bundle glued by a shear (whose inverse
is not its transpose), the built bundles and the field checks give the
oracle's records: every field but `worst` equal, and on a passing record a
`worst` no worse than the oracle's beyond the golden bound (the cocycle
inverse rounds differently, and on (2,0) bundles of dense it can come out
smaller by more than the bound).

Where the cocycle fails (mobius_tampered), the two rules are different
inverses and the verdicts may differ: a derived bundle now fails its
cocycle checks with its input, where the adjugate's (1,1) and Hom bundles
passed them (0.5 * 2 = 1 hid the tampered edge).
"""

from pathlib import Path

import numpy as np
import pytest

import adjugate_oracle as oracle
from scalar_oracle import eval_matrix
from support import circle_atlas, circle_trivial_bundle
from test_golden import worst_drift
from vbx import symmat
from vbx.bundles import check_section, check_vb
from vbx.cli import main
from vbx.constructions import check_tensor_field, dual_bundle, hom_bundle, tensor_bundle
from vbx.coords import FieldTag
from vbx.expr import compile_exprs, tree_size
from vbx.geometry import sample_region
from vbx.report import RESIDUAL
from vbx.spec import make_bundle, make_field
from vbx.specio import gallery_path, list_gallery, load_spec

GOLDEN = Path(__file__).parent / "golden"
SAMPLES, TOL, SEED = 60, 1e-9, 42


def shear_bundle():
    """Rank 2 over the circle, glued by the identity and by the shear
    [[1, 1], [0, 1]], whose inverse-transpose fixes (0, 1) and moves
    (1, 0): the covector field (0, 1) is compatible, (1, 0) is not."""
    eye, shear = [["1", "0"], ["0", "1"]], [["1", "1"], ["0", "1"]]
    unshear = [["1", "-1"], ["0", "1"]]
    return make_bundle(circle_atlas(), 2, FieldTag.REAL, [
        ("east", "west", eye), ("east", "west", shear),
        ("west", "east", eye), ("west", "east", unshear)])


def subjects() -> list:
    """(name, bundle, its named sections and fields) for every gallery
    bundle, the seeded dense rank-3 circle bundle and the shear bundle."""
    docs = {name: load_spec(gallery_path(name)) for name in list_gallery()}
    docs["dense"] = load_spec(GOLDEN / "dense.json")
    return [(name, doc.bundle, list(doc.sections.values()) + list(doc.fields.values()))
            for name, doc in sorted(docs.items()) if doc.bundle is not None] + [
        ("shear", shear_bundle(), [])]


def fields(B, named) -> list:
    """named, then a zero field and one that varies per slot for each
    valence with r + s >= 1 and at most 9 coefficients."""
    out = list(named)
    charts = [c.name for c in B.base.charts]
    for r, s in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)):
        n = B.fiber_dim ** (r + s)
        if n > 9:
            continue
        out.append(make_field(B, r, s, {c: ["0"] * n for c in charts}))
        out.append(make_field(B, r, s, {c: [f"cos(x1/2 + {k})" for k in range(n)]
                                        for c in charts}))
    return out


def assert_same_records(got, want, verdicts: bool = True) -> None:
    """got's records are want's but for worst (and, unless verdicts,
    passed); a passing worst is no worse than want's beyond the bound."""
    assert len(got.records) == len(want.records)
    for g, w in zip(got.records, want.records):
        assert (g.check, g.subject, g.note, g.samples) == (w.check, w.subject, w.note, w.samples)
        if verdicts:
            assert g.passed == w.passed, (g, w)
        if w.passed and verdicts:
            better = g.worst <= w.worst if g.kind == RESIDUAL else g.worst >= w.worst
            assert better or worst_drift(g.worst, w.worst) <= 0.0, (g, w)


CONSTRUCTS = {
    "dual": (dual_bundle, oracle.dual_bundle),
    "tensor10": (lambda B: tensor_bundle(B, 1, 0), lambda B: oracle.tensor_bundle(B, 1, 0)),
    "tensor11": (lambda B: tensor_bundle(B, 1, 1), lambda B: oracle.tensor_bundle(B, 1, 1)),
    "tensor20": (lambda B: tensor_bundle(B, 2, 0), lambda B: oracle.tensor_bundle(B, 2, 0)),
    "hom": (lambda B: hom_bundle(B, B), lambda B: oracle.hom_bundle(B, B)),
}


def test_dual_transitions_are_the_inverse_transposes():
    for name, B, _ in subjects():
        if not check_vb(B, SAMPLES, TOL, SEED).passed:
            continue  # mobius_tampered: g_ji(tau_ij(x)) is not g_ij(x)^-1 there
        for e, f in zip(B.edges, dual_bundle(B).edges):
            for x in sample_region(e.overlap.region, 7, seed=3):
                want = np.linalg.inv(eval_matrix(e.g, x)).T
                assert np.allclose(eval_matrix(f.g, x), want, rtol=1e-12, atol=1e-12), (name, x)


def test_a_shear_glued_covector_field_checks_by_the_inverse_transpose():
    B = shear_bundle()
    for comps, passed in ((["0", "1"], True), (["1", "0"], False)):
        A = make_field(B, 1, 0, {"east": comps, "west": comps})
        assert check_tensor_field(A, SAMPLES, TOL, SEED).passed is passed
        assert oracle.check_field(A, SAMPLES, TOL, SEED).passed is passed


@pytest.mark.parametrize("kind", sorted(CONSTRUCTS))
def test_constructs_check_like_the_adjugate_oracle(kind):
    built, old = CONSTRUCTS[kind]
    for name, B, _ in subjects():
        got, want = built(B), old(B)
        assert (got.fiber_dim, len(got.edges)) == (want.fiber_dim, len(want.edges)), name
        report = check_vb(got, SAMPLES, TOL, SEED)
        if check_vb(B, SAMPLES, TOL, SEED).passed:
            assert_same_records(report, check_vb(want, SAMPLES, TOL, SEED))
        else:
            assert not report.passed, name  # the input's broken cocycle is not hidden


def test_the_dual_fails_its_pair_cocycle_as_its_input_does():
    # D_ij(x) D_ji(tau_ij(x)) = (g_ij(x) g_ji(tau_ij(x)))^T where the atlas
    # round trip is exact, so the pair defect carries over.
    def pair_records(bundle):
        return [(r.subject, r.passed, r.worst) for r in check_vb(bundle, SAMPLES, TOL, SEED).records
                if r.check == "pair_cocycle"]

    B = load_spec(gallery_path("mobius_tampered")).bundle
    assert pair_records(dual_bundle(B)) == pair_records(B)
    assert [passed for _, passed, _ in pair_records(B)] == [True, False, True, False]


def test_field_checks_match_the_adjugate_oracle():
    seen = 0
    for name, B, named in subjects():
        verdicts = check_vb(B, SAMPLES, TOL, SEED).passed
        for A in fields(B, named):
            got = check_tensor_field(A, SAMPLES, TOL, SEED)
            assert_same_records(got, oracle.check_field(A, SAMPLES, TOL, SEED), verdicts)
            assert got == check_section(A, SAMPLES, TOL, SEED)
            seen += 1
    assert seen == 107


def test_constructs_and_checks_never_build_the_adjugate(monkeypatch, capsys):
    def refuse(m):
        raise AssertionError("the adjugate was built")

    monkeypatch.setattr(symmat, "mat_inverse", refuse)
    for name, B, named in subjects():
        dual_bundle(B)
        hom_bundle(B, B)
        for r, s in ((1, 0), (1, 1), (2, 0)):
            tensor_bundle(B, r, s)
        for A in fields(B, named):
            check_tensor_field(A, 20)
            check_section(A, 20)
    for name in list_gallery():
        assert main(["check", str(gallery_path(name)), "--samples", "20"]) in (0, 2)


def householder(d: int) -> list:
    """I - 2vv^T/(v^Tv) for v all ones: a constant, dense, symmetric
    orthogonal matrix, its own inverse."""
    return [[repr((1.0 if i == j else 0.0) - 2.0 / d) for j in range(d)] for i in range(d)]


def sizes(B) -> tuple:
    prog = compile_exprs([c for e in B.edges for row in e.g for c in row]
                         + [c for o in B.base.overlaps for c in o.tau.components])
    return tree_size(prog), len(prog.code)


def test_inverting_a_rank_64_constant_transition_stays_linear_in_size():
    # The adjugate built about n*2^n minors: past rank 12 these hung.
    d = 64
    eye = [["1" if i == j else "0" for j in range(d)] for i in range(d)]
    H = householder(d)
    B = make_bundle(circle_atlas(), d, FieldTag.REAL,
                    [("east", "west", eye), ("east", "west", H),
                     ("west", "east", eye), ("west", "east", H)])
    tree, unique = sizes(B)
    outs = (dual_bundle(B), tensor_bundle(B, 1, 0), hom_bundle(B, circle_trivial_bundle(1)))
    for out in outs:
        assert out.fiber_dim == d
        got_tree, got_unique = sizes(out)
        assert got_tree <= 2 * tree and got_unique <= 2 * unique, (got_tree, got_unique)
    assert check_vb(outs[0], 20, TOL, SEED).passed
