"""Spaces, linear maps, bases, and the scaled determinant gate."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scalar_oracle as oracle
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.bundles import _live_only, _max_abs
from vbx.calculus import _Trial
from vbx.coords import FieldTag, box_mask, make_box, on_columns, region_mask, row_reduce
from vbx.dets import _cofactor_scaled_abs_dets, scaled_abs_dets
from vbx.errors import ShapeMismatch, Singular, SingularBasis
from vbx.linalg import (
    OrderedBasis,
    apply_linear,
    compose_linear,
    dual_basis,
    identity_linear,
    invert_linear,
    is_gl,
    make_basis,
    make_linear,
    make_space,
    scaled_abs_det,
    standard_basis,
)


TOL = 1e-12


def test_make_space_validates_dimension():
    v = make_space(3)
    assert v.dim == 3 and v.field is FieldTag.REAL
    with pytest.raises(Exception):
        make_space(0)


def test_make_linear_checks_shapes_and_field():
    v2, v3 = make_space(2), make_space(3)
    L = make_linear(v2, v3, [[1, 0], [0, 1], [2, 3]])
    assert L.matrix.shape == (3, 2)
    with pytest.raises(ShapeMismatch):
        make_linear(v2, v3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ShapeMismatch):
        make_linear(v2, make_space(2, FieldTag.COMPLEX), [[1, 0], [0, 1]])


def test_apply_and_compose():
    v2 = make_space(2)
    L = make_linear(v2, v2, [[0, 1], [1, 0]])
    K = make_linear(v2, v2, [[2, 0], [0, 3]])
    assert np.allclose(apply_linear(L, [1, 2]), [2, 1])
    KL = compose_linear(K, L)
    assert np.allclose(KL.matrix, [[0, 2], [3, 0]])
    with pytest.raises(ShapeMismatch):
        compose_linear(L, make_linear(v2, make_space(3), [[1, 0], [0, 1], [0, 0]]))


def test_invert_round_trips():
    v = make_space(3)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    L = make_linear(v, v, m)
    Linv = invert_linear(L)
    assert np.allclose(compose_linear(Linv, L).matrix, np.eye(3), atol=TOL)
    assert np.allclose(compose_linear(L, Linv).matrix, np.eye(3), atol=TOL)


def test_invert_rejects_singular():
    v = make_space(2)
    L = make_linear(v, v, [[1, 2], [2, 4]])
    assert not is_gl(L)
    with pytest.raises(Singular):
        invert_linear(L)


def test_identity_and_is_gl():
    v = make_space(4)
    assert is_gl(identity_linear(v))
    rect = make_linear(make_space(2), make_space(3), [[1, 0], [0, 1], [0, 0]])
    assert not is_gl(rect)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_a_non_finite_entry_makes_every_matrix_test_call_it_singular(bad):
    v = make_space(2)
    m = [[bad, 0.0], [0.0, 1.0]]
    assert not is_gl(make_linear(v, v, m))
    with pytest.raises(SingularBasis):
        make_basis(v, m)
    with pytest.raises(SingularBasis):
        dual_basis(OrderedBasis(v, np.array(m)))
    with pytest.raises(Singular):
        invert_linear(make_linear(v, v, m))


def test_scaled_abs_det_is_scale_free():
    m = np.array([[1e-8, 0.0], [0.0, 1e-8]])
    # the raw determinant is 1e-16 but each row is only small, not
    # degenerate; row scaling reports a healthy 1.0
    assert scaled_abs_det(m) == pytest.approx(1.0, abs=1e-12)
    assert scaled_abs_det(np.array([[1.0, 2.0], [2.0, 4.0]])) == pytest.approx(0.0, abs=1e-12)
    assert scaled_abs_det(np.zeros((2, 2))) == 0.0
    assert scaled_abs_det(np.ones((2, 3))) == 0.0


def test_standard_and_custom_bases():
    v = make_space(2)
    sb = standard_basis(v)
    assert np.allclose(np.column_stack(sb.vectors), np.eye(2))
    b = make_basis(v, [[2, 0], [0, 1]])
    with pytest.raises(SingularBasis):
        make_basis(v, [[1, 1], [2, 2]])
    with pytest.raises(ShapeMismatch):
        make_basis(v, [[1, 0]])
    assert b.vectors[0][0] == 2


def test_dual_basis_pairing_frozen_case():
    # hand inverse: basis {(2,0),(0,1)} has dual {(1/2,0),(0,1)}
    v = make_space(2)
    b = make_basis(v, [[2, 0], [0, 1]])
    db = dual_basis(b)
    assert np.allclose(db.vectors[0], [0.5, 0.0], atol=TOL)
    assert np.allclose(db.vectors[1], [0.0, 1.0], atol=TOL)


def test_dual_basis_kronecker_property():
    v = make_space(3)
    rng = np.random.default_rng(7)
    vecs = rng.normal(size=(3, 3)) + 2 * np.eye(3)
    b = make_basis(v, vecs)
    db = dual_basis(b)
    pair = np.array([[float(np.dot(db.vectors[i], b.vectors[j])) for j in range(3)]
                     for i in range(3)])
    assert np.allclose(pair, np.eye(3), atol=1e-10)


def test_complex_space_round_trip():
    v = make_space(2, FieldTag.COMPLEX)
    L = make_linear(v, v, [[1j, 0], [0, 2]])
    w = apply_linear(L, [1, 1])
    assert w[0] == 1j and w[1] == 2
    Linv = invert_linear(L)
    assert np.allclose(apply_linear(Linv, w), [1, 1], atol=TOL)


# ---------------------------------------------------------------------------
# The stacked kernels against their reference forms: the LU determinant of
# scalar_oracle, exact rational arithmetic, and the axis reductions the
# kernels replaced.

EPS = np.finfo(float).eps
CLOSED_FORM_BOUND = 64 * EPS  # the bound _cofactor_scaled_abs_dets states
# LU with partial pivoting on a row-scaled d x d matrix, d <= 3: |L| <= 1 and
# |U| <= 4 entrywise, so the backward error is below 3.4 eps * 12 per entry;
# times 9 entries and cofactors of modulus <= 2 gives about 730 eps.
LU_BOUND = 800 * EPS


def _stack(d, is_complex, n, seed, specials):
    """n seeded d x d matrices with row scales from 1e-300 to 1e300; each of
    `specials` makes, in one matrix, a row or a column zero, an entry NaN or
    infinite, or a row nearly dependent on the row before it."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, (n, d, d))
    if is_complex:
        m = m + 1j * rng.uniform(-1.0, 1.0, (n, d, d))
    if n:
        for kind in specials:
            k, i, j = rng.integers(n), rng.integers(d), rng.integers(d)
            if kind == "zero":
                m[k, i] = 0.0
            elif kind == "zero column":
                m[k, :, j] = 0.0
            elif kind == "nan":
                m[k, i, j] = np.nan
            elif kind == "inf":
                m[k, i, j] = -np.inf if j % 2 else np.inf
            elif i:
                m[k, i] = m[k, i - 1] * 3.0 + rng.uniform(-1e-9, 1e-9, d)
    with np.errstate(invalid="ignore"):  # a complex infinity picks up a NaN part
        return m * 10.0 ** rng.uniform(-300.0, 300.0, (n, d, 1))


_stacks = st.builds(_stack, st.integers(1, 4), st.booleans(), st.sampled_from([0, 1, 2000]),
                    st.integers(0, 2**32 - 1),
                    st.lists(st.sampled_from(["zero", "zero column", "nan", "inf", "near"]),
                             max_size=6))


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(_stacks)
def test_scaled_abs_dets_matches_the_lu_oracle(m):
    n, d = len(m), m.shape[-1]
    want = np.array([oracle.scaled_abs_det(a) for a in m]).reshape(n)
    got = [scaled_abs_dets(m)]
    if d <= 3:
        got.append(_cofactor_scaled_abs_dets(m))
    for g in got:
        assert g.shape == want.shape
        assert np.array_equal(np.isnan(g), np.isnan(want))
    if d > 3:  # LAPACK's LU, as in the oracle
        assert np.array_equal(got[0], want, equal_nan=True)
    ok = ~np.isnan(want)
    for g in got[d > 3:]:
        assert np.all(np.abs(g[ok] - want[ok]) <= CLOSED_FORM_BOUND + LU_BOUND)


def _exact_scaled_abs_det(a) -> float:
    """|det| of a after dividing each row by its computed largest modulus,
    with every operation after that division exact."""
    rows = []
    for row in a:
        top = np.max(np.abs(row))
        if top == 0.0:
            return 0.0
        rows.append([(Fraction(float(z.real)) / Fraction(float(top)),
                      Fraction(float(z.imag)) / Fraction(float(top))) for z in row])

    def det(r):
        if len(r) == 1:
            return r[0][0]
        re, im = Fraction(0), Fraction(0)
        for j, (p, q) in enumerate(r[0]):
            s, t = det([row[:j] + row[j + 1:] for row in r[1:]])
            sign = 1 if j % 2 == 0 else -1
            re += sign * (p * s - q * t)
            im += sign * (p * t + q * s)
        return re, im

    re, im = det(rows)
    return math.hypot(float(re), float(im))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["zero", "near"]), max_size=3))
def test_closed_form_is_within_its_bound_of_the_exact_determinant(d, is_complex, seed_, specials):
    m = _stack(d, is_complex, 40, seed_, specials)
    got = _cofactor_scaled_abs_dets(m)
    for a, g in zip(m, got):
        assert abs(g - _exact_scaled_abs_det(a)) <= CLOSED_FORM_BOUND


def test_column_forms_only_where_they_win():
    # The rule reads the entry count alone: no sample count can change a form.
    assert all(on_columns(k) for k in range(1, 26))
    assert not on_columns(0) and not on_columns(26) and not on_columns(49)
    assert not on_columns(81)


def _splits(n, cuts) -> list:
    """The (start, stop) parts of range(n) cut at cuts (taken mod n + 1)."""
    bounds = sorted({0, n, *(c % (n + 1) for c in cuts)})
    return list(zip(bounds, bounds[1:]))


_cuts = st.lists(st.integers(0, 400), max_size=4)


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.booleans(), st.integers(1, 400), st.integers(0, 2**32 - 1),
       st.lists(st.sampled_from(["zero", "zero column", "nan", "inf", "near"]), max_size=6),
       _cuts)
def test_scaled_abs_dets_are_the_same_bits_on_any_split_of_the_stack(
        d, is_complex, n, seed_, specials, cuts):
    m = _stack(d, is_complex, n, seed_, specials)
    whole = scaled_abs_dets(m)
    parts = np.concatenate([scaled_abs_dets(m[a:b]) for a, b in _splits(n, cuts)])
    assert parts.tobytes() == whole.tobytes()
    for i in range(n):  # a single point is one row of the batch
        assert np.float64(scaled_abs_det(m[i])).tobytes() == whole[i:i + 1].tobytes()


_entries = st.sampled_from([0.0, -0.0, 1.5, -2.0, 1e-300, 1e300, np.nan, np.inf, -np.inf])


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 1, 5, 300, 1000]),
       st.sampled_from([(1,), (3,), (2, 2), (3, 3), (5, 5), (9, 9)]),
       st.integers(0, 2**32 - 1), st.lists(_entries, min_size=1, max_size=4))
def test_entry_reductions_equal_the_axis_reductions(n, shape, seed_, specials):
    rng = np.random.default_rng(seed_)
    A = rng.uniform(-3.0, 3.0, (n,) + shape)
    if n:
        flat = A.reshape(-1)
        flat[rng.integers(flat.size, size=len(specials))] = specials
    flat_rows = A.reshape(n, math.prod(shape))
    assert np.array_equal(_max_abs(A), np.max(np.abs(flat_rows), axis=1), equal_nan=True)
    finite = np.isfinite(A).all(axis=tuple(range(1, A.ndim)))
    t = _Trial(np.zeros((n, 1)), {})
    t.finite(A, t.pts, t.rows, "value")
    assert np.array_equal(t.live, finite)
    live = _live_only(_Trial(np.zeros((n, 1)), {}), lambda W: W, A, shape)
    assert np.array_equal(np.isnan(live).all(axis=tuple(range(1, A.ndim))), ~finite)


@seed(20261019)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, 80), st.sampled_from([1, 3, 4, 9, 25, 26, 49]),
       st.integers(0, 2**32 - 1), st.lists(_entries, max_size=4), _cuts)
def test_entry_reductions_and_box_masks_are_the_same_bits_on_any_split(n, k, seed_, specials,
                                                                        cuts):
    rng = np.random.default_rng(seed_)
    A = rng.uniform(-3.0, 3.0, (n, k))
    A[: n // 2] = 0.0  # inside the box below, but for the specials
    if specials:
        A.reshape(-1)[rng.integers(A.size, size=len(specials))] = specials
    box = make_box([(rng.uniform(-3.5, -1.0), rng.uniform(1.0, 3.5)) for _ in range(k)])
    for fn in (lambda A: row_reduce(np.maximum, np.abs(A)),
               lambda A: row_reduce(np.logical_and, np.isfinite(A)),
               lambda A: box_mask(box, A)):
        whole = fn(A)
        parts = np.concatenate([fn(A[a:b]) for a, b in _splits(n, cuts)])
        assert parts.tobytes() == whole.tobytes()


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from([0, 1, 7, 300]), st.integers(1, 4), st.integers(1, 3),
       st.integers(0, 2**32 - 1), st.lists(_entries, max_size=4))
def test_box_masks_equal_the_axis_reductions(n, dim, count, seed_, specials):
    rng = np.random.default_rng(seed_)
    X = rng.uniform(-2.0, 2.0, (n, dim))
    if n and specials:
        X.reshape(-1)[rng.integers(X.size, size=len(specials))] = specials
    X[: n // 3] = np.round(X[: n // 3])  # points on the faces
    boxes = [make_box([sorted(rng.integers(-2, 3, 2) + (0.0, 0.5)) for _ in range(dim)])
             for _ in range(count)]
    want = [np.all((X > b.lo) & (X < b.hi), axis=1) for b in boxes]
    assert all(np.array_equal(box_mask(b, X), w) for b, w in zip(boxes, want))
    assert np.array_equal(region_mask(boxes, X), np.logical_or.reduce(want))
