"""Tensor component layout and algebra against enumeration oracles.

The oracle for the index layout is itertools.product, which walks digit
tuples in exactly the order the linear index is defined over, and the
oracle for evaluation is a plain sum over every digit tuple. Both are
deliberately slower and simpler than the library paths they check.
"""

import itertools
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.coords import FieldTag, as_array, make_tensor
from vbx.errors import IndexOutOfRange, ShapeMismatch
from vbx.linalg import make_space
from vbx.tensors import (
    basis_tensor,
    components_of,
    digits_to_index,
    dual_norm,
    graded_add,
    graded_product,
    index_to_digits,
    make_graded,
    reconstruct,
    scalar_mul,
    tensor_add,
    tensor_eval,
    tensor_norm,
    tensor_product,
    zero_tensor,
)

EVAL_TOL = 1e-12

VALENCES = [(r, s) for r in range(4) for s in range(4) if r + s <= 3]


def all_digit_tuples(d, k):
    """Every digit tuple, in index order, by the independent enumeration."""
    return list(itertools.product(range(1, d + 1), repeat=k))


def eval_by_summation(T, vectors, covectors):
    """Direct sum over all digit tuples; the defining formula, slot by slot."""
    d = T.space.dim
    args = list(vectors) + list(covectors)
    total = 0.0
    for j, digits in enumerate(all_digit_tuples(d, T.r + T.s), start=1):
        term = T.coeffs[j - 1]
        for slot, g in enumerate(digits):
            term = term * args[slot][g - 1]
        total = total + term
    return total


def random_tensor(rng, d, r, s, field=FieldTag.REAL):
    n = d ** (r + s)
    coeffs = rng.normal(size=n)
    if field is FieldTag.COMPLEX:
        coeffs = coeffs + 1j * rng.normal(size=n)
    return make_tensor(make_space(d, field), r, s, coeffs)


def test_index_layout_matches_lexicographic_enumeration():
    for d in (1, 2, 3):
        for r, s in VALENCES:
            tuples = all_digit_tuples(d, r + s)
            for j, digits in enumerate(tuples, start=1):
                assert index_to_digits(j, d, r, s) == digits
                assert digits_to_index(digits, d) == j


def test_index_bounds_are_enforced():
    with pytest.raises(IndexOutOfRange):
        index_to_digits(0, 2, 1, 1)
    with pytest.raises(IndexOutOfRange):
        index_to_digits(5, 2, 1, 1)
    with pytest.raises(IndexOutOfRange):
        digits_to_index((0, 1), 2)
    with pytest.raises(IndexOutOfRange):
        digits_to_index((3,), 2)


def test_make_tensor_checks_count():
    v = make_space(2)
    make_tensor(v, 1, 1, [1, 2, 3, 4])
    with pytest.raises(ShapeMismatch):
        make_tensor(v, 1, 1, [1, 2, 3])
    with pytest.raises(ShapeMismatch):
        make_tensor(v, -1, 0, [1, 2])


def test_eval_matches_summation_oracle():
    rng = np.random.default_rng(2024)
    for d in (1, 2, 3):
        for r, s in VALENCES:
            T = random_tensor(rng, d, r, s)
            vectors = [rng.normal(size=d) for _ in range(r)]
            covectors = [rng.normal(size=d) for _ in range(s)]
            want = eval_by_summation(T, vectors, covectors)
            got = tensor_eval(T, vectors, covectors)
            assert got == pytest.approx(want, abs=EVAL_TOL * max(1.0, abs(want)))


def test_eval_argument_counts():
    v = make_space(2)
    T = make_tensor(v, 1, 1, [1, 0, 0, 1])
    with pytest.raises(ShapeMismatch):
        tensor_eval(T, [[1, 0]], [])
    with pytest.raises(ShapeMismatch):
        tensor_eval(T, [[1, 0]], [[1, 0], [0, 1]])
    with pytest.raises(ShapeMismatch):
        tensor_eval(T, [[1, 0, 0]], [[1, 0]])


def test_components_recovered_on_basis_tuples():
    # Exhaustive: coefficient j must equal the tensor applied to the
    # basis arguments named by the digits of j.
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        eye = np.eye(d)
        for r, s in VALENCES:
            T = random_tensor(rng, d, r, s)
            for j in range(1, d ** (r + s) + 1):
                digits = index_to_digits(j, d, r, s)
                vectors = [eye[g - 1] for g in digits[:r]]
                covectors = [eye[g - 1] for g in digits[r:]]
                got = tensor_eval(T, vectors, covectors)
                assert got == pytest.approx(T.coeffs[j - 1], abs=EVAL_TOL)


def test_basis_tensors_reconstruct_everything():
    rng = np.random.default_rng(8)
    d, r, s = 2, 2, 1
    T = random_tensor(rng, d, r, s)
    acc = zero_tensor(make_space(d), r, s)
    for j in range(1, d ** (r + s) + 1):
        acc = tensor_add(acc, scalar_mul(T.coeffs[j - 1], basis_tensor(j, d, r, s)))
    assert np.allclose(acc.coeffs, T.coeffs, atol=0)


def test_as_array_axis_convention():
    v = make_space(2)
    T = make_tensor(v, 1, 1, [1, 2, 3, 4])
    arr = as_array(T)
    # axis 0 is the leading digit: flat index = (g1-1)*d + (g2-1)
    assert arr[0, 1] == 2 and arr[1, 0] == 3


def test_product_slot_split():
    rng = np.random.default_rng(9)
    d = 2
    for (r, s), (p, q) in [((1, 0), (1, 0)), ((1, 1), (0, 1)), ((2, 0), (0, 1)),
                           ((0, 0), (1, 1))]:
        A = random_tensor(rng, d, r, s)
        B = random_tensor(rng, d, p, q)
        AB = tensor_product(A, B)
        assert AB.valence == (r + p, s + q)
        vecs = [rng.normal(size=d) for _ in range(r + p)]
        covs = [rng.normal(size=d) for _ in range(s + q)]
        want = tensor_eval(A, vecs[:r], covs[:s]) * tensor_eval(B, vecs[r:], covs[s:])
        got = tensor_eval(AB, vecs, covs)
        assert got == pytest.approx(want, abs=EVAL_TOL * max(1.0, abs(want)))


def test_scalar_factor_degenerates():
    rng = np.random.default_rng(10)
    A = random_tensor(rng, 2, 1, 1)
    c = make_tensor(make_space(2), 0, 0, [2.5])
    left = tensor_product(c, A)
    right = tensor_product(A, c)
    assert np.allclose(left.coeffs, 2.5 * A.coeffs)
    assert np.allclose(right.coeffs, 2.5 * A.coeffs)


def test_add_and_smul_guards():
    v = make_space(2)
    A = make_tensor(v, 1, 0, [1, 2])
    B = make_tensor(v, 0, 1, [3, 4])
    with pytest.raises(ShapeMismatch):
        tensor_add(A, B)
    with pytest.raises(ShapeMismatch):
        tensor_add(A, make_tensor(make_space(3), 1, 0, [1, 2, 3]))
    with pytest.raises(ShapeMismatch):
        scalar_mul(1j, A)


def test_complex_tensors_evaluate():
    rng = np.random.default_rng(11)
    T = random_tensor(rng, 2, 1, 1, FieldTag.COMPLEX)
    vecs = [rng.normal(size=2) + 1j * rng.normal(size=2)]
    covs = [rng.normal(size=2) + 1j * rng.normal(size=2)]
    want = eval_by_summation(T, vecs, covs)
    got = tensor_eval(T, vecs, covs)
    assert abs(got - want) < EVAL_TOL * max(1.0, abs(want))


def test_reconstruct_components_round_trip():
    rng = np.random.default_rng(12)
    T = random_tensor(rng, 3, 1, 2)
    back = reconstruct(components_of(T), 3, 1, 2)
    assert back.space == T.space and back.valence == T.valence
    assert np.array_equal(back.coeffs, T.coeffs)


def test_graded_sums_group_by_valence():
    v = make_space(2)
    X = make_graded(v, {(1, 0): make_tensor(v, 1, 0, [1, 2])})
    Y = make_graded(v, {(1, 0): make_tensor(v, 1, 0, [10, 20]),
                        (0, 1): make_tensor(v, 0, 1, [5, 6])})
    Z = graded_add(X, Y)
    assert set(Z.terms) == {(1, 0), (0, 1)}
    assert np.allclose(Z.terms[(1, 0)].coeffs, [11, 22])


def test_graded_zero_terms_are_dropped():
    v = make_space(2)
    X = make_graded(v, {(1, 0): make_tensor(v, 1, 0, [1, 2])})
    Y = make_graded(v, {(1, 0): make_tensor(v, 1, 0, [-1, -2])})
    assert graded_add(X, Y).terms == {}


@st.composite
def graded_triples(draw):
    d = draw(st.integers(1, 2))
    v = make_space(d)
    out = []
    for _ in range(3):
        terms = {}
        for _ in range(draw(st.integers(1, 2))):
            r = draw(st.integers(0, 2))
            s = draw(st.integers(0, 1))
            n = d ** (r + s)
            coeffs = [draw(st.floats(-3, 3)) for _ in range(n)]
            terms[(r, s)] = make_tensor(v, r, s, coeffs)
        out.append(make_graded(v, terms))
    return out


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(graded_triples())
def test_graded_product_is_associative(triple):
    X, Y, Z = triple
    left = graded_product(graded_product(X, Y), Z)
    right = graded_product(X, graded_product(Y, Z))
    assert set(left.terms) == set(right.terms)
    for key in left.terms:
        assert np.allclose(left.terms[key].coeffs, right.terms[key].coeffs,
                           atol=1e-11, rtol=1e-11)


def test_graded_product_distributes():
    rng = np.random.default_rng(13)
    v = make_space(2)
    X = make_graded(v, {(1, 0): random_tensor(rng, 2, 1, 0)})
    Y = make_graded(v, {(0, 1): random_tensor(rng, 2, 0, 1)})
    Z = make_graded(v, {(0, 1): random_tensor(rng, 2, 0, 1)})
    lhs = graded_product(X, graded_add(Y, Z))
    rhs = graded_add(graded_product(X, Y), graded_product(X, Z))
    assert set(lhs.terms) == set(rhs.terms)
    for key in lhs.terms:
        assert np.allclose(lhs.terms[key].coeffs, rhs.terms[key].coeffs, atol=1e-12)


def test_dual_norm_is_euclidean():
    v = make_space(2)
    alpha = make_tensor(v, 1, 0, [3, 4])
    assert dual_norm(alpha) == pytest.approx(5.0, abs=1e-14)
    with pytest.raises(ShapeMismatch):
        dual_norm(make_tensor(v, 0, 1, [1, 0]))


def test_tensor_norm_brackets():
    v = make_space(3)
    rng = np.random.default_rng(14)
    # covector: both ends should approach the Euclidean norm
    alpha = make_tensor(v, 1, 0, rng.normal(size=3))
    lo, hi = tensor_norm(alpha, budget=4000, seed=1)
    true = float(np.linalg.norm(alpha.coeffs))
    assert lo <= true + 1e-12 and true <= hi + 1e-12
    assert lo == pytest.approx(true, rel=0.05)
    # rank-one product of unit vectors has injective norm 1
    u = rng.normal(size=3)
    u = u / np.linalg.norm(u)
    T = tensor_product(make_tensor(v, 1, 0, u), make_tensor(v, 1, 0, u))
    lo, hi = tensor_norm(T, budget=4000, seed=2)
    assert lo <= 1.0 + 1e-12 <= hi + 2e-12
    z = zero_tensor(v, 2, 0)
    assert tensor_norm(z) == (0.0, 0.0)


def test_tensor_norm_past_the_halton_dimensions_names_its_slots():
    T = basis_tensor(1, 7, 3, 3)  # V = R^7, valence (3,3)
    with pytest.raises(ShapeMismatch, match="6 slots on a 7-dimensional space need 42 "
                                            "halton dimensions; the sampler supports up to 40"):
        tensor_norm(T)


@pytest.mark.parametrize("r,s", [(7, 7), (20, 20)])
def test_tensor_norm_names_every_slot_apart_from_the_samples(r, s):
    # 14 slots used to give the 14th the sample index's letter "n".
    assert tensor_norm(make_tensor(make_space(1), r, s, [-2.0]), budget=50) == (2.0, 2.0)


def test_tensor_norm_runs_on_numpy_alone():
    """In a fresh interpreter, import vbx and one tensor_norm call load no
    scipy module, and numpy is the only declared runtime dependency."""
    import vbx

    src = Path(vbx.__file__).resolve().parent.parent
    code = ("import sys\n"
            "import vbx\n"
            "from vbx.linalg import make_space\n"
            "from vbx.tensors import make_tensor, tensor_norm\n"
            "print(tensor_norm(make_tensor(make_space(2), 2, 0, [1, 0, 0, 1]), budget=50))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((src.parent / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]] == [
        "numpy"]
