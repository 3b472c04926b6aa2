"""Pullbacks against the slotwise defining formula.

The oracle evaluates the defining property directly: the pulled-back
tensor applied to arguments equals the original applied to the mapped
arguments, vectors pushed through the map and covectors through the
transposed inverse. The library path works on flattened coefficients and
never sees this formula, so agreement is meaningful.
"""

import numpy as np
import pytest

from vbx.coords import make_tensor
from vbx.errors import ShapeMismatch, Singular
from vbx.linalg import compose_linear, identity_linear, invert_linear, make_linear, make_space
from vbx.pullbacks import cov_pullback, dual_pullback, graded_pullback, rs_pullback
from vbx.tensors import make_graded, tensor_eval

LAW_TOL = 1e-10

VALENCES = [(r, s) for r in range(3) for s in range(3) if 1 <= r + s <= 3]


def random_gl(rng, d):
    while True:
        m = rng.normal(size=(d, d))
        if abs(np.linalg.det(m)) > 0.3:
            return m


def pulled_value_oracle(M, beta, vectors, covectors):
    """Defining formula, one argument at a time."""
    Minv_t = np.linalg.inv(M).T
    mapped_vecs = [M @ v for v in vectors]
    mapped_covs = [Minv_t @ u for u in covectors]
    return tensor_eval(beta, mapped_vecs, mapped_covs)


def test_matches_defining_formula():
    rng = np.random.default_rng(42)
    for d in (1, 2, 3):
        v = make_space(d)
        for r, s in VALENCES:
            M = random_gl(rng, d)
            L = make_linear(v, v, M)
            beta = make_tensor(v, r, s, rng.normal(size=d ** (r + s)))
            pulled = rs_pullback(L, r, s, beta)
            for _ in range(5):
                vecs = [rng.normal(size=d) for _ in range(r)]
                covs = [rng.normal(size=d) for _ in range(s)]
                want = pulled_value_oracle(M, beta, vecs, covs)
                got = tensor_eval(pulled, vecs, covs)
                assert got == pytest.approx(want, abs=LAW_TOL * max(1.0, abs(want)))


def test_identity_law():
    rng = np.random.default_rng(1)
    v = make_space(3)
    beta = make_tensor(v, 1, 1, rng.normal(size=9))
    out = rs_pullback(identity_linear(v), 1, 1, beta)
    assert np.allclose(out.coeffs, beta.coeffs, atol=1e-14)


def test_composition_reverses():
    rng = np.random.default_rng(2)
    d = 2
    v = make_space(d)
    for r, s in VALENCES:
        L = make_linear(v, v, random_gl(rng, d))
        K = make_linear(v, v, random_gl(rng, d))
        beta = make_tensor(v, r, s, rng.normal(size=d ** (r + s)))
        via_compose = rs_pullback(compose_linear(L, K), r, s, beta)
        stepwise = rs_pullback(K, r, s, rs_pullback(L, r, s, beta))
        assert np.allclose(via_compose.coeffs, stepwise.coeffs, atol=LAW_TOL)


def test_inverse_cancels():
    rng = np.random.default_rng(3)
    d = 3
    v = make_space(d)
    L = make_linear(v, v, random_gl(rng, d))
    beta = make_tensor(v, 2, 1, rng.normal(size=d**3))
    back = rs_pullback(invert_linear(L), 2, 1, rs_pullback(L, 2, 1, beta))
    assert np.allclose(back.coeffs, beta.coeffs, atol=LAW_TOL)


def test_dual_pullback_is_precomposition():
    rng = np.random.default_rng(4)
    d = 3
    v = make_space(d)
    M = rng.normal(size=(d, d))  # need not be invertible
    M[0] = M[1]
    L = make_linear(v, v, M)
    alpha = make_tensor(v, 1, 0, rng.normal(size=d))
    pulled = dual_pullback(L, alpha)
    for _ in range(5):
        w = rng.normal(size=d)
        want = tensor_eval(alpha, [M @ w], [])
        assert tensor_eval(pulled, [w], []) == pytest.approx(want, abs=LAW_TOL)


def test_cov_pullback_allows_singular_maps():
    rng = np.random.default_rng(5)
    d = 2
    v = make_space(d)
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    L = make_linear(v, v, M)
    beta = make_tensor(v, 2, 0, rng.normal(size=4))
    pulled = cov_pullback(L, 2, beta)
    for _ in range(5):
        w1, w2 = rng.normal(size=d), rng.normal(size=d)
        want = tensor_eval(beta, [M @ w1, M @ w2], [])
        got = tensor_eval(pulled, [w1, w2], [])
        assert got == pytest.approx(want, abs=LAW_TOL)


def test_rectangular_cov_pullback():
    rng = np.random.default_rng(6)
    v2, v3 = make_space(2), make_space(3)
    M = rng.normal(size=(3, 2))
    L = make_linear(v2, v3, M)
    beta = make_tensor(v3, 1, 0, rng.normal(size=3))
    pulled = cov_pullback(L, 1, beta)
    assert pulled.space.dim == 2
    w = rng.normal(size=2)
    assert tensor_eval(pulled, [w], []) == pytest.approx(
        tensor_eval(beta, [M @ w], []), abs=LAW_TOL)


def test_mixed_pullback_needs_invertible():
    v = make_space(2)
    L = make_linear(v, v, [[1, 2], [2, 4]])
    beta = make_tensor(v, 0, 1, [1.0, 0.0])
    with pytest.raises(Singular):
        rs_pullback(L, 0, 1, beta)


def test_valence_is_checked():
    v = make_space(2)
    L = identity_linear(v)
    beta = make_tensor(v, 1, 0, [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        rs_pullback(L, 0, 1, beta)


def test_rs_and_graded_pullbacks_validate_in_order():
    v2, v3 = make_space(2), make_space(3)
    square, on_v3 = identity_linear(v2), identity_linear(v3)
    singular = make_linear(v2, v2, [[1, 2], [2, 4]])
    wide = make_linear(v2, v3, np.ones((3, 2)))
    beta = make_tensor(v2, 1, 1, [1.0, 0.0, 0.0, 1.0])
    X = make_graded(v2, {(1, 1): beta})
    cases = [
        (lambda: rs_pullback(wide, -1, 1, X), ShapeMismatch, "non-negative"),
        (lambda: rs_pullback(wide, 1, 1, X), ShapeMismatch, "square"),
        (lambda: rs_pullback(singular, 1, 1, X), Singular, "isomorphism"),
        (lambda: rs_pullback(square, 1, 1, X), ShapeMismatch, "Tensor values"),
        (lambda: rs_pullback(on_v3, 1, 0, beta), ShapeMismatch, r"valence \(1,0\)"),
        (lambda: rs_pullback(on_v3, 1, 1, beta), ShapeMismatch, "tensor lives on"),
        (lambda: graded_pullback(wide, beta), ShapeMismatch, "square"),
        (lambda: graded_pullback(singular, beta), Singular, "isomorphism"),
        (lambda: graded_pullback(square, beta), ShapeMismatch, "GradedTensor values"),
        (lambda: graded_pullback(on_v3, X), ShapeMismatch, "codomain"),
    ]
    for call, error, message in cases:
        with pytest.raises(error, match=message):
            call()


def test_space_is_checked():
    v2, v3 = make_space(2), make_space(3)
    L = make_linear(v2, v3, np.ones((3, 2)))
    beta = make_tensor(v2, 1, 0, [1.0, 0.0])
    with pytest.raises(ShapeMismatch):
        cov_pullback(L, 1, beta)


def test_graded_pullback_acts_termwise():
    rng = np.random.default_rng(8)
    v = make_space(2)
    L = make_linear(v, v, random_gl(rng, 2))
    X = make_graded(v, {
        (1, 0): make_tensor(v, 1, 0, rng.normal(size=2)),
        (1, 1): make_tensor(v, 1, 1, rng.normal(size=4)),
    })
    out = graded_pullback(L, X)
    assert set(out.terms) == {(1, 0), (1, 1)}
    for key, t in out.terms.items():
        direct = rs_pullback(L, key[0], key[1], X.terms[key])
        assert np.allclose(t.coeffs, direct.coeffs, atol=1e-14)


def test_scalars_pass_through():
    rng = np.random.default_rng(9)
    v = make_space(2)
    L = make_linear(v, v, random_gl(rng, 2))
    c = make_tensor(v, 0, 0, [3.25])
    out = rs_pullback(L, 0, 0, c)
    assert out.coeffs[0] == 3.25
