"""Pullbacks of tensors along linear maps.

Four flavors, one implementation core:

* dual_pullback: covectors along any map, (L*a)(v) = a(Lv);
* rs_pullback: mixed (r,s)-tensors along isomorphisms, vectors pushed
  through L and covectors through (L^-1)*;
* cov_pullback: purely covariant tensors along arbitrary (even
  non-square) maps;
* graded_pullback: rs_pullback applied termwise to a graded tensor.

The implementation works on coefficient arrays directly: pulling back is
one matrix contraction per slot (M^T on vector slots, M^-1 on covector
slots). Tests hold this against the slotwise defining formula, evaluated
argument by argument, so the fast path never drifts from the definition.
"""

from __future__ import annotations

import numpy as np

from .coords import Tensor, _freeze, as_array, on_slots
from .dets import DEFAULT_TOL
from .errors import ShapeMismatch, Singular
from .linalg import LinearMap, invert_linear, is_gl
from .tensors import GradedTensor, make_graded


def _check_on_codomain(L: LinearMap, T: Tensor, op: str) -> None:
    if T.space != L.codomain:
        raise ShapeMismatch(f"{op}: tensor lives on {T.space}, map lands in {L.codomain}")


def _pull_coeffs(beta: Tensor, L: LinearMap, inverse: LinearMap | None) -> Tensor:
    mats = [L.matrix.T] * beta.r + ([inverse.matrix] * beta.s if beta.s else [])
    arr = on_slots(as_array(beta)[None], mats)[0]
    return Tensor(L.domain, beta.r, beta.s, _freeze(np.ascontiguousarray(arr).reshape(-1)))


def dual_pullback(L: LinearMap, alpha: Tensor) -> Tensor:
    """Pull a covector back along any linear map: coefficients become M^T a."""
    if (alpha.r, alpha.s) != (1, 0):
        raise ShapeMismatch(f"dual_pullback expects a (1,0)-tensor, got {alpha.valence}")
    _check_on_codomain(L, alpha, "dual_pullback")
    return _pull_coeffs(alpha, L, None)


def cov_pullback(L: LinearMap, r: int, beta: Tensor) -> Tensor:
    """Pull a purely covariant tensor back along an arbitrary map."""
    if beta.s != 0:
        raise ShapeMismatch("cov_pullback is undefined for contravariant slots")
    if beta.r != r:
        raise ShapeMismatch(f"rank mismatch: tensor has r={beta.r}, asked for r={r}")
    _check_on_codomain(L, beta, "cov_pullback")
    return _pull_coeffs(beta, L, None)


def rs_pullback(L: LinearMap, r: int, s: int, beta: Tensor, tol: float = DEFAULT_TOL) -> Tensor:
    """Pull a mixed tensor back along an isomorphism.

    Defined by result(v_1..v_r, u_1..u_s) =
    beta(Lv_1,...,Lv_r, (L^-1)*u_1,...,(L^-1)*u_s); for r = s = 0 this is
    the identity on scalars.
    """
    if r < 0 or s < 0:
        raise ShapeMismatch(f"valence must be non-negative, got ({r}, {s})")
    if L.domain.dim != L.codomain.dim:
        raise ShapeMismatch("rs_pullback needs a square map")
    if not is_gl(L, tol):
        raise Singular("rs_pullback needs an isomorphism")
    if not isinstance(beta, Tensor):
        raise ShapeMismatch("rs_pullback applies to Tensor values")
    if (beta.r, beta.s) != (r, s):
        raise ShapeMismatch(f"rs_pullback asked for valence ({r},{s}), tensor has {beta.valence}")
    _check_on_codomain(L, beta, "rs_pullback")
    return _pull_coeffs(beta, L, invert_linear(L, tol))


def graded_pullback(L: LinearMap, X: GradedTensor, tol: float = DEFAULT_TOL) -> GradedTensor:
    """Apply rs_pullback to every term of X by its own valence."""
    if L.domain.dim != L.codomain.dim:
        raise ShapeMismatch("graded pullback needs a square map")
    if not is_gl(L, tol):
        raise Singular("graded pullback needs an isomorphism")
    if not isinstance(X, GradedTensor):
        raise ShapeMismatch("graded pullback applies to GradedTensor values")
    if X.space != L.codomain:
        raise ShapeMismatch("graded pullback: tensor lives off the map's codomain")
    inverse = invert_linear(L, tol)
    return make_graded(L.domain, {key: _pull_coeffs(t, L, inverse)
                                  for key, t in sorted(X.terms.items())})
