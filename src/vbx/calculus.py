"""Smooth maps on open boxes, exact Jacobians, and local tensor fields.

Derivatives come from forward-mode dual numbers pushed through the
expression tree, so they are exact to rounding; central finite differences
exist only in the test suite as a cross-check. Tensor fields here live on
an open box in R^m with tensor values on a fiber space R^d; pulled-back
fields evaluate through the defining formula (Jacobian pullback at each
point) rather than being re-expanded symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainViolation, EvalError, NotADiffeomorphism, ShapeMismatch
from .expr import (
    Dual,
    Var,
    _as_expr,
    eval_expr,
    fold_add,
    fold_mul,
    max_var_index,
    num_literal,
    subst,
)
from .geometry import Box, make_box
from .linalg import DEFAULT_TOL, FieldTag, LinearMap, VectorSpace, is_gl, make_linear
from .tensors import Tensor, digits_to_index, index_to_digits, make_tensor, tensor_product


@dataclass(frozen=True)
class SmoothMap:
    """A map from an open box in R^m to R^n, one expression per component."""

    components: tuple
    box: Box

    @property
    def in_dim(self) -> int:
        return self.box.dim

    @property
    def out_dim(self) -> int:
        return len(self.components)


def make_smooth_map(components, box) -> SmoothMap:
    """Build a SmoothMap from expressions (or strings) and box bounds."""
    b = box if isinstance(box, Box) else make_box(box)
    exprs = tuple(_as_expr(c) for c in components)
    if not exprs:
        raise ShapeMismatch("a map needs at least one component")
    for k, e in enumerate(exprs):
        used = max_var_index(e)
        if used > b.dim:
            raise ShapeMismatch(
                f"component {k} references x{used} but the domain has {b.dim} variables"
            )
    return SmoothMap(exprs, b)


def identity_map(box) -> SmoothMap:
    b = box if isinstance(box, Box) else make_box(box)
    return SmoothMap(tuple(Var(i + 1) for i in range(b.dim)), b)


def outside_box(pt) -> DomainViolation:
    return DomainViolation(f"point {np.asarray(pt).tolist()} outside the open domain box")


def map_not_finite(pt) -> EvalError:
    return EvalError(f"map value not finite at {np.asarray(pt).tolist()}")


def jacobian_not_finite(pt) -> EvalError:
    return EvalError(f"jacobian not finite at {np.asarray(pt).tolist()}")


def _point_in_box(F: SmoothMap, x) -> np.ndarray:
    pt = np.asarray(x, dtype=float)
    if pt.shape != (F.in_dim,):
        raise ShapeMismatch(f"point shape {pt.shape} does not match domain dim {F.in_dim}")
    if not F.box.contains(pt):
        raise outside_box(pt)
    return pt


def eval_map(F: SmoothMap, x) -> np.ndarray:
    """Componentwise evaluation at a point of the open domain box."""
    pt = _point_in_box(F, x)
    env = list(pt)
    out = np.array([eval_expr(c, env) for c in F.components], dtype=float)
    if not np.all(np.isfinite(out)):
        raise map_not_finite(pt)
    return out


def jacobian(F: SmoothMap, x) -> LinearMap:
    """Matrix of first partials at x, by dual-number forward evaluation."""
    pt = _point_in_box(F, x)
    m = F.in_dim
    env = [Dual(float(pt[i]), np.eye(m)[i]) for i in range(m)]
    rows = []
    for c in F.components:
        val = eval_expr(c, env)
        rows.append(val.grad if isinstance(val, Dual) else np.zeros(m))
    mat = np.vstack(rows)
    if not np.all(np.isfinite(mat)):
        raise jacobian_not_finite(pt)
    dom = VectorSpace(m, FieldTag.REAL)
    cod = VectorSpace(F.out_dim, FieldTag.REAL)
    return make_linear(dom, cod, mat)


def directional_derivative(f: SmoothMap, x, v) -> float:
    """Derivative of a scalar map at x in direction v."""
    if f.out_dim != 1:
        raise ShapeMismatch("directional_derivative expects a scalar map")
    vec = np.asarray(v, dtype=float)
    if vec.shape != (f.in_dim,):
        raise ShapeMismatch(f"direction shape {vec.shape} does not match domain dim {f.in_dim}")
    return float((jacobian(f, x).matrix @ vec)[0])


def compose_maps(g: SmoothMap, f: SmoothMap) -> SmoothMap:
    """g after f, by substituting f's components into g's expressions."""
    if g.in_dim != f.out_dim:
        raise ShapeMismatch(f"cannot compose: inner map has {f.out_dim} outputs, outer expects {g.in_dim}")
    comps = tuple(subst(c, list(f.components)) for c in g.components)
    return SmoothMap(comps, f.box)


def leibniz_defect(f: SmoothMap, g: SmoothMap, x, v) -> float:
    """D(fg)(x)(v) minus the Leibniz expansion; tiny for correct derivatives."""
    if f.out_dim != 1 or g.out_dim != 1:
        raise ShapeMismatch("leibniz_defect expects scalar maps")
    if f.box != g.box:
        raise ShapeMismatch("leibniz_defect expects maps on a shared domain box")
    product = SmoothMap((fold_mul(f.components[0], g.components[0]),), f.box)
    lhs = directional_derivative(product, x, v)
    fx = float(eval_map(f, x)[0])
    gx = float(eval_map(g, x)[0])
    rhs = gx * directional_derivative(f, x, v) + fx * directional_derivative(g, x, v)
    return lhs - rhs


def chain_defect(g: SmoothMap, f: SmoothMap, x) -> float:
    """Max entry of |J(g∘f)(x) - J(g)(f(x)) J(f)(x)|."""
    fx = eval_map(f, x)
    if not g.box.contains(fx):
        raise DomainViolation(f"f(x) = {fx.tolist()} leaves the outer map's box")
    direct = jacobian(compose_maps(g, f), x).matrix
    chained = jacobian(g, fx).matrix @ jacobian(f, x).matrix
    return float(np.max(np.abs(direct - chained)))


def product_partials(F: SmoothMap, p1, p2, v1, v2) -> np.ndarray:
    """Sum of the two partial-slot derivative actions at (p1, p2).

    Freezes one factor at a time: J(F∘i1)(p1) v1 + J(F∘i2)(p2) v2, which
    equals the full Jacobian applied to (v1, v2).
    """
    a1 = np.asarray(p1, dtype=float)
    a2 = np.asarray(p2, dtype=float)
    m1, m2 = a1.size, a2.size
    if m1 + m2 != F.in_dim:
        raise ShapeMismatch(f"point split {m1}+{m2} does not match domain dim {F.in_dim}")
    _point_in_box(F, np.concatenate([a1, a2]))
    w1 = np.asarray(v1, dtype=float)
    w2 = np.asarray(v2, dtype=float)
    if w1.shape != (m1,) or w2.shape != (m2,):
        raise ShapeMismatch("direction shapes do not match the point split")

    frozen2 = [Var(i + 1) for i in range(m1)] + [num_literal(float(c)) for c in a2]
    frozen1 = [num_literal(float(c)) for c in a1] + [Var(i + 1) for i in range(m2)]
    box1 = Box(F.box.lo[:m1], F.box.hi[:m1])
    box2 = Box(F.box.lo[m1:], F.box.hi[m1:])
    iota1 = SmoothMap(tuple(subst(c, frozen2) for c in F.components), box1)
    iota2 = SmoothMap(tuple(subst(c, frozen1) for c in F.components), box2)
    return jacobian(iota1, a1).matrix @ w1 + jacobian(iota2, a2).matrix @ w2


# ---------------------------------------------------------------------------
# Local tensor fields.


@dataclass(frozen=True)
class TensorFieldLocal:
    """An (r,s)-tensor-field on an open box, fiber dimension d.

    Symbolic fields carry one expression per coefficient; derived fields
    (pullbacks, products with derived factors) carry an evaluator closure
    instead and have components None.
    """

    box: Box
    fiber_dim: int
    r: int
    s: int
    components: tuple | None
    evaluator: object = None


def make_tensor_field(box, fiber_dim: int, r: int, s: int, components) -> TensorFieldLocal:
    b = box if isinstance(box, Box) else make_box(box)
    if fiber_dim < 1:
        raise ShapeMismatch(f"fiber dimension must be positive, got {fiber_dim}")
    exprs = tuple(_as_expr(c) for c in components)
    want = fiber_dim ** (r + s)
    if len(exprs) != want:
        raise ShapeMismatch(f"need {want} components for d={fiber_dim}, (r,s)=({r},{s}); got {len(exprs)}")
    for k, e in enumerate(exprs):
        used = max_var_index(e)
        if used > b.dim:
            raise ShapeMismatch(f"component {k} references x{used} but the base has {b.dim} variables")
    return TensorFieldLocal(b, fiber_dim, r, s, exprs)


def closure_field(box: Box, fiber_dim: int, r: int, s: int, evaluator) -> TensorFieldLocal:
    """A field defined by a coefficient-evaluator; used for pullbacks."""
    return TensorFieldLocal(box, fiber_dim, r, s, None, evaluator)


def tf_eval(A: TensorFieldLocal, x) -> Tensor:
    """Evaluate the field into a Tensor at a point of its box."""
    pt = np.asarray(x, dtype=float)
    if pt.shape != (A.box.dim,):
        raise ShapeMismatch(f"point shape {pt.shape} does not match base dim {A.box.dim}")
    if not A.box.contains(pt):
        raise DomainViolation(f"point {pt.tolist()} outside the field's box")
    space = VectorSpace(A.fiber_dim, FieldTag.REAL)
    if A.components is not None:
        env = list(pt)
        coeffs = np.array([eval_expr(c, env) for c in A.components], dtype=float)
    else:
        coeffs = np.asarray(A.evaluator(pt), dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise EvalError(f"field value not finite at {pt.tolist()}")
    return make_tensor(space, A.r, A.s, coeffs)


def _check_field_pair(A: TensorFieldLocal, B: TensorFieldLocal, op: str, same_valence: bool) -> None:
    if A.box != B.box:
        raise ShapeMismatch(f"{op}: fields live on different boxes")
    if A.fiber_dim != B.fiber_dim:
        raise ShapeMismatch(f"{op}: fiber dimensions differ ({A.fiber_dim} vs {B.fiber_dim})")
    if same_valence and (A.r, A.s) != (B.r, B.s):
        raise ShapeMismatch(f"{op}: valences differ (({A.r},{A.s}) vs ({B.r},{B.s}))")


def tf_add(A: TensorFieldLocal, B: TensorFieldLocal) -> TensorFieldLocal:
    _check_field_pair(A, B, "tf_add", same_valence=True)
    if A.components is not None and B.components is not None:
        comps = tuple(fold_add(a, b) for a, b in zip(A.components, B.components))
        return TensorFieldLocal(A.box, A.fiber_dim, A.r, A.s, comps)
    return closure_field(
        A.box, A.fiber_dim, A.r, A.s,
        lambda x: tf_eval(A, x).coeffs + tf_eval(B, x).coeffs,
    )


def tf_smul(c: float, A: TensorFieldLocal) -> TensorFieldLocal:
    if A.components is not None:
        comps = tuple(fold_mul(num_literal(float(c)), a) for a in A.components)
        return TensorFieldLocal(A.box, A.fiber_dim, A.r, A.s, comps)
    return closure_field(A.box, A.fiber_dim, A.r, A.s, lambda x: c * tf_eval(A, x).coeffs)


def product_component_exprs(a_comps, b_comps, d: int, r: int, s: int, p: int, q: int):
    """Components of the tensor product of an (r,s)- and a (p,q)-valued field.

    Both inputs are radix-ordered tuples of expressions over a fiber of
    dimension d; the first factor takes the leading vector and covector
    slots of the result.
    """
    comps = []
    for j in range(1, d ** (r + p + s + q) + 1):
        digits = index_to_digits(j, d, r + p, s + q)
        vec, cov = digits[: r + p], digits[r + p :]
        a_digits = vec[:r] + cov[:s]
        b_digits = vec[r:] + cov[s:]
        ja = digits_to_index(a_digits, d) - 1
        jb = digits_to_index(b_digits, d) - 1
        comps.append(fold_mul(a_comps[ja], b_comps[jb]))
    return tuple(comps)


def tf_product(A: TensorFieldLocal, B: TensorFieldLocal) -> TensorFieldLocal:
    """Pointwise tensor product; A takes the leading slots."""
    _check_field_pair(A, B, "tf_product", same_valence=False)
    d = A.fiber_dim
    r, s, p, q = A.r, A.s, B.r, B.s
    if A.components is not None and B.components is not None:
        comps = product_component_exprs(A.components, B.components, d, r, s, p, q)
        return TensorFieldLocal(A.box, d, r + p, s + q, comps)
    return closure_field(
        A.box, d, r + p, s + q,
        lambda x: tensor_product(tf_eval(A, x), tf_eval(B, x)).coeffs,
    )


def tf_pullback_diffeo(f: SmoothMap, A: TensorFieldLocal, r: int, s: int,
                       tol: float = DEFAULT_TOL) -> TensorFieldLocal:
    """Pull an (r,s)-field back along a diffeomorphism witness.

    The result evaluates as rs_pullback(J_f(x), r, s, A(f(x))); a singular
    Jacobian at any evaluated point raises NotADiffeomorphism.
    """
    from .pullbacks import rs_pullback

    if (A.r, A.s) != (r, s):
        raise ShapeMismatch(f"field has valence ({A.r},{A.s}), asked for ({r},{s})")
    if f.in_dim != f.out_dim:
        raise ShapeMismatch("a diffeomorphism needs equal domain and codomain dimensions")
    if A.fiber_dim != f.out_dim:
        raise ShapeMismatch(
            f"field fiber dim {A.fiber_dim} does not match the map's codomain dim {f.out_dim}"
        )

    def _eval(x):
        J = jacobian(f, x)
        if not is_gl(J, tol):
            raise NotADiffeomorphism(f"Jacobian singular at {np.asarray(x).tolist()}")
        target = tf_eval(A, eval_map(f, x))
        return rs_pullback(J, r, s, target, tol).coeffs

    return closure_field(f.box, f.in_dim, r, s, _eval)


def tf_pullback_cov(f: SmoothMap, A: TensorFieldLocal, r: int) -> TensorFieldLocal:
    """Pull a purely covariant field back along any smooth map."""
    from .pullbacks import cov_pullback

    if A.s != 0:
        raise ShapeMismatch("tf_pullback_cov needs a purely covariant field")
    if A.r != r:
        raise ShapeMismatch(f"field has rank {A.r}, asked for {r}")
    if A.fiber_dim != f.out_dim:
        raise ShapeMismatch(
            f"field fiber dim {A.fiber_dim} does not match the map's codomain dim {f.out_dim}"
        )

    def _eval(x):
        J = jacobian(f, x)
        target = tf_eval(A, eval_map(f, x))
        return cov_pullback(J, r, target).coeffs

    return closure_field(f.box, f.in_dim, r, 0, _eval)
