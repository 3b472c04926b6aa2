"""Pointwise operations of the library API, which no `vbx` command runs.

Points of the total space and changes of chart, transition values at a
point, frames at a point and dual frames, the pointwise sum, multiples and
tensor product of fields, and calculus at a point: directional
derivatives, composition of maps, and the Leibniz, chain-rule and
product-partials identities. What evaluates runs through the same one-row
trials (calculus.at_point) as the commands.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .bundles import DEFAULT_SEED, _frame_chart, _lookup, find_edge
from .calculus import _DOMAIN_BOX, SmoothMap, at_point, at_points, eval_map, jacobian
from .constructions import _PRECONDITION_SAMPLES, _fiber_map_rule, dual_bundle
from .coords import Box
from .dets import DEFAULT_TOL
from .errors import (
    CocycleViolation,
    DomainViolation,
    ShapeMismatch,
    SingularFrame,
    UnsupportedField,
)
from .expr import Var, as_exprs, fold_add, fold_mul, num_literal, subst_all
from .geometry import sample_box
from .linalg import LinearMap, OrderedBasis, is_gl, make_linear
from .record import Record, record
from .spec import BundleMorphismSpec, TensorFieldSpec, VectorBundleSpec, make_frame, tensor_dim
from .tensors import digits_to_index, index_to_digits
from . import symmat


# ---------------------------------------------------------------------------
# Points of the total space.


@record
class TotalPoint(Record):
    """A point of the total space: base coordinates x in a chart and fiber
    coordinates v in that chart's trivialization."""

    chart: str
    x: np.ndarray
    v: np.ndarray


def transition_eval(B: VectorBundleSpec, i: str, j: str, x) -> LinearMap:
    """Evaluate the transition matrix converting chart-j fiber coordinates
    to chart-i fiber coordinates, at chart-i base coordinates x: a point of
    chart i when i == j, else of a declared i->j overlap region."""
    fiber = B.fiber_space
    if i == j:
        point_in_box(x, B.base.chart(i).box, "base dim", f"chart '{i}'")
        return make_linear(fiber, fiber, np.eye(B.fiber_dim, dtype=B.field.dtype))
    edges = B.edges_between(i, j)

    def stage(t, X, rows):
        at, found = _lookup(t, [edges], X, lambda k: DomainViolation(
            f"point {X[k].tolist()} is not in any declared {i}->{j} overlap region"))
        if found:  # else every point failed above
            return t.matrices(at, [e.g for e in found], X)

    L = make_linear(fiber, fiber, at_point(x, B.base.dim, "base dim", stage))
    if not is_gl(L):
        raise CocycleViolation(
            f"transition {i}->{j} is singular at {np.asarray(x).tolist()}")
    return L


def change_chart(B: VectorBundleSpec, p: TotalPoint, j: str) -> TotalPoint:
    """Rewrite a total-space point in another chart's coordinates."""
    if j == p.chart:
        return p
    i = p.chart
    edge = find_edge(B, i, j, p.x)
    if edge is None:
        raise DomainViolation(
            f"point {np.asarray(p.x).tolist()} is not in any declared {i}->{j} overlap region")
    y = eval_map(edge.overlap.tau, p.x)
    # Per the Transition Convention, v_j = g_ji(x_j) v_i.
    L = transition_eval(B, j, i, y)
    return TotalPoint(j, y, L.matrix @ np.asarray(p.v, dtype=B.field.dtype))


def make_total_point(B: VectorBundleSpec, chart: str, x, v) -> TotalPoint:
    pt = point_in_box(x, B.base.chart(chart).box, "base dim", f"chart '{chart}'")
    vec = np.asarray(v, dtype=B.field.dtype)
    if vec.shape != (B.fiber_dim,):
        raise ShapeMismatch(f"fiber vector shape {vec.shape} does not match dim {B.fiber_dim}")
    return TotalPoint(chart, pt, vec)


# ---------------------------------------------------------------------------
# Fields, pointwise.


def zero_section(B: VectorBundleSpec) -> TensorFieldSpec:
    zero = tuple(num_literal(0.0) for _ in range(B.fiber_dim))
    return TensorFieldSpec(B, 0, 1, {c.name: zero for c in B.base.charts})


def _check_field_pair(A: TensorFieldSpec, B: TensorFieldSpec, op: str,
                      same_valence: bool) -> None:
    if A.bundle != B.bundle:
        raise ShapeMismatch(f"{op}: fields live on different bundles")
    if set(A.per_chart) != set(B.per_chart):
        raise ShapeMismatch(f"{op}: fields cover different charts")
    if same_valence and (A.r, A.s) != (B.r, B.s):
        raise ShapeMismatch(f"{op}: valences differ (({A.r},{A.s}) vs ({B.r},{B.s}))")


def _operand_rules(*operands) -> tuple:
    """The rules of a field built from operands: each operand whole, in
    order, once any of them has rules of its own."""
    return operands if any(A.rules for A in operands) else ()


def field_add(A: TensorFieldSpec, B: TensorFieldSpec) -> TensorFieldSpec:
    _check_field_pair(A, B, "field_add", same_valence=True)
    out = {name: tuple(fold_add(a, b)
                       for a, b in zip(A.per_chart[name], B.per_chart[name]))
           for name in sorted(A.per_chart)}
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A, B))


def field_smul(c, A: TensorFieldSpec) -> TensorFieldSpec:
    """Multiply by a constant. Expressions are real-valued, so c must be
    real (a complex number with zero imaginary part included) on complex
    bundles too."""
    z = complex(c)
    if z.imag != 0:
        raise ShapeMismatch(f"field_smul: scalar {c} is not real; expressions are real-valued")
    if not np.isfinite(z.real):
        raise ShapeMismatch(f"field_smul: scalar {c} is not finite")
    lit = num_literal(z.real)
    out = {name: tuple(fold_mul(lit, e) for e in comps)
           for name, comps in sorted(A.per_chart.items())}
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A))


def field_fmul(f: dict, A: TensorFieldSpec) -> TensorFieldSpec:
    """Multiply by a scalar function given as one expression per chart."""
    if set(f) != set(A.per_chart):
        raise ShapeMismatch("field_fmul: function charts do not match field charts")
    out = {}
    for name in sorted(A.per_chart):
        (scalar,) = as_exprs((f[name],), A.bundle.base.dim, f"scalar on '{name}'", ShapeMismatch)
        out[name] = tuple(fold_mul(scalar, e) for e in A.per_chart[name])
    return TensorFieldSpec(A.bundle, A.r, A.s, out, _operand_rules(A))


def field_product(A: TensorFieldSpec, B: TensorFieldSpec) -> TensorFieldSpec:
    """Pointwise tensor product per chart; A takes the leading slots.

    Coefficients are radix-ordered over a fiber of dimension d: result
    coefficient (vec, cov) is A's at (vec[:A.r], cov[:A.s]) times B's at
    the rest."""
    _check_field_pair(A, B, "field_product", same_valence=False)
    d, r, s, p, q = A.bundle.fiber_dim, A.r, A.s, B.r, B.s
    pairs = []
    for j in range(1, tensor_dim(d, r + p, s + q, "field_product") + 1):
        digits = index_to_digits(j, d, r + p, s + q)
        vec, cov = digits[: r + p], digits[r + p :]
        pairs.append((digits_to_index(vec[:r] + cov[:s], d) - 1,
                      digits_to_index(vec[r:] + cov[s:], d) - 1))
    out = {name: tuple(fold_mul(A.per_chart[name][ja], B.per_chart[name][jb]) for ja, jb in pairs)
           for name in sorted(A.per_chart)}
    return TensorFieldSpec(A.bundle, r + p, s + q, out, _operand_rules(A, B))


# ---------------------------------------------------------------------------
# Frames.


def frame_from_trivialization(B: VectorBundleSpec, chart: str,
                              basis: OrderedBasis) -> BundleMorphismSpec:
    """The frame of constant sections whose fiber values are the basis vectors."""
    if basis.space.dim != B.fiber_dim:
        raise ShapeMismatch(
            f"basis dim {basis.space.dim} does not match fiber dim {B.fiber_dim}")
    if np.any(np.imag(basis.vectors) != 0):
        raise UnsupportedField("constant frames are stored as expressions, which are real-valued")
    return make_frame(B, chart, [[num_literal(v) for v in np.real(vec)] for vec in basis.vectors])


def frame_matrix_at(F: BundleMorphismSpec, x) -> np.ndarray:
    """The d x d matrix whose columns are the frame sections at x."""
    c = _frame_chart(F)

    def stage(t, X, rows):
        t.in_box(c.box, X, rows, f"chart '{c.name}'")
        return t.matrix(F.fiber_map[c.name], X, rows)

    return at_point(x, c.box.dim, "base dim", stage).astype(F.source.field.dtype, copy=False)


def dual_frame(F: BundleMorphismSpec) -> BundleMorphismSpec:
    """Dual frame: column i of the result is row i of the pointwise inverse.

    The inverse is taken symbolically (adjugate over determinant), so the
    dual frame is again an expression-backed frame, on the dual bundle.
    Pairing dual column i against frame column j gives the Kronecker delta.
    """
    c = _frame_chart(F)
    at_points(sample_box(c.box, _PRECONDITION_SAMPLES, DEFAULT_SEED), lambda t, X, rows: (
        _fiber_map_rule(t, F, c.name, X, rows, DEFAULT_TOL, SingularFrame, "frame matrix")))
    inv = symmat.mat_inverse(F.fiber_map[c.name])
    return replace(F, target=dual_bundle(F.target), fiber_map={c.name: symmat.mat_transpose(inv)})


# ---------------------------------------------------------------------------
# Calculus at a point.


def point_in_box(x, box: Box, what: str, where: str) -> np.ndarray:
    """x as a float array, once it passes the shape and box rules."""

    def stage(t, X, rows):
        t.in_box(box, X, rows, where)
        return X

    return at_point(x, box.dim, what, stage)


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
    return SmoothMap(subst_all(g.components, f.components), f.box)


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
    point_in_box(np.concatenate([a1, a2]), F.box, "domain dim", _DOMAIN_BOX)
    w1 = np.asarray(v1, dtype=float)
    w2 = np.asarray(v2, dtype=float)
    if w1.shape != (m1,) or w2.shape != (m2,):
        raise ShapeMismatch("direction shapes do not match the point split")

    frozen2 = [Var(i + 1) for i in range(m1)] + [num_literal(float(c)) for c in a2]
    frozen1 = [num_literal(float(c)) for c in a1] + [Var(i + 1) for i in range(m2)]
    box1 = Box(F.box.lo[:m1], F.box.hi[:m1])
    box2 = Box(F.box.lo[m1:], F.box.hi[m1:])
    iota1 = SmoothMap(subst_all(F.components, frozen2), box1)
    iota2 = SmoothMap(subst_all(F.components, frozen1), box2)
    return jacobian(iota1, a1).matrix @ w1 + jacobian(iota2, a2).matrix @ w2
