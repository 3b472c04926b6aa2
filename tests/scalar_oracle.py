"""The scalar tree-walking evaluator, kept as the oracle of the batched one.

vbx evaluates expressions with one evaluator, the straight-line program of
vbx.expr.compile_exprs/run_program, run over a batch of points (a single
point is one row). The dual-number tree walk below is the evaluator it
replaced, kept verbatim: math-module arithmetic on Python floats, Dual
numbers carrying gradient vectors, and EvalError at the first failing node
of the walk. Below it are the one-point functions as they were written on
top of that walk, for tests that compare vbx's one-point API and check
suites against them, the LU form of the scaled determinant, and derived
local fields as the closures they were before they became expressions.
"""

import math

import numpy as np

from vbx.calculus import eval_map as vbx_eval_map
from vbx.calculus import jacobian as vbx_jacobian
from vbx.constructions import LOCAL_CHART
from vbx.coords import FieldTag, Tensor, VectorSpace, make_tensor, region_contains
from vbx.dets import DEFAULT_TOL
from vbx.errors import (CocycleViolation, DomainViolation, EvalError, NotADiffeomorphism,
                        ShapeMismatch)
from vbx.expr import _CONSTS, Add, Call, Const, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, _fold
from vbx.linalg import is_gl
from vbx.pullbacks import cov_pullback, rs_pullback
from vbx.spec import field_eval as vbx_field_eval
from vbx.tensors import tensor_product


class Dual:
    """A value with a gradient vector, for forward-mode differentiation."""

    __slots__ = ("val", "grad")

    def __init__(self, val: float, grad: np.ndarray):
        self.val = val
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.grad + other.grad)
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.grad - other.grad)
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.grad)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val, self.val * other.grad + other.val * self.grad)
        return Dual(self.val * other, other * self.grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Dual):
            if other.val == 0.0:
                raise EvalError("division by zero")
            q = self.val / other.val
            return Dual(q, (self.grad - q * other.grad) / other.val)
        if other == 0.0:
            raise EvalError("division by zero")
        return Dual(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        if self.val == 0.0:
            raise EvalError("division by zero")
        q = other / self.val
        return Dual(q, -q / self.val * self.grad)

    def __neg__(self):
        return Dual(-self.val, -self.grad)


def _v(x):
    return x.val if isinstance(x, Dual) else x


def _int_pow(x, k: int):
    """x**k with Python float semantics whatever the value type: a finite
    base whose power overflows is an EvalError, never an inf."""
    v = _v(x)
    if v == 0.0 and k < 0:
        raise EvalError("zero raised to a negative power")
    try:
        if not isinstance(x, Dual):
            return float(v) ** k
        if k == 0:
            return Dual(1.0, 0.0 * x.grad)
        return Dual(float(v) ** k, k * float(v) ** (k - 1) * x.grad)
    except OverflowError:
        raise EvalError("power overflow") from None


def _call(fn: str, x):
    v = _v(x)
    if fn in ("sin", "cos", "tan") and math.isinf(v):
        raise EvalError(f"{fn} of infinite value {v}")
    if fn == "sin":
        return Dual(math.sin(v), math.cos(v) * x.grad) if isinstance(x, Dual) else math.sin(v)
    if fn == "cos":
        return Dual(math.cos(v), -math.sin(v) * x.grad) if isinstance(x, Dual) else math.cos(v)
    if fn == "tan":
        c = math.cos(v)
        if c == 0.0:
            raise EvalError("tan at a pole")
        t = math.tan(v)
        return Dual(t, x.grad / (c * c)) if isinstance(x, Dual) else t
    if fn == "exp":
        try:
            ev = math.exp(v)
        except OverflowError as exc:
            raise EvalError("exp overflow") from exc
        return Dual(ev, ev * x.grad) if isinstance(x, Dual) else ev
    if fn == "log":
        if v <= 0.0:
            raise EvalError(f"log of non-positive value {v}")
        return Dual(math.log(v), x.grad / v) if isinstance(x, Dual) else math.log(v)
    if fn == "sqrt":
        if v < 0.0:
            raise EvalError(f"sqrt of negative value {v}")
        rt = math.sqrt(v)
        if isinstance(x, Dual):
            if rt == 0.0:
                raise EvalError("sqrt not differentiable at zero")
            return Dual(rt, x.grad / (2.0 * rt))
        return rt
    raise EvalError(f"unknown function {fn}")


def eval_expr(e: Expr, env):
    """Evaluate with env[i-1] bound to variable xi; floats or Duals.

    Raises EvalError at poles and domain edges (division by zero, log of a
    non-positive number, square root of a negative number).
    """

    def visit(e, v):
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Const):
            return _CONSTS[e.name]
        if isinstance(e, Var):
            if e.index > len(env):
                raise EvalError(f"no value for x{e.index}: point has {len(env)} coordinates")
            return env[e.index - 1]
        if isinstance(e, Neg):
            return -v[0]
        if isinstance(e, Add):
            return v[0] + v[1]
        if isinstance(e, Sub):
            return v[0] - v[1]
        if isinstance(e, Mul):
            return v[0] * v[1]
        if isinstance(e, Div):
            if _v(v[1]) == 0.0:
                raise EvalError("division by zero")
            return v[0] / v[1]
        if isinstance(e, Pow):
            return _int_pow(v[0], e.exponent)
        if isinstance(e, Call):
            return _call(e.fn, v[0])
        raise EvalError(f"unknown node {type(e).__name__}")

    return _fold((e,), {}, visit)[0]


# ---------------------------------------------------------------------------
# The one-point functions on top of the walk.


def _point_in_box(F, x) -> np.ndarray:
    pt = np.asarray(x, dtype=float)
    if pt.shape != (F.in_dim,):
        raise ShapeMismatch(f"point shape {pt.shape} does not match domain dim {F.in_dim}")
    if not F.box.contains(pt):
        raise DomainViolation(f"point {pt.tolist()} outside the open domain box")
    return pt


def eval_map(F, x) -> np.ndarray:
    pt = _point_in_box(F, x)
    env = list(pt)
    out = np.array([eval_expr(c, env) for c in F.components], dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvalError(f"map value not finite at {pt.tolist()}")
    return out


def jacobian(F, x) -> np.ndarray:
    pt = _point_in_box(F, x)
    m = F.in_dim
    env = [Dual(float(pt[i]), np.eye(m)[i]) for i in range(m)]
    rows = []
    for c in F.components:
        val = eval_expr(c, env)
        rows.append(val.grad if isinstance(val, Dual) else np.zeros(m))
    mat = np.vstack(rows)
    if not np.all(np.isfinite(mat)):
        raise EvalError(f"jacobian not finite at {pt.tolist()}")
    return mat


def eval_matrix(g, x, dtype=float) -> np.ndarray:
    env = list(np.asarray(x, dtype=float))
    return np.array([[eval_expr(e, env) for e in row] for row in g], dtype=dtype)


def _in_chart(B, chart, x) -> np.ndarray:
    pt = np.asarray(x, dtype=float)
    if not B.base.chart(chart).box.contains(pt):
        raise DomainViolation(f"point {pt.tolist()} outside chart '{chart}'")
    return pt


def field_eval(A, chart, x) -> np.ndarray:
    """Coefficients of a TensorFieldSpec on one chart at x: no shape or
    finiteness rule, as field_eval had none on this walk."""
    if chart not in A.per_chart:
        raise DomainViolation(f"field has no components on chart '{chart}'")
    env = list(_in_chart(A.bundle, chart, x))
    return np.array([eval_expr(e, env) for e in A.per_chart[chart]], dtype=A.bundle.field.dtype)


def frame_matrix_at(F, x) -> np.ndarray:
    """The frame matrix: F's fiber map on its one chart."""
    ((chart, P),) = F.fiber_map.items()
    return eval_matrix(P, _in_chart(F.target, chart, x), F.target.field.dtype)


def scaled_abs_det(matrix) -> float:
    """|det| after dividing each row by its largest absolute entry, by
    LAPACK's LU (numpy.linalg.det), as vbx computed it for every size before
    it took a closed form for d <= 3. A zero row makes it 0, a non-square
    matrix too."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return 0.0
    row_max = np.max(np.abs(m), axis=1)
    if np.any(row_max == 0.0):
        return 0.0
    with np.errstate(all="ignore"):
        return float(np.abs(np.linalg.det(m / row_max[:, None])))


def transition_matrix(B, i, j, x, tol=DEFAULT_TOL) -> np.ndarray:
    """transition_eval's matrix, for i != j."""
    edge = next((e for e in B.edges_between(i, j) if region_contains(e.overlap.region, x)), None)
    if edge is None:
        raise DomainViolation(
            f"point {np.asarray(x).tolist()} is not in any declared {i}->{j} overlap region")
    mat = eval_matrix(edge.g, x, B.field.dtype)
    if not scaled_abs_det(mat) > tol:
        raise CocycleViolation(f"transition {i}->{j} is singular at {np.asarray(x).tolist()}")
    return mat


# ---------------------------------------------------------------------------
# Derived local fields as closures, the form vbx built them in before they
# were expressions: a pulled-back field, or a sum, multiple or product with
# one, evaluated its pointwise definition one point at a time. Plain
# Fields on a box (on vbx.constructions.local_bundle) among the operands evaluate
# through vbx's field_eval on their one chart.


class ClosureField:
    def __init__(self, box, fiber_dim, r, s, evaluator):
        self.box, self.fiber_dim, self.r, self.s = box, fiber_dim, r, s
        self.evaluator = evaluator


def _box(A):
    return A.box if isinstance(A, ClosureField) else A.bundle.base.chart(LOCAL_CHART).box


def _fiber_dim(A) -> int:
    return A.fiber_dim if isinstance(A, ClosureField) else A.bundle.fiber_dim


def closure_eval(A, x) -> Tensor:
    """The value of a ClosureField or a field on a box, as vbx evaluated
    both: shape and box rules, the coefficients, then their finiteness."""
    if not isinstance(A, ClosureField):
        return vbx_field_eval(A, LOCAL_CHART, x)
    pt = np.asarray(x, dtype=float)
    if pt.shape != (A.box.dim,):
        raise ShapeMismatch(f"point shape {pt.shape} does not match base dim {A.box.dim}")
    if not A.box.contains(pt):
        raise DomainViolation(f"point {pt.tolist()} outside chart '{LOCAL_CHART}'")
    coeffs = np.asarray(A.evaluator(pt), dtype=float)
    if not np.all(np.isfinite(coeffs)):
        raise EvalError(f"field value not finite at {pt.tolist()}")
    return make_tensor(VectorSpace(A.fiber_dim, FieldTag.REAL), A.r, A.s, coeffs)


def closure_add(A, B) -> ClosureField:
    return ClosureField(_box(A), _fiber_dim(A), A.r, A.s,
                        lambda x: closure_eval(A, x).coeffs + closure_eval(B, x).coeffs)


def closure_smul(c: float, A) -> ClosureField:
    return ClosureField(_box(A), _fiber_dim(A), A.r, A.s,
                        lambda x: c * closure_eval(A, x).coeffs)


def closure_product(A, B) -> ClosureField:
    return ClosureField(
        _box(A), _fiber_dim(A), A.r + B.r, A.s + B.s,
        lambda x: tensor_product(closure_eval(A, x), closure_eval(B, x)).coeffs)


def closure_pullback_diffeo(f, A, r: int, s: int, tol: float = DEFAULT_TOL) -> ClosureField:
    def _eval(x):
        J = vbx_jacobian(f, x)
        if not is_gl(J, tol):
            raise NotADiffeomorphism(f"Jacobian singular at {np.asarray(x).tolist()}")
        target = closure_eval(A, vbx_eval_map(f, x))
        return rs_pullback(J, r, s, target, tol).coeffs

    return ClosureField(f.box, f.in_dim, r, s, _eval)


def closure_pullback_cov(f, A, r: int) -> ClosureField:
    def _eval(x):
        J = vbx_jacobian(f, x)
        target = closure_eval(A, vbx_eval_map(f, x))
        return cov_pullback(J, r, target).coeffs

    return ClosureField(f.box, f.in_dim, r, 0, _eval)
