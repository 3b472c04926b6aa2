"""Interval evaluation of expressions, for certified image enclosures.

Used when a construction must know that the image of a box lies inside
another box (restricting a bundle shrinks overlap regions soundly this
way). The enclosure may be loose; callers bisect until boxes certify or
get dropped. An interval that hits a pole or a domain edge raises
EvalError, and one past the float range OverflowError; callers treat
both as "cannot certify". Evaluation is a visit
of the walk in vbx.expr, so each distinct node is enclosed once and depth
is not bounded by the recursion limit.
"""

from __future__ import annotations

import math

from .errors import EvalError
from .expr import Add, Call, Const, Div, Expr, Mul, Neg, Num, Pow, Sub, Var, _fold

_TWO_PI = 2.0 * math.pi


def _iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def _iv_neg(a):
    return (-a[1], -a[0])


def _iv_mul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


def _iv_recip(a):
    if a[0] <= 0.0 <= a[1]:
        raise EvalError("interval reciprocal across zero")
    return (1.0 / a[1], 1.0 / a[0])


def _iv_pow(a, k: int):
    if k == 0:
        return (1.0, 1.0)
    if k < 0:
        return _iv_pow(_iv_recip(a), -k)
    if k % 2 == 1:
        return (a[0] ** k, a[1] ** k)
    lo, hi = abs(a[0]), abs(a[1])
    if a[0] <= 0.0 <= a[1]:
        return (0.0, max(lo, hi) ** k)
    m = min(lo, hi)
    return (m**k, max(lo, hi) ** k)


def _iv_sin(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    # max of sin at pi/2 + 2k*pi, min at -pi/2 + 2k*pi
    has_max = math.floor((hi - math.pi / 2) / _TWO_PI) >= math.ceil((lo - math.pi / 2) / _TWO_PI)
    has_min = math.floor((hi + math.pi / 2) / _TWO_PI) >= math.ceil((lo + math.pi / 2) / _TWO_PI)
    vals = (math.sin(lo), math.sin(hi))
    return (
        -1.0 if has_min else min(vals),
        1.0 if has_max else max(vals),
    )


def _iv_tan(a):
    lo, hi = a
    # poles at pi/2 + k*pi
    if math.floor((hi - math.pi / 2) / math.pi) >= math.ceil((lo - math.pi / 2) / math.pi):
        raise EvalError("interval tan across a pole")
    return (math.tan(lo), math.tan(hi))


def interval_eval(e: Expr, bounds) -> tuple:
    """Enclosure of e over the box given by bounds[i-1] = (lo_i, hi_i)."""

    def visit(e, iv):
        if isinstance(e, Num):
            return (e.value, e.value)
        if isinstance(e, Const):
            v = math.pi if e.name == "pi" else math.e
            return (v, v)
        if isinstance(e, Var):
            lo, hi = bounds[e.index - 1]
            return (float(lo), float(hi))
        if isinstance(e, Neg):
            return _iv_neg(iv[0])
        if isinstance(e, Add):
            return _iv_add(iv[0], iv[1])
        if isinstance(e, Sub):
            return _iv_sub(iv[0], iv[1])
        if isinstance(e, Mul):
            return _iv_mul(iv[0], iv[1])
        if isinstance(e, Div):
            return _iv_mul(iv[0], _iv_recip(iv[1]))
        if isinstance(e, Pow):
            return _iv_pow(iv[0], e.exponent)
        if isinstance(e, Call):
            a = iv[0]
            if e.fn == "sin":
                return _iv_sin(a)
            if e.fn == "cos":
                return _iv_sin((a[0] + math.pi / 2, a[1] + math.pi / 2))
            if e.fn == "tan":
                return _iv_tan(a)
            if e.fn == "exp":
                return (math.exp(a[0]), math.exp(a[1]))
            if e.fn == "log":
                if a[0] <= 0.0:
                    raise EvalError("interval log touches non-positive values")
                return (math.log(a[0]), math.log(a[1]))
            if e.fn == "sqrt":
                if a[0] < 0.0:
                    raise EvalError("interval sqrt touches negative values")
                return (math.sqrt(a[0]), math.sqrt(a[1]))
        raise EvalError(f"cannot interval-evaluate node {type(e).__name__}")

    return _fold((e,), {}, visit)[0]
