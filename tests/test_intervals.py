"""Interval enclosures: the walk in vbx.intervals against the recursive
ladder it replaced, kept here verbatim as the oracle."""

import math

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.errors import EvalError
from vbx.expr import Add, Call, Const, Div, Mul, Neg, Num, Pow, Sub, Var
from vbx.intervals import (
    _iv_add,
    _iv_mul,
    _iv_neg,
    _iv_pow,
    _iv_recip,
    _iv_sin,
    _iv_sub,
    _iv_tan,
    interval_eval,
)


def recursive_interval_eval(e, bounds) -> tuple:
    """Enclosure of e over the box given by bounds[i-1] = (lo_i, hi_i)."""
    if isinstance(e, Num):
        return (e.value, e.value)
    if isinstance(e, Const):
        v = math.pi if e.name == "pi" else math.e
        return (v, v)
    if isinstance(e, Var):
        lo, hi = bounds[e.index - 1]
        return (float(lo), float(hi))
    if isinstance(e, Neg):
        return _iv_neg(recursive_interval_eval(e.a, bounds))
    if isinstance(e, Add):
        return _iv_add(recursive_interval_eval(e.a, bounds), recursive_interval_eval(e.b, bounds))
    if isinstance(e, Sub):
        return _iv_sub(recursive_interval_eval(e.a, bounds), recursive_interval_eval(e.b, bounds))
    if isinstance(e, Mul):
        return _iv_mul(recursive_interval_eval(e.a, bounds), recursive_interval_eval(e.b, bounds))
    if isinstance(e, Div):
        return _iv_mul(recursive_interval_eval(e.a, bounds),
                       _iv_recip(recursive_interval_eval(e.b, bounds)))
    if isinstance(e, Pow):
        return _iv_pow(recursive_interval_eval(e.base, bounds), e.exponent)
    if isinstance(e, Call):
        a = recursive_interval_eval(e.arg, bounds)
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


def outcome(fn):
    """The enclosure's bits, or the type and message of what fn raised."""
    try:
        return [v.hex() for v in fn()]
    except Exception as exc:  # the ladder may raise OverflowError from math.exp
        return type(exc), str(exc)


def _exprs(depth=3):
    leaves = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2.0, 1e200]).map(Num),
                       st.sampled_from([Var(1), Var(2), Const("pi"), Const("e")]))
    if depth == 0:
        return leaves

    def combine(children):
        a, b = children
        return st.sampled_from([
            Neg(a), Add(a, b), Sub(a, b), Mul(a, b), Div(a, b), Mul(a, a),
            Pow(a, -1), Pow(a, 0), Pow(a, 2), Pow(a, 3), Call("sin", a), Call("cos", a),
            Call("tan", a), Call("exp", a), Call("log", a), Call("sqrt", a),
        ])

    return st.one_of(leaves, st.tuples(_exprs(depth - 1), _exprs(depth - 1)).flatmap(combine))


_ends = st.floats(-4.0, 4.0, allow_nan=False)


@seed(20240817)
@settings(max_examples=500, deadline=None)
@given(_exprs(), _ends, _ends, _ends, _ends)
def test_walk_encloses_bit_for_bit_like_the_recursive_ladder(e, a, b, c, d):
    bounds = [(min(a, b), max(a, b)), (min(c, d), max(c, d))]
    assert outcome(lambda: interval_eval(e, bounds)) == \
        outcome(lambda: recursive_interval_eval(e, bounds))


def test_deep_enclosures_need_no_recursion():
    e = Var(1)
    for _ in range(10_000):
        e = Call("sin", e)
    lo, hi = interval_eval(e, [(0.1, 0.2)])
    assert 0.0 < lo < hi < 0.2
