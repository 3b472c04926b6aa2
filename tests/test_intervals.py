"""Interval enclosures: vbx.expr.enclose against the recursive ladder it
replaced, kept here as the oracle with its own copies of the interval rules.

The ladder's libm calls (sin, tan, exp, log and powers) go through the numpy
ufuncs that enclose uses, still raising where math raises, so every box both
sides can certify gets the same bits.
"""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.errors import EvalError
from vbx.expr import Add, Call, Const, Div, Mul, Neg, Num, Pow, Sub, Var, compile_exprs, enclose

_TWO_PI = 2.0 * math.pi


def _libm(ufunc, domain):
    """math's function of that name, its value from ufunc."""

    def f(x):
        if not domain(x):
            raise ValueError("math domain error")
        with np.errstate(all="ignore"):
            v = float(ufunc(x))
        if math.isfinite(x) and math.isinf(v):
            raise OverflowError("math range error")
        return v

    return f


_sin = _libm(np.sin, math.isfinite)
_tan = _libm(np.tan, math.isfinite)
_exp = _libm(np.exp, lambda x: True)
_log = _libm(np.log, lambda x: x > 0.0)


def _pow(x, k):
    """x ** k for a float x and an int k, its value from np.power."""
    with np.errstate(all="ignore"):
        v = float(np.power(x, float(k)))
    if math.isfinite(x) and not math.isfinite(v):
        raise OverflowError("Numerical result out of range")
    return v


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
        return (_pow(a[0], k), _pow(a[1], k))
    lo, hi = abs(a[0]), abs(a[1])
    if a[0] <= 0.0 <= a[1]:
        return (0.0, _pow(max(lo, hi), k))
    m = min(lo, hi)
    return (_pow(m, k), _pow(max(lo, hi), k))


def _iv_sin(a):
    lo, hi = a
    if hi - lo >= _TWO_PI:
        return (-1.0, 1.0)
    # max of sin at pi/2 + 2k*pi, min at -pi/2 + 2k*pi
    has_max = math.floor((hi - math.pi / 2) / _TWO_PI) >= math.ceil((lo - math.pi / 2) / _TWO_PI)
    has_min = math.floor((hi + math.pi / 2) / _TWO_PI) >= math.ceil((lo + math.pi / 2) / _TWO_PI)
    vals = (_sin(lo), _sin(hi))
    return (
        -1.0 if has_min else min(vals),
        1.0 if has_max else max(vals),
    )


def _iv_tan(a):
    lo, hi = a
    # poles at pi/2 + k*pi
    if math.floor((hi - math.pi / 2) / math.pi) >= math.ceil((lo - math.pi / 2) / math.pi):
        raise EvalError("interval tan across a pole")
    return (_tan(lo), _tan(hi))


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
            return (_exp(a[0]), _exp(a[1]))
        if e.fn == "log":
            if a[0] <= 0.0:
                raise EvalError("interval log touches non-positive values")
            return (_log(a[0]), _log(a[1]))
        if e.fn == "sqrt":
            if a[0] < 0.0:
                raise EvalError("interval sqrt touches negative values")
            return (math.sqrt(a[0]), math.sqrt(a[1]))
    raise EvalError(f"cannot interval-evaluate node {type(e).__name__}")


def ladder_outcome(exprs, bounds):
    """The bits of each expression's enclosure over the box, or None when
    the box cannot certify: some enclosure raises, as the ladder does at a
    pole, a domain edge or an overflow, or has a NaN bound."""
    try:
        ivs = [recursive_interval_eval(e, bounds) for e in exprs]
    except (EvalError, OverflowError, ValueError, ZeroDivisionError):
        return None
    if any(math.isnan(v) for iv in ivs for v in iv):
        return None
    return [(lo.hex(), hi.hex()) for lo, hi in ivs]


def enclose_outcomes(exprs, boxes):
    """ladder_outcome's form of enclose's result, for each of boxes."""
    lo, hi, bad = enclose(compile_exprs(exprs), [[l for l, _ in b] for b in boxes],
                          [[h for _, h in b] for b in boxes])
    return [None if bad[i] else [(float(l).hex(), float(h).hex()) for l, h in zip(lo[i], hi[i])]
            for i in range(len(boxes))]


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
_boxes = st.lists(st.tuples(st.tuples(_ends, _ends), st.tuples(_ends, _ends)).map(
    lambda b: [tuple(sorted(side)) for side in b]), min_size=1, max_size=4)


@seed(20240817)
@settings(max_examples=500, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=2), _boxes)
def test_enclose_matches_the_recursive_ladder_bit_for_bit(exprs, boxes):
    assert enclose_outcomes(exprs, boxes) == [ladder_outcome(exprs, b) for b in boxes]


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=2), _boxes)
def test_a_batch_of_boxes_encloses_as_each_box_alone(exprs, boxes):
    prog = compile_exprs(exprs)
    lo = np.array([[l for l, _ in b] for b in boxes])
    hi = np.array([[h for _, h in b] for b in boxes])
    together = enclose(prog, lo, hi)
    for i in range(len(boxes)):
        alone = enclose(prog, lo[i:i + 1], hi[i:i + 1])
        assert [a.tobytes() for a in alone] == [t[i:i + 1].tobytes() for t in together]


def test_deep_enclosures_need_no_recursion():
    e = Var(1)
    for _ in range(10_000):
        e = Call("sin", e)
    lo, hi, bad = enclose(compile_exprs([e]), [[0.1]], [[0.2]])
    assert not bad[0]
    assert 0.0 < lo[0, 0] < hi[0, 0] < 0.2
