"""Expression parsing, printing, evaluation, and symbolic derivatives."""

import math
from dataclasses import make_dataclass

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx.errors import EvalError, ParseError, ShapeMismatch, UnknownSymbol
from vbx.expr import (
    Add,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    as_exprs,
    diff,
    eval_expr,
    fold_add,
    fold_div,
    fold_mul,
    fold_pow,
    max_var_index,
    num_literal,
    parse_expr,
    subst,
    to_string,
)

EVAL_TOL = 1e-12
DIFF_TOL = 1e-6


def test_literals_and_constants():
    assert eval_expr(parse_expr("2"), []) == 2.0
    assert eval_expr(parse_expr("2.5"), []) == 2.5
    assert eval_expr(parse_expr("pi"), []) == pytest.approx(math.pi, abs=0)
    assert eval_expr(parse_expr("e"), []) == pytest.approx(math.e, abs=0)


def test_variables_are_one_based():
    assert eval_expr(parse_expr("x1"), [7.0]) == 7.0
    assert eval_expr(parse_expr("x2"), [1.0, 5.0]) == 5.0
    with pytest.raises(UnknownSymbol):
        parse_expr("x0")


def test_arithmetic_against_python():
    cases = {
        "1 + 2*3": 7.0,
        "(1 + 2)*3": 9.0,
        "2 - 3 - 4": -5.0,
        "12/4/3": 1.0,
        "2^3": 8.0,
        "2^-2": 0.25,
        "-2^2": 4.0,
        "-(2^2)": -4.0,
        "x1^2 + 2*x1 + 1": 16.0,
    }
    for text, want in cases.items():
        assert eval_expr(parse_expr(text), [3.0]) == pytest.approx(want, abs=EVAL_TOL)


def test_power_base_binds_the_sign():
    # The grammar attaches a leading minus to the base, so -x^2 is (-x)^2.
    e = parse_expr("-x1^2")
    assert isinstance(e, Pow) and isinstance(e.base, Neg)
    assert eval_expr(e, [3.0]) == 9.0
    assert eval_expr(parse_expr("-(x1^2)"), [3.0]) == -9.0


def test_functions():
    assert eval_expr(parse_expr("sin(pi/2)"), []) == pytest.approx(1.0, abs=EVAL_TOL)
    assert eval_expr(parse_expr("cos(0)"), []) == 1.0
    assert eval_expr(parse_expr("tan(pi/4)"), []) == pytest.approx(1.0, abs=EVAL_TOL)
    assert eval_expr(parse_expr("exp(1)"), []) == pytest.approx(math.e, abs=EVAL_TOL)
    assert eval_expr(parse_expr("log(e)"), []) == pytest.approx(1.0, abs=EVAL_TOL)
    assert eval_expr(parse_expr("sqrt(9)"), []) == 3.0


def test_parse_errors_carry_columns():
    with pytest.raises(ParseError) as err:
        parse_expr("x1 +")
    assert err.value.position == 5
    assert "column 5" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_expr("2 ** 3")
    assert err.value.position == 4

    with pytest.raises(ParseError):
        parse_expr("(1 + 2")
    with pytest.raises(ParseError):
        parse_expr("sin(x1, x2)")
    with pytest.raises(ParseError):
        parse_expr("2^x1")  # exponent must be a literal integer
    with pytest.raises(ParseError):
        parse_expr("")
    with pytest.raises(UnknownSymbol):
        parse_expr("foo(x1)")
    with pytest.raises(UnknownSymbol):
        parse_expr("y + 1")


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1/x1"), [0.0])
    with pytest.raises(EvalError):
        eval_expr(parse_expr("log(x1)"), [-1.0])
    with pytest.raises(EvalError):
        eval_expr(parse_expr("sqrt(x1)"), [-4.0])


def test_eval_needs_enough_coordinates():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("x3"), [1.0, 2.0])


def test_to_string_round_trips_known_shapes():
    texts = [
        "x1 + x2*x3",
        "-(x1^2)",
        "-x1^2",
        "1/(1 + x1^2)^2",
        "sin(x1)*cos(x2) - tan(x3/2)",
        "exp(-(x1^2)/2)",
        "sqrt(x1 + 2)",
        "x1 - (x2 - x3)",
        "(x1 + x2)^3",
        "-1/(1/x1)^2",
    ]
    for text in texts:
        e = parse_expr(text)
        assert parse_expr(to_string(e)) == e, text


# A tiny recursive strategy over the expression grammar, kept shallow so
# values stay finite and derivatives stay testable.
def _exprs(depth=3):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=5).map(lambda n: Num(float(n))),
        st.sampled_from([Var(1), Var(2), Const("pi")]),
    )
    if depth == 0:
        return leaves

    def combine(children):
        a, b = children
        return st.sampled_from([Add(a, b), Mul(a, b), Neg(a), Pow(a, 2),
                                Call("sin", a), Call("cos", b)])

    return st.one_of(leaves,
                     st.tuples(_exprs(depth - 1), _exprs(depth - 1)).flatmap(combine))


@seed(20240817)
@settings(max_examples=150, deadline=None)
@given(_exprs())
def test_print_parse_is_identity(e):
    assert parse_expr(to_string(e)) == e


@seed(20240817)
@settings(max_examples=100, deadline=None)
@given(_exprs(), st.floats(-2, 2), st.floats(-2, 2))
def test_symbolic_derivative_matches_central_difference(e, a, b):
    h = 1e-5
    x = [a, b]
    try:
        want = (eval_expr(e, [a + h, b]) - eval_expr(e, [a - h, b])) / (2 * h)
        got = eval_expr(diff(e, 1), x)
    except EvalError:
        return
    assert got == pytest.approx(want, abs=1e-4 * max(1.0, abs(want)))


def test_diff_known_derivatives():
    e = parse_expr("x1^3 + sin(x1)*x2")
    de = diff(e, 1)
    for x in (0.3, 1.7, -2.2):
        want = 3 * x**2 + math.cos(x) * 5.0
        assert eval_expr(de, [x, 5.0]) == pytest.approx(want, abs=1e-12)
    assert eval_expr(diff(e, 2), [2.0, 0.0]) == pytest.approx(math.sin(2.0), abs=1e-15)


def test_diff_quotient_and_chain():
    e = parse_expr("exp(x1^2)/x1")
    de = diff(e, 1)
    x = 1.3
    want = math.exp(x * x) * (2 * x * x - 1) / (x * x)
    assert eval_expr(de, [x]) == pytest.approx(want, rel=1e-12)


def test_subst_binds_positionally():
    e = parse_expr("x1 + x2^2")
    out = subst(e, [parse_expr("x1*x1"), parse_expr("x1 + 1")])
    assert eval_expr(out, [2.0]) == pytest.approx(4.0 + 9.0, abs=0)


def test_subst_requires_every_variable_bound():
    with pytest.raises(EvalError):
        subst(parse_expr("x2"), [parse_expr("x1")])


def test_num_literal_wraps_negatives():
    assert num_literal(3.0) == Num(3.0)
    assert num_literal(-2.0) == Neg(Num(2.0))


def test_max_var_index():
    assert max_var_index(parse_expr("x1 + sin(x4)*x2")) == 4
    assert max_var_index(parse_expr("3 + pi")) == 0


# Each node class as a plain frozen dataclass with the same fields: their
# generated (recursive) __eq__ and __hash__ are the reference for Expr's.
REFERENCE = {cls: make_dataclass(cls.__name__, list(cls.__match_args__), frozen=True)
             for cls in (Num, Const, Var, Neg, Add, Sub, Mul, Div, Pow, Call)}


def rebuilt(e, classes=None):
    """A fresh copy of the tree e, in the reference classes if given."""
    fields = [getattr(e, name) for name in e.__match_args__]
    cls = type(e) if classes is None else classes[type(e)]
    return cls(*(rebuilt(v, classes) if isinstance(v, Expr) else v for v in fields))


def _small_exprs(depth=3):
    leaves = st.sampled_from([Num(0.0), Num(-0.0), Num(1.0), Num(1), Var(1), Var(2),
                              Const("pi"), Const("e")])
    if depth == 0:
        return leaves

    def combine(children):
        a, b = children
        return st.sampled_from([Neg(a), Add(a, b), Sub(a, b), Mul(a, b), Div(a, b),
                                Add(b, a), Pow(a, 2), Pow(a, -1), Call("sin", a),
                                Call("cos", a)])

    return st.one_of(leaves, st.tuples(_small_exprs(depth - 1),
                                       _small_exprs(depth - 1)).flatmap(combine))


@seed(20240817)
@settings(max_examples=400, deadline=None)
@given(_small_exprs(), _small_exprs())
def test_equality_and_hash_are_those_of_the_dataclasses(a, b):
    ra, rb = rebuilt(a, REFERENCE), rebuilt(b, REFERENCE)
    assert (a == b) == (ra == rb)
    assert (a != b) == (ra != rb)
    assert hash(a) == hash(ra)
    assert rebuilt(a) == a and hash(rebuilt(a)) == hash(a)
    assert (a == 1.0) is False and (a != "x1") is True


def test_equality_treats_signed_zeros_and_int_literals_like_the_dataclasses():
    assert Num(0.0) == Num(-0.0) and hash(Num(0.0)) == hash(Num(-0.0))
    assert Num(1) == Num(1.0) and Add(Var(1), Num(2)) == Add(Var(1), Num(2.0))
    assert Add(Var(1), Var(2)) != Sub(Var(1), Var(2))
    assert Pow(Var(1), 2) != Pow(Var(1), 3)


@seed(20240817)
@settings(max_examples=200, deadline=None)
@given(_small_exprs())
def test_repr_is_that_of_the_dataclasses(a):
    assert repr(a) == repr(rebuilt(a, REFERENCE))


def test_repr_of_a_deep_tree_does_not_recurse():
    e = Var(1)
    for _ in range(1500):
        e = Call("sin", e)
    assert repr(e) == "Call(fn='sin', arg=" * 1500 + "Var(index=1)" + ")" * 1500


def test_deep_and_shared_trees_compare_and_hash_without_recursion():
    def chain(depth):
        e = Var(1)
        for _ in range(depth):
            e = Call("sin", e)
        return e

    a, b = chain(10_000), chain(10_000)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Call("cos", a.arg)

    def doubling(n):  # 2^(n+1) - 1 tree nodes, n + 1 distinct ones
        e = Var(1)
        for _ in range(n):
            e = Add(e, e)
        return e

    assert doubling(64) == doubling(64) and doubling(64) != doubling(63)
    assert hash(doubling(64)) == hash(doubling(64))


def test_constant_folds_past_the_float_range_keep_their_node():
    tiny, huge = parse_expr("1e-320"), parse_expr("1e200")
    assert fold_div(Num(1.0), tiny) == Div(Num(1.0), tiny)
    assert fold_mul(huge, huge) == Mul(huge, huge)
    assert fold_add(Num(1.7976931348623157e308), Num(1.7976931348623157e308)) == Add(
        Num(1.7976931348623157e308), Num(1.7976931348623157e308))
    assert fold_pow(huge, 2) == Pow(huge, 2)  # float ** raises OverflowError here
    assert fold_pow(tiny, -2) == Pow(tiny, -2)
    assert to_string(subst(parse_expr("(x1)^2 / x1"), [huge])) == "1e+200^2 / 1e+200"
    assert fold_div(Num(1.0), Num(4.0)) == Num(0.25)  # finite folds still fold


def test_a_number_literal_past_the_float_range_is_a_parse_error():
    with pytest.raises(ParseError, match="number 1e400 is out of range"):
        parse_expr("x1 + 1e400")
    assert parse_expr("1e-400") == Num(0.0)  # underflow to zero is a finite value


def _as_exprs_per_entry(entries, dim, what, error):
    """as_exprs as it validated before: one max_var_index walk per entry."""
    exprs = tuple(e if isinstance(e, Expr) else parse_expr(e) for e in entries)
    for e in exprs:
        k = max_var_index(e)
        if k > dim:
            raise error(f"{what} references x{k} but the dimension is {dim}")
    return exprs


@given(st.lists(st.one_of(_exprs(), st.sampled_from([Var(3), Add(Var(3), Var(1)), "x2 * x3"])),
                max_size=6),
       st.integers(0, 3))
def test_as_exprs_names_the_first_entry_past_the_dimension(entries, dim):
    def outcome(validate, *memo):
        try:
            return validate(entries, dim, "entry", ShapeMismatch, *memo)
        except ShapeMismatch as exc:
            return str(exc)

    want = outcome(_as_exprs_per_entry)
    assert outcome(as_exprs) == want
    memo: dict = {}
    assert outcome(as_exprs, memo) == want
    assert outcome(as_exprs, memo) == want  # a memo filled by a first call


def test_as_exprs_error_messages():
    assert as_exprs(["x1", "x2"], 2, "entry", ShapeMismatch) == (Var(1), Var(2))
    with pytest.raises(ShapeMismatch, match=r"^entry references x3 but the dimension is 1$"):
        as_exprs(["x1", "sin(x3) + x2", "x4"], 1, "entry", ShapeMismatch)
    with pytest.raises(ShapeMismatch, match=r"^row references x2 but the dimension is 0$"):
        as_exprs(["1", "x2 * x1"], 0, "row", lambda m: ShapeMismatch(m))
