"""The isinstance-ladder derivative and substitution, kept as the oracle
of the table-driven ones.

vbx.expr.diff and subst_all pick each node's rule from a table by its
exact class (_DIFF, _SUBST), and a Call's derivative from a table by its
function (_CHAIN). The walk below is the one they replaced, kept
verbatim: diff tests each node against the grammar's classes in turn,
and subst_all rebuilds a node through _REBUILD, keeping a node of any
other class as it is. On the grammar's nodes both give equal trees, the
same texts and the same EvalError messages; tests compare the two.
"""

from vbx.errors import EvalError
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
    _fold,
    _num,
    fold_add,
    fold_div,
    fold_mul,
    fold_neg,
    fold_pow,
    fold_sub,
)

# How subst, and diff for its linear rules, rebuild a node over new
# operands. Each entry looks its folding constructor up by name when it
# runs, so a rebound name (a tracer's wrapper, say) is the one called.
_REBUILD = {
    Neg: lambda e, k: fold_neg(k[0]),
    Add: lambda e, k: fold_add(k[0], k[1]),
    Sub: lambda e, k: fold_sub(k[0], k[1]),
    Mul: lambda e, k: fold_mul(k[0], k[1]),
    Div: lambda e, k: fold_div(k[0], k[1]),
    Pow: lambda e, k: fold_pow(k[0], e.exponent),
    Call: lambda e, k: Call(e.fn, k[0]),
}


def diff(e: Expr, index: int) -> Expr:
    """Symbolic partial derivative with respect to x{index}, lightly folded.

    The one derivative rule: every Jacobian is built from it. Raises
    EvalError ("division by constant zero") where e divides by a literal
    zero or takes the log of a literal zero: such an e has no value
    anywhere."""

    def visit(e, d):
        if isinstance(e, (Num, Const)):
            return Num(0.0)
        if isinstance(e, Var):
            return Num(1.0) if e.index == index else Num(0.0)
        if isinstance(e, (Neg, Add, Sub)):
            return _REBUILD[type(e)](e, d)
        if isinstance(e, Mul):
            return fold_add(fold_mul(d[0], e.b), fold_mul(e.a, d[1]))
        if isinstance(e, Div):  # (da - (a/b)*db)/b: b is never squared
            return fold_div(fold_sub(d[0], fold_mul(e, d[1])), e.b)
        if isinstance(e, Pow):
            return fold_mul(fold_mul(_num(float(e.exponent)), fold_pow(e.base, e.exponent - 1)),
                            d[0])
        if isinstance(e, Call):
            u, du = e.arg, d[0]
            if e.fn == "sin":
                return fold_mul(Call("cos", u), du)
            if e.fn == "cos":
                return fold_neg(fold_mul(Call("sin", u), du))
            if e.fn == "tan":
                return fold_div(du, fold_pow(Call("cos", u), 2))
            if e.fn == "exp":
                return fold_mul(Call("exp", u), du)
            if e.fn == "log":
                return fold_div(du, u)
            if e.fn == "sqrt":
                return fold_div(du, fold_mul(Num(2.0), Call("sqrt", u)))
        raise EvalError(f"cannot differentiate node {type(e).__name__}")

    return _fold((e,), {}, visit)[0]


def subst(e: Expr, replacements) -> Expr:
    """Replace x{i} by replacements[i-1] throughout; folds as it goes.

    Variables with indices beyond the replacement list are an error, since
    substitution is used for composing maps where every input must bind.
    """
    return subst_all((e,), replacements)[0]


def subst_all(roots, replacements) -> tuple:
    """subst of each of roots, in one walk: a node they share is
    substituted once."""

    def visit(e, s):
        if isinstance(e, Var):
            if e.index > len(replacements):
                raise EvalError(f"substitution has no binding for x{e.index}")
            return replacements[e.index - 1]
        rebuild = _REBUILD.get(type(e))
        return e if rebuild is None else rebuild(e, s)  # Num and Const stay

    return tuple(_fold(roots, {}, visit))
