"""Coordinate expression trees: parsing, printing, evaluation, derivatives.

Grammar (whitespace insignificant, numbers are decimal literals):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' integer)?
    unary  := '-'? atom
    atom   := number | 'pi' | 'e' | ident | func '(' expr ')' | '(' expr ')'
    ident  := 'x' digit+
    func   := 'sin' | 'cos' | 'tan' | 'exp' | 'log' | 'sqrt'

Exponents are constant integer literals only; a general x^y does not parse.
That keeps every expression smooth wherever its denominators, logs, and
square roots are defined.

parse_expr builds a structurally faithful tree (no simplification), and
to_string prints it back so that parsing the output reproduces an equal
tree. Evaluation works on floats or on Dual numbers, which carry a gradient
vector through every operation; that is how Jacobians are computed exactly.
That scalar walk is the single-point API. The check suites instead compile
their expressions into a shared straight-line program (compile_exprs) and
run it over all sample points at once (run_program), with the same
arithmetic and the same domain errors, reported per sample.
The folding constructors (fold_add and friends) do light constant folding
and are used by symbolic differentiation and substitution, never by the
parser.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError, UnknownSymbol


class Expr:
    """Base class for expression nodes. Nodes are immutable."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Const(Expr):
    name: str  # 'pi' or 'e'


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 1-based: x1, x2, ...


@dataclass(frozen=True)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


_CONSTS = {"pi": math.pi, "e": math.e}
_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt")


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
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Const):
        return _CONSTS[e.name]
    if isinstance(e, Var):
        if e.index > len(env):
            raise EvalError(f"no value for x{e.index}: point has {len(env)} coordinates")
        return env[e.index - 1]
    if isinstance(e, Neg):
        return -eval_expr(e.a, env)
    if isinstance(e, Add):
        return eval_expr(e.a, env) + eval_expr(e.b, env)
    if isinstance(e, Sub):
        return eval_expr(e.a, env) - eval_expr(e.b, env)
    if isinstance(e, Mul):
        return eval_expr(e.a, env) * eval_expr(e.b, env)
    if isinstance(e, Div):
        num = eval_expr(e.a, env)
        den = eval_expr(e.b, env)
        if _v(den) == 0.0:
            raise EvalError("division by zero")
        return num / den
    if isinstance(e, Pow):
        return _int_pow(eval_expr(e.base, env), e.exponent)
    if isinstance(e, Call):
        return _call(e.fn, eval_expr(e.arg, env))
    raise EvalError(f"unknown node {type(e).__name__}")


def max_var_index(e: Expr) -> int:
    """Largest variable index used, 0 if the expression is constant."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Neg):
        return max_var_index(e.a)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var_index(e.a), max_var_index(e.b))
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, Call):
        return max_var_index(e.arg)
    return 0


# ---------------------------------------------------------------------------
# Batched evaluation. compile_exprs hash-conses a list of expressions into
# one straight-line program: each structurally distinct subtree is one
# slot, keyed by (op, child slots, literal), so shared subexpressions are
# computed once. run_program evaluates the program once over all sample
# points, on (n,) value arrays and, in vector forward mode, (n, m) gradient
# arrays. It follows eval_expr and the Dual rules operation by operation;
# where eval_expr would raise, the sample is marked failed instead.

_LIT, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}


@dataclass(frozen=True)
class Program:
    """Straight-line code: slot s is (op, a, b, literal) over slots < s."""

    code: tuple
    outputs: tuple  # the slot of each compiled expression, in order


def compile_exprs(exprs) -> Program:
    """One program for all of exprs, common subexpressions shared.

    The walk is iterative, so deep trees cannot hit the recursion limit,
    and the table holds only unique nodes. Slots come in post-order of
    first occurrence, which is the order eval_expr meets them; the first
    failing slot of a sample is therefore the one eval_expr raises at.
    """
    table: dict = {}
    outputs = []
    for root in exprs:
        done: list = []  # slots of finished subtrees
        todo: list = [root]  # nodes to expand, and (op, literal, binary) build markers
        while todo:
            node = todo.pop()
            t = type(node)
            if t is Num:
                key = (_LIT, -1, math.copysign(1.0, node.value), node.value)  # 0.0 != -0.0
            elif t is Var:
                key = (_VAR, -1, -1, node.index)
            elif t is Const:
                key = (_LIT, -1, 1.0, _CONSTS[node.name])
            elif t is tuple:  # the operands are done; build the node
                op, lit, binary = node
                b = done.pop() if binary else -1
                key = (op, done.pop(), b, lit)
            else:
                if t is Neg:
                    todo += ((_NEG, None, False), node.a)
                elif t is Pow:
                    todo += ((_POW, node.exponent, False), node.base)
                elif t is Call:
                    todo += ((_CALL, node.fn, False), node.arg)
                elif t in _BINARY:
                    todo += ((_BINARY[t], None, True), node.b, node.a)
                else:
                    raise EvalError(f"unknown node {t.__name__}")
                continue
            done.append(table.setdefault(key, len(table)))
        outputs.append(done.pop())
    return Program(tuple(table), tuple(outputs))


class Batch:
    """A program's outputs at n points, and the samples where it failed.

    values is (n, k), one column per compiled expression; grads is
    (n, k, m) in gradient mode, else None. bad marks the samples where
    eval_expr would raise, and error(i) is the EvalError it would raise.
    Values and gradients at bad samples are meaningless.
    """

    __slots__ = ("values", "grads", "bad", "_cause", "_whys")

    def __init__(self, values, grads, cause, whys):
        self.values = values
        self.grads = grads
        self.bad = cause >= 0
        self._cause = cause
        self._whys = whys

    def error(self, i: int) -> EvalError:
        why = self._whys[self._cause[i]]
        return EvalError(why if isinstance(why, str) else why(i))


def run_program(prog: Program, points, grad: bool = False) -> Batch:
    """Evaluate prog at each row of points, an (n, m) array: variable xi
    takes column i-1. With grad, also carry d/dx1..d/dxm of every slot."""
    X = np.asarray(points, dtype=float)
    n, m = X.shape
    vals: list = []
    ders: list = []  # None for slots that depend on no variable
    cause = np.full(n, -1)  # per sample, its first failure in whys
    whys: list = []  # failure messages, or functions of the sample index

    def fail(mask, message):
        new = mask & (cause < 0)
        if new.any():
            cause[new] = len(whys)
            whys.append(message)

    with np.errstate(all="ignore"):
        for op, a, b, lit in prog.code:
            d = None
            if op == _LIT:
                v = np.full(n, lit, dtype=float)
            elif op == _VAR:
                if lit > m:
                    fail(True, f"no value for x{lit}: point has {m} coordinates")
                    v = np.full(n, np.nan)
                else:
                    v = X[:, lit - 1]
                    if grad:
                        d = np.zeros((n, m))
                        d[:, lit - 1] = 1.0
            else:
                x, dx = vals[a], ders[a]
                if op == _NEG:
                    v = -x
                    d = None if dx is None else -dx
                elif op == _POW:
                    v, d = _pow_batch(x, dx, lit, fail)
                elif op == _CALL:
                    v, d = _call_batch(lit, x, dx, fail)
                else:
                    y, dy = vals[b], ders[b]
                    v, d = _binary_batch(op, x, dx, y, dy, fail)
            vals.append(v)
            ders.append(d)
    values = np.empty((n, len(prog.outputs)))
    grads = np.zeros((n, len(prog.outputs), m)) if grad else None
    for k, s in enumerate(prog.outputs):
        values[:, k] = vals[s]
        if grad and ders[s] is not None:
            grads[:, k, :] = ders[s]
    return Batch(values, grads, cause, whys)


def _binary_batch(op, x, dx, y, dy, fail):
    if op == _ADD:
        v = x + y
        d = dx if dy is None else dy if dx is None else dx + dy
    elif op == _SUB:
        v = x - y
        d = dx if dy is None else -dy if dx is None else dx - dy
    elif op == _MUL:
        v = x * y
        if dx is None:
            d = None if dy is None else x[:, None] * dy
        else:
            d = y[:, None] * dx if dy is None else x[:, None] * dy + y[:, None] * dx
    else:
        fail(y == 0.0, "division by zero")
        v = x / y
        if dy is None:
            d = None if dx is None else dx / y[:, None]
        elif dx is None:
            d = (-v / y)[:, None] * dy
        else:
            d = (dx - v[:, None] * dy) / y[:, None]
    return v, d


def _pow_batch(x, dx, k, fail):
    if k < 0:
        fail(x == 0.0, "zero raised to a negative power")
    finite = np.isfinite(x)
    v = np.power(x, float(k))
    fail(finite & ~np.isfinite(v), "power overflow")
    if dx is None:
        return v, None
    if k == 0:
        return v, 0.0 * dx
    p = np.power(x, float(k - 1))
    fail(finite & ~np.isfinite(p), "power overflow")
    return v, (k * p)[:, None] * dx


def _call_batch(fn, x, dx, fail):
    if fn in ("sin", "cos", "tan"):
        fail(np.isinf(x), lambda i: f"{fn} of infinite value {float(x[i])}")
    if fn == "sin":
        return np.sin(x), None if dx is None else np.cos(x)[:, None] * dx
    if fn == "cos":
        return np.cos(x), None if dx is None else (-np.sin(x))[:, None] * dx
    if fn == "tan":
        c = np.cos(x)
        fail(c == 0.0, "tan at a pole")
        return np.tan(x), None if dx is None else dx / (c * c)[:, None]
    if fn == "exp":
        ev = np.exp(x)
        fail(np.isfinite(x) & (ev == np.inf), "exp overflow")
        return ev, None if dx is None else ev[:, None] * dx
    if fn == "log":
        fail(x <= 0.0, lambda i: f"log of non-positive value {float(x[i])}")
        return np.log(x), None if dx is None else dx / x[:, None]
    if fn == "sqrt":
        fail(x < 0.0, lambda i: f"sqrt of negative value {float(x[i])}")
        rt = np.sqrt(x)
        if dx is None:
            return rt, None
        fail(rt == 0.0, "sqrt not differentiable at zero")
        return rt, dx / (2.0 * rt)[:, None]
    raise EvalError(f"unknown function {fn}")


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser. Positions are 1-based columns.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            pos = n - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(_Token("num", m.group("num"), m.start("num") + 1))
        elif m.lastgroup == "name":
            tokens.append(_Token("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(_Token(m.group("op"), m.group("op"), m.start("op") + 1))
        i = m.end()
    tokens.append(_Token("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
            raise ParseError(f"expected '{kind}', found {what}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected '{tok.text}' after expression", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            e = Add(e, rhs) if op.kind == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            e = Mul(e, rhs) if op.kind == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        e = self.unary()
        if self.peek().kind == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
            raise ParseError(f"exponent must be an integer literal, found {what}", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def unary(self) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _CONSTS:
                return Const(name)
            if name in _FUNCS:
                self.expect("(")
                arg = self.expr()
                if self.peek().kind == ",":
                    raise ParseError(f"{name} takes one argument", self.peek().pos)
                self.expect(")")
                return Call(name, arg)
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                idx = int(m.group(1))
                if idx == 0:
                    raise UnknownSymbol("variables are numbered from x1", tok.pos)
                return Var(idx)
            raise UnknownSymbol(f"unknown identifier '{name}'", tok.pos)
        what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
        raise ParseError(f"expected an operand, found {what}", tok.pos)


def parse_expr(text: str) -> Expr:
    """Parse a DSL expression; ParseError/UnknownSymbol carry the column."""
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 1)
    return _Parser(text).parse()


def _as_expr(c) -> Expr:
    return c if isinstance(c, Expr) else parse_expr(c)


# ---------------------------------------------------------------------------
# Printing. Minimal parentheses, chosen so parse(to_string(e)) == e.


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _is_atomic(e: Expr) -> bool:
    return isinstance(e, (Const, Var, Call)) or (isinstance(e, Num) and e.value >= 0)


def to_string(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value) if e.value >= 0 else f"(-{_fmt_num(-e.value)})"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    if isinstance(e, Neg):
        inner = to_string(e.a) if _is_atomic(e.a) else f"({to_string(e.a)})"
        return f"-{inner}"
    if isinstance(e, Pow):
        base = e.base
        if _is_atomic(base) or (isinstance(base, Neg) and _is_atomic(base.a)):
            b = to_string(base)
        else:
            b = f"({to_string(base)})"
        return f"{b}^{e.exponent}"
    if isinstance(e, (Mul, Div)):
        a, b = e.a, e.b
        left_plain = _is_atomic(a) or isinstance(a, (Mul, Div, Pow, Neg, Num))
        left = to_string(a) if left_plain else f"({to_string(a)})"
        right = f"({to_string(b)})" if isinstance(b, (Add, Sub, Mul, Div)) else to_string(b)
        op = "*" if isinstance(e, Mul) else "/"
        return f"{left} {op} {right}"
    if isinstance(e, (Add, Sub)):
        a, b = e.a, e.b
        left = to_string(a)
        right_needs = isinstance(b, (Add, Sub)) or isinstance(b, Neg)
        right = f"({to_string(b)})" if right_needs else to_string(b)
        op = "+" if isinstance(e, Add) else "-"
        return f"{left} {op} {right}"
    raise EvalError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# Folding constructors: light constant folding for derivative and
# substitution output. Never used by the parser.


def _as_num(e: Expr):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Neg) and isinstance(e.a, Num):
        return -e.a.value
    return None


def _num(v: float) -> Expr:
    return Num(v) if v >= 0 else Neg(Num(-v))


def num_literal(v: float) -> Expr:
    """A literal node for v; negatives become Neg(Num) as the grammar would."""
    return _num(float(v))


def fold_add(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if va is not None and vb is not None:
        return _num(va + vb)
    if va == 0:
        return b
    if vb == 0:
        return a
    return Add(a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if va is not None and vb is not None:
        return _num(va - vb)
    if vb == 0:
        return a
    if va == 0:
        return fold_neg(b)
    return Sub(a, b)


def fold_neg(a: Expr) -> Expr:
    va = _as_num(a)
    if va is not None:
        return _num(-va)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def fold_mul(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if va is not None and vb is not None:
        return _num(va * vb)
    if va == 0 or vb == 0:
        return Num(0.0)
    if va == 1:
        return b
    if vb == 1:
        return a
    if va == -1:
        return fold_neg(b)
    if vb == -1:
        return fold_neg(a)
    return Mul(a, b)


def fold_div(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if vb is not None and vb == 0:
        raise EvalError("division by constant zero")
    if va is not None and vb is not None:
        return _num(va / vb)
    if va == 0:
        return Num(0.0)
    if vb == 1:
        return a
    return Div(a, b)


def fold_pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return base
    vb = _as_num(base)
    if vb is not None and not (vb == 0 and k < 0):
        return _num(vb**k)
    return Pow(base, k)


def diff(e: Expr, index: int) -> Expr:
    """Symbolic partial derivative with respect to x{index}, lightly folded."""
    if isinstance(e, (Num, Const)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0) if e.index == index else Num(0.0)
    if isinstance(e, Neg):
        return fold_neg(diff(e.a, index))
    if isinstance(e, Add):
        return fold_add(diff(e.a, index), diff(e.b, index))
    if isinstance(e, Sub):
        return fold_sub(diff(e.a, index), diff(e.b, index))
    if isinstance(e, Mul):
        return fold_add(fold_mul(diff(e.a, index), e.b), fold_mul(e.a, diff(e.b, index)))
    if isinstance(e, Div):
        num = fold_sub(fold_mul(diff(e.a, index), e.b), fold_mul(e.a, diff(e.b, index)))
        return fold_div(num, fold_pow(e.b, 2))
    if isinstance(e, Pow):
        inner = diff(e.base, index)
        return fold_mul(fold_mul(_num(float(e.exponent)), fold_pow(e.base, e.exponent - 1)), inner)
    if isinstance(e, Call):
        u, du = e.arg, diff(e.arg, index)
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


def subst(e: Expr, replacements) -> Expr:
    """Replace x{i} by replacements[i-1] throughout; folds as it goes.

    Variables with indices beyond the replacement list are an error, since
    substitution is used for composing maps where every input must bind.
    """
    if isinstance(e, (Num, Const)):
        return e
    if isinstance(e, Var):
        if e.index > len(replacements):
            raise EvalError(f"substitution has no binding for x{e.index}")
        return replacements[e.index - 1]
    if isinstance(e, Neg):
        return fold_neg(subst(e.a, replacements))
    if isinstance(e, Add):
        return fold_add(subst(e.a, replacements), subst(e.b, replacements))
    if isinstance(e, Sub):
        return fold_sub(subst(e.a, replacements), subst(e.b, replacements))
    if isinstance(e, Mul):
        return fold_mul(subst(e.a, replacements), subst(e.b, replacements))
    if isinstance(e, Div):
        return fold_div(subst(e.a, replacements), subst(e.b, replacements))
    if isinstance(e, Pow):
        return fold_pow(subst(e.base, replacements), e.exponent)
    if isinstance(e, Call):
        return Call(e.fn, subst(e.arg, replacements))
    raise EvalError(f"cannot substitute into node {type(e).__name__}")
