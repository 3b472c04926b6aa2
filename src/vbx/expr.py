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
tree. There is one evaluator: compile_exprs turns a list of expressions
into a shared straight-line program, and run_program runs it over a batch
of points at once, values as arrays. A point where an operation leaves its
domain fails with the message of the first such operation. eval_expr is
that program run on one point, and enclose runs it on boxes: interval
bounds for a batch of boxes at once. There is one derivative rule, diff:
a Jacobian is the program of a map's symbolic partials, evaluated like any
other expressions, so it is exact to rounding.
The folding constructors (fold_add and friends) do light constant folding
and are used by symbolic differentiation and substitution, never by the
parser.

Expressions are DAGs: a derived bundle's entries reference the same
subtrees many times over. Every walker (compiling, printing, validation,
differentiation, substitution, hashing, repr) visits each distinct node once,
without recursion, equality compares each pair of nodes once, and the
parser reads a repeated parenthesized group, or a repeated entry of one
document, once and returns the same node for it.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError, UnknownSymbol


class Expr:
    """Base class for expression nodes. Nodes are immutable.

    Equality, hashing and repr are those of frozen dataclasses (the fields
    in order, the hash of their tuple), computed without recursion so that
    any depth compares, hashes and prints.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo, seen = [(self, other)], set()  # seen: pairs whose fields are queued
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if a.__class__ is not b.__class__:
                return False
            seen.add((id(a), id(b)))
            for x, y in zip(_fields(a), _fields(b)):
                if isinstance(x, Expr):
                    todo.append((x, y))
                elif not (x is y or x == y):
                    return False
        return True

    def __hash__(self):
        return _fold((self,), {}, _hash_node)[0]

    def __repr__(self):
        return _fold((self,), {}, _repr_node)[0]


@dataclass(frozen=True, eq=False, repr=False)
class Num(Expr):
    value: float


@dataclass(frozen=True, eq=False, repr=False)
class Const(Expr):
    name: str  # 'pi' or 'e'


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    index: int  # 1-based: x1, x2, ...


@dataclass(frozen=True, eq=False, repr=False)
class Neg(Expr):
    a: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Sub(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Div(Expr):
    a: Expr
    b: Expr


@dataclass(frozen=True, eq=False, repr=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, eq=False, repr=False)
class Call(Expr):
    fn: str
    arg: Expr


def _fields(e: Expr) -> tuple:
    return tuple(getattr(e, name) for name in e.__match_args__)


class _Hashed:
    """Stands in a tuple for an operand whose hash is already known."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        self.h = h

    def __hash__(self):
        return self.h


def _hash_node(e: Expr, kids: list) -> int:
    kids = iter(kids)
    return hash(tuple(_Hashed(next(kids)) if isinstance(v, Expr) else v for v in _fields(e)))


def _repr_node(e: Expr, kids: list) -> str:
    kids = iter(kids)
    return f"{type(e).__name__}(" + ", ".join(
        f"{name}={next(kids) if isinstance(v, Expr) else repr(v)}"
        for name, v in zip(e.__match_args__, _fields(e))) + ")"


_CONSTS = {"pi": math.pi, "e": math.e}
_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt")


# ---------------------------------------------------------------------------
# The one walk. A memo maps id(node) to (node, result): holding the node
# keeps its id from being taken by a new object while the memo lives. A
# memo lives for one call, or for the calls on one document when a caller
# passes one in; none is kept between commands.

_OPERANDS = {
    Add: lambda e: (e.a, e.b),
    Sub: lambda e: (e.a, e.b),
    Mul: lambda e: (e.a, e.b),
    Div: lambda e: (e.a, e.b),
    Neg: lambda e: (e.a,),
    Pow: lambda e: (e.base,),
    Call: lambda e: (e.arg,),
}


def _operands(e) -> tuple:
    get = _OPERANDS.get(type(e))
    return () if get is None else get(e)


def _fold(roots, memo: dict, visit) -> list:
    """visit(node, results of its operands) once per distinct node under
    roots whose id is not in memo, operands first and left before right,
    roots in order: the order in which a recursive walk first finishes each
    node, so the first node to raise is the one it would raise at. Returns
    the results of the roots."""
    roots = tuple(roots)
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            kids = _operands(node)
            todo = [k for k in kids if id(k) not in memo]
            if todo:
                stack += reversed(todo)
                continue
            stack.pop()
            memo[id(node)] = node, visit(node, [memo[id(k)][1] for k in kids])
    return [memo[id(r)][1] for r in roots]


def _max_var(e: Expr, operands: list) -> int:
    return e.index if isinstance(e, Var) else max(operands, default=0)


def max_var_index(e: Expr, memo: dict | None = None) -> int:
    """Largest variable index used, 0 if the expression is constant.

    memo may be shared by the calls that validate one document."""
    return _fold((e,), {} if memo is None else memo, _max_var)[0]


# ---------------------------------------------------------------------------
# Batched evaluation. compile_exprs hash-conses a list of expressions into
# one straight-line program: each structurally distinct subtree is one
# slot, keyed by (op, child slots, literal), so shared subexpressions are
# computed once. run_program evaluates the program once over all sample
# points, on (n,) value arrays. Where an operation leaves its domain
# (division by zero, log of a non-positive number, overflow, ...) the
# sample is marked failed, with the message of its first failing
# operation, and computing goes on.

_LIT, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)
_BINARY = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}


@dataclass(frozen=True)
class Program:
    """Straight-line code: slot s is (op, a, b, literal) over slots < s."""

    code: tuple
    outputs: tuple  # the slot of each compiled expression, in order


def compile_exprs(exprs) -> Program:
    """One program for all of exprs, common subexpressions shared.

    Each distinct node is visited once, and the table holds only unique
    structures. Slots come in post-order of first occurrence: the order in
    which a walk of the expressions, one after another, first finishes each
    node, so a sample's first failing slot is the node such a walk would
    fail at first.
    """
    table: dict = {}

    def visit(node, slots):
        t = type(node)
        if t is Num:
            key = (_LIT, -1, math.copysign(1.0, node.value), node.value)  # 0.0 != -0.0
        elif t is Var:
            key = (_VAR, -1, -1, node.index)
        elif t is Const:
            key = (_LIT, -1, 1.0, _CONSTS[node.name])
        elif t is Neg:
            key = (_NEG, slots[0], -1, None)
        elif t is Pow:
            key = (_POW, slots[0], -1, node.exponent)
        elif t is Call:
            key = (_CALL, slots[0], -1, node.fn)
        elif t in _BINARY:
            key = (_BINARY[t], slots[0], slots[1], None)
        else:
            raise EvalError(f"unknown node {t.__name__}")
        return table.setdefault(key, len(table))

    outputs = _fold(exprs, {}, visit)
    return Program(tuple(table), tuple(outputs))


def tree_size(prog: Program) -> int:
    """Nodes of prog's outputs counted as trees: a shared subtree once per
    occurrence. A slot's tree is itself and its operands' trees."""
    size: list = []
    for op, a, b, _ in prog.code:  # a literal's b is its sign, not a slot
        kids = (a, b) if _ADD <= op <= _DIV else (a,) if op > _VAR else ()
        size.append(1 + sum(size[k] for k in kids))
    return sum(size[s] for s in prog.outputs)


class Batch:
    """A program's outputs at n points, and the samples where it failed.

    values is (n, k), one column per compiled expression. bad marks the
    samples where an operation failed, and error(i) is the EvalError of the
    first that did. Values at bad samples are meaningless.
    """

    __slots__ = ("values", "bad", "_cause", "_whys")

    def __init__(self, values, cause, whys):
        self.values = values
        self.bad = cause >= 0
        self._cause = cause
        self._whys = whys

    def error(self, i: int) -> EvalError:
        why = self._whys[self._cause[i]]
        return EvalError(why if isinstance(why, str) else why(i))


def run_program(prog: Program, points) -> Batch:
    """Evaluate prog at each row of points, an (n, m) array: variable xi
    takes column i-1."""
    X = np.asarray(points, dtype=float)
    n, m = X.shape
    vals: list = []
    cause = np.full(n, -1)  # per sample, its first failure in whys
    whys: list = []  # failure messages, or functions of the sample index

    def fail(mask, message):
        new = mask & (cause < 0)
        if new.any():
            cause[new] = len(whys)
            whys.append(message)

    with np.errstate(all="ignore"):
        for op, a, b, lit in prog.code:
            if op == _LIT:
                v = np.full(n, lit, dtype=float)
            elif op == _VAR:
                if lit > m:
                    fail(True, f"no value for x{lit}: point has {m} coordinates")
                    v = np.full(n, np.nan)
                else:
                    v = X[:, lit - 1]
            elif op == _NEG:
                v = -vals[a]
            elif op == _POW:
                v = _pow_batch(vals[a], lit, fail)
            elif op == _CALL:
                v = _func_batch(lit, vals[a], fail)
            else:
                v = _binary_batch(op, vals[a], vals[b], fail)
            vals.append(v)
    values = np.empty((n, len(prog.outputs)))
    for k, s in enumerate(prog.outputs):
        values[:, k] = vals[s]
    return Batch(values, cause, whys)


def eval_expr(e: Expr, env) -> float:
    """The value of e with env[i-1] bound to variable xi: run_program on
    the one point env. Raises the EvalError of its first failing
    operation (division by zero, log of a non-positive number, ...)."""
    batch = run_program(compile_exprs([e]), [list(env)])
    if batch.bad[0]:
        raise batch.error(0)
    return float(batch.values[0, 0])


def _binary_batch(op, x, y, fail):
    if op == _ADD:
        return x + y
    if op == _SUB:
        return x - y
    if op == _MUL:
        return x * y
    fail(y == 0.0, "division by zero")
    return x / y


def _pow_batch(x, k, fail):
    if k < 0:
        fail(x == 0.0, "zero raised to a negative power")
    v = np.power(x, float(k))
    fail(np.isfinite(x) & ~np.isfinite(v), "power overflow")
    return v


def _func_batch(fn, x, fail):
    if fn in ("sin", "cos", "tan"):
        fail(np.isinf(x), lambda i: f"{fn} of infinite value {float(x[i])}")
    if fn == "sin":
        return np.sin(x)
    if fn == "cos":
        return np.cos(x)
    if fn == "tan":
        fail(np.cos(x) == 0.0, "tan at a pole")
        return np.tan(x)
    if fn == "exp":
        ev = np.exp(x)
        fail(np.isfinite(x) & (ev == np.inf), "exp overflow")
        return ev
    if fn == "log":
        fail(x <= 0.0, lambda i: f"log of non-positive value {float(x[i])}")
        return np.log(x)
    if fn == "sqrt":
        fail(x < 0.0, lambda i: f"sqrt of negative value {float(x[i])}")
        return np.sqrt(x)
    raise EvalError(f"unknown function {fn}")


# ---------------------------------------------------------------------------
# Interval enclosures: the program run on boxes, a slot a (lo, hi) pair of
# (n,) arrays. A monotone operation applies its point rule, failures too, to
# each bound. Bounds round to nearest, not yet outward.

_TWO_PI = 2.0 * math.pi


def _first(better, *vals):
    """Python's min (better=np.less) or max (np.greater), elementwise: the
    first best value, a NaN kept only where it comes first."""
    out = vals[0]
    for v in vals[1:]:
        out = np.where(better(v, out), v, out)
    return out


def _iv_recip(lo, hi, fail):
    fail((lo <= 0.0) & (0.0 <= hi) | (lo == 0.0) | (hi == 0.0), "reciprocal across zero")
    return 1.0 / hi, 1.0 / lo


def _iv_pow(lo, hi, k, fail):
    if k == 0:
        return np.ones_like(lo), np.ones_like(hi)
    if k < 0:
        lo, hi = _iv_recip(lo, hi, fail)
    if k % 2 == 0:  # the least and greatest absolute value, 0 where the box straddles it
        alo, ahi = np.abs(lo), np.abs(hi)
        lo, hi = (np.where((lo <= 0.0) & (0.0 <= hi), 0.0, _first(np.less, alo, ahi)),
                  _first(np.greater, alo, ahi))
    return _pow_batch(lo, abs(k), fail), _pow_batch(hi, abs(k), fail)


def _iv_call(fn, lo, hi, fail):
    if fn in ("exp", "log", "sqrt"):
        return _func_batch(fn, lo, fail), _func_batch(fn, hi, fail)
    if fn == "cos":
        fn, lo, hi = "sin", lo + math.pi / 2, hi + math.pi / 2
    finite = np.isfinite(lo) & np.isfinite(hi)
    if fn == "tan":  # poles at pi/2 + k*pi
        pole = np.floor((hi - math.pi / 2) / math.pi) >= np.ceil((lo - math.pi / 2) / math.pi)
        fail(pole | ~finite, "tan across a pole")
        return np.tan(lo), np.tan(hi)
    whole = hi - lo >= _TWO_PI
    fail(~whole & ~finite, "sin of an infinite bound")
    # max of sin at pi/2 + 2k*pi, min at -pi/2 + 2k*pi
    has_max = np.floor((hi - math.pi / 2) / _TWO_PI) >= np.ceil((lo - math.pi / 2) / _TWO_PI)
    has_min = np.floor((hi + math.pi / 2) / _TWO_PI) >= np.ceil((lo + math.pi / 2) / _TWO_PI)
    ends = np.sin(lo), np.sin(hi)
    return (np.where(whole | has_min, -1.0, _first(np.less, *ends)),
            np.where(whole | has_max, 1.0, _first(np.greater, *ends)))


def enclose(prog: Program, lo, hi) -> tuple:
    """Enclosures of prog's outputs over n boxes, where row i of lo and hi,
    (n, m) arrays, bounds xj by column j-1: (n, k) bounds and the (n,) mask
    of boxes that cannot certify (an operation meets a pole or a domain
    edge, exp or a power of a finite bound overflows, or an output bound is
    NaN), whose bounds are meaningless."""
    L, H = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    n, m = L.shape
    bad = np.zeros(n, dtype=bool)

    def fail(mask, _message):
        np.logical_or(bad, mask, out=bad)

    ivs: list = []
    with np.errstate(all="ignore"):
        for op, a, b, lit in prog.code:
            x = ivs[a] if op > _VAR else None
            y = ivs[b] if op in (_ADD, _SUB, _MUL, _DIV) else None
            if op == _LIT:
                iv = (np.full(n, lit, dtype=float),) * 2
            elif op == _VAR:
                fail(lit > m, f"no bound for x{lit}")
                iv = (L[:, lit - 1], H[:, lit - 1]) if lit <= m else (np.full(n, np.nan),) * 2
            elif op == _NEG:
                iv = (-x[1], -x[0])
            elif op == _ADD:
                iv = (x[0] + y[0], x[1] + y[1])
            elif op == _SUB:
                iv = (x[0] - y[1], x[1] - y[0])
            elif op in (_MUL, _DIV):
                yl, yh = _iv_recip(*y, fail) if op == _DIV else y
                vals = (x[0] * yl, x[0] * yh, x[1] * yl, x[1] * yh)
                iv = (_first(np.less, *vals), _first(np.greater, *vals))
            elif op == _POW:
                iv = _iv_pow(*x, lit, fail)
            else:
                iv = _iv_call(lit, *x, fail)
            ivs.append(iv)
    out_lo, out_hi = (np.stack([ivs[s][j] for s in prog.outputs], axis=1) for j in (0, 1))
    bad |= np.isnan(out_lo).any(axis=1) | np.isnan(out_hi).any(axis=1)
    return out_lo, out_hi, bad


# ---------------------------------------------------------------------------
# Tokenizer and parser. Positions are 1-based columns.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


class _Token:
    __slots__ = ("kind", "text", "pos", "end")

    def __init__(self, kind, text, pos, end):
        self.kind = kind
        self.text = text
        self.pos = pos
        self.end = end  # index just past the token


def _scan(text: str, i: int) -> _Token:
    """The token at index i, after any whitespace."""
    m = _TOKEN_RE.match(text, i)
    if m is None:
        stripped = text[i:].lstrip()
        if not stripped:
            return _Token("end", "", len(text) + 1, len(text))
        raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped) + 1)
    kind = m.lastgroup
    tok = m.group(kind)
    return _Token(tok if kind == "op" else kind, tok, m.start(kind) + 1, m.end())


def _scan_all(text: str) -> None:
    """Read every token: raises at the first unexpected character, if any."""
    tok = _scan(text, 0)
    while tok.kind != "end":
        tok = _scan(text, tok.end)


class _Level:
    """One group being parsed: the whole text, a '(' ... ')' or a call's
    argument. sum and prod are the left operands of the grammar's expr and
    term loops so far; neg is a '-' read before the current operand."""

    __slots__ = ("start", "prefix", "fn", "sum", "sum_op", "prod", "prod_op", "neg")

    def __init__(self, start, prefix, fn):
        self.start = start  # the index of the group's '(' or function name
        self.prefix = prefix  # the hash of its prefix: see _Parser
        self.fn = fn  # the function called, for a call's argument
        self.sum = self.sum_op = self.prod = self.prod_op = None
        self.neg = False


class _Parser:
    """The grammar's recursive descent run on an explicit stack of levels,
    so nesting depth is bounded by memory, not by the recursion limit.
    Tokens are read one at a time.

    A group is a parenthesized expression, or a call from its name to its
    ')'. Its prefix, its text up to the first ')' after its '(', is known
    where the group starts. memo maps the text of each group read to its
    node, and the hash of each prefix to the lengths of the groups read
    with it. At a new group the parser looks up the text at each such
    length: a group in memo is balanced and its '(' closes at its last
    character, so an equal text is this group, and the parser takes the
    node and jumps past it. A group's text fixes its parse, so the tree
    is the one the text gives without the memo, and so is the first
    error, because only groups that parsed without one are entered.
    """

    def __init__(self, text: str, memo: dict):
        self.text = text
        self.memo = memo
        self.tok = _scan(text, 0)

    def advance(self) -> _Token:
        tok = self.tok
        self.tok = _scan(self.text, tok.end)
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.tok
        if tok.kind != kind:
            what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
            raise ParseError(f"expected '{kind}', found {what}", tok.pos)
        return self.advance()

    def parse(self) -> Expr:
        levels = [_Level(None, None, None)]
        while True:
            lv = levels[-1]
            a = self.operand(levels)
            while a is not None:  # an atom of lv is done
                if lv.neg:
                    a, lv.neg = Neg(a), False
                if self.tok.kind == "^":
                    self.advance()
                    a = Pow(a, self.integer())
                if lv.prod is not None:
                    a = (Mul if lv.prod_op == "*" else Div)(lv.prod, a)
                    lv.prod = None
                tok = self.tok
                if tok.kind in ("*", "/"):
                    lv.prod, lv.prod_op = a, self.advance().kind
                    break
                if lv.sum is not None:
                    a = (Add if lv.sum_op == "+" else Sub)(lv.sum, a)
                    lv.sum = None
                if tok.kind in ("+", "-"):
                    lv.sum, lv.sum_op = a, self.advance().kind
                    break
                # a is lv's whole expression
                if len(levels) == 1:
                    if tok.kind != "end":
                        raise ParseError(f"unexpected '{tok.text}' after expression", tok.pos)
                    return a
                if lv.fn is not None:
                    if tok.kind == ",":
                        raise ParseError(f"{lv.fn} takes one argument", tok.pos)
                    a = Call(lv.fn, a)
                end = self.expect(")").end
                self.memo[self.text[lv.start:end]] = a
                lengths = self.memo.get(lv.prefix, ())
                if end - lv.start not in lengths:
                    self.memo[lv.prefix] = lengths + (end - lv.start,)
                levels.pop()
                lv = levels[-1]

    def integer(self) -> int:
        sign = 1
        if self.tok.kind == "-":
            self.advance()
            sign = -1
        tok = self.tok
        if tok.kind != "num" or not re.fullmatch(r"\d+", tok.text):
            what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
            raise ParseError(f"exponent must be an integer literal, found {what}", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def operand(self, levels: list):
        """unary := '-'? atom. The atom, or None when it opened a group."""
        if self.tok.kind == "-":
            self.advance()
            levels[-1].neg = True
        tok = self.tok
        if tok.kind == "num":
            self.advance()
            if math.isinf(value := float(tok.text)):
                raise ParseError(f"number {tok.text} is out of range", tok.pos)
            return Num(value)
        if tok.kind == "(":
            return self.group(levels, tok, self.advance(), None)
        if tok.kind == "name":
            self.advance()
            name = tok.text
            if name in _CONSTS:
                return Const(name)
            if name in _FUNCS:
                return self.group(levels, tok, self.expect("("), name)
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                idx = int(m.group(1))
                if idx == 0:
                    raise UnknownSymbol("variables are numbered from x1", tok.pos)
                return Var(idx)
            raise UnknownSymbol(f"unknown identifier '{name}'", tok.pos)
        what = f"'{tok.text}'" if tok.kind != "end" else "end of input"
        raise ParseError(f"expected an operand, found {what}", tok.pos)

    def group(self, levels: list, start: _Token, paren: _Token, fn):
        """After the '(' paren of a group that starts at start: the node of
        a group met before, or None after opening a level for it."""
        text, p = self.text, start.pos - 1
        prefix = hash(text[p:text.find(")", paren.end) + 1])
        for n in self.memo.get(prefix, ()):
            if text[p + n - 1:p + n] == ")":
                node = self.memo.get(text[p:p + n])
                if node is not None:
                    self.tok = _scan(text, p + n)
                    return node
        levels.append(_Level(p, prefix, fn))
        return None


def parse_expr(text: str, memo: dict | None = None) -> Expr:
    """Parse a DSL expression; ParseError/UnknownSymbol carry the column.

    memo may be shared by the calls that load one document, so that a
    group met in an earlier entry is not read again; it holds the text of
    every group read (see _Parser). It also interns whole entries: the
    1-tuple (text,) maps an entry's text to its node, so text-equal entries
    of one document are one node. A key of that form is never a group's
    text, so the group probe cannot take an entry that is not a group,
    such as '(x1 + (x2)) * (3)', for one.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 1)
    memo = {} if memo is None else memo
    node = memo.get((text,))
    if node is None:
        try:
            node = _Parser(text, memo).parse()
        except (ParseError, UnknownSymbol):
            _scan_all(text)  # an unexpected character anywhere is the error reported
            raise
        memo[(text,)] = node
    return node


def _as_expr(c) -> Expr:
    return c if isinstance(c, Expr) else parse_expr(c)


def as_exprs(entries, dim: int, what: str, error, memo: dict | None = None) -> tuple:
    """The entries (expressions or their text) as expressions in x1..x{dim}.

    An entry that uses a later variable raises error(message), error being
    an exception type or a function of the message that makes one; memo is
    max_var_index's, shared by the calls that validate one document. One
    walk visits all the entries; the first entry past dim names the error."""
    exprs = tuple(_as_expr(c) for c in entries)
    for k in _fold(exprs, {} if memo is None else memo, _max_var):
        if k > dim:
            raise error(f"{what} references x{k} but the dimension is {dim}")
    return exprs


# ---------------------------------------------------------------------------
# Printing. Minimal parentheses, chosen so parse(to_string(e)) == e.


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _is_atomic(e: Expr) -> bool:
    return isinstance(e, (Const, Var, Call)) or (isinstance(e, Num) and e.value >= 0)


def _print_node(e: Expr, texts: list) -> str:
    """e's text from the texts of its operands."""
    if isinstance(e, Num):
        return _fmt_num(e.value) if e.value >= 0 else f"(-{_fmt_num(-e.value)})"
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Call):
        return f"{e.fn}({texts[0]})"
    if isinstance(e, Neg):
        return f"-{texts[0]}" if _is_atomic(e.a) else f"-({texts[0]})"
    if isinstance(e, Pow):
        base = e.base
        if _is_atomic(base) or (isinstance(base, Neg) and _is_atomic(base.a)):
            return f"{texts[0]}^{e.exponent}"
        return f"({texts[0]})^{e.exponent}"
    if isinstance(e, (Mul, Div)):
        a, b = e.a, e.b
        left_plain = _is_atomic(a) or isinstance(a, (Mul, Div, Pow, Neg, Num))
        left = texts[0] if left_plain else f"({texts[0]})"
        right = f"({texts[1]})" if isinstance(b, (Add, Sub, Mul, Div)) else texts[1]
        op = "*" if isinstance(e, Mul) else "/"
        return f"{left} {op} {right}"
    if isinstance(e, (Add, Sub)):
        right = f"({texts[1]})" if isinstance(e.b, (Add, Sub, Neg)) else texts[1]
        op = "+" if isinstance(e, Add) else "-"
        return f"{texts[0]} {op} {right}"
    raise EvalError(f"unknown node {type(e).__name__}")


def to_string(e: Expr, memo: dict | None = None) -> str:
    """e's text, parenthesized so that parse_expr gives e back.

    memo may be shared by the calls that print one document, so that a
    subtree shared within or between entries is printed once.
    """
    return _fold((e,), {} if memo is None else memo, _print_node)[0]


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


def _folded(op, *values) -> Expr | None:
    """op(*values) as a literal, or None: a constant fold that fails (zero
    to a negative power, overflow) or is not finite keeps its node."""
    try:
        v = op(*values)
    except (OverflowError, ZeroDivisionError):
        return None
    return _num(v) if math.isfinite(v) else None


def num_literal(v: float) -> Expr:
    """A literal node for v; negatives become Neg(Num) as the grammar would."""
    return _num(float(v))


def fold_add(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if va is not None and vb is not None and (v := _folded(operator.add, va, vb)) is not None:
        return v
    if va == 0:
        return b
    if vb == 0:
        return a
    return Add(a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    va, vb = _as_num(a), _as_num(b)
    if va is not None and vb is not None and (v := _folded(operator.sub, va, vb)) is not None:
        return v
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
    if va is not None and vb is not None and (v := _folded(operator.mul, va, vb)) is not None:
        return v
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
    if va is not None and vb is not None and (v := _folded(operator.truediv, va, vb)) is not None:
        return v
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
    if vb is not None and (v := _folded(operator.pow, vb, k)) is not None:
        return v
    return Pow(base, k)


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
