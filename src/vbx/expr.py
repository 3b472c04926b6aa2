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
of points at once, values as arrays, reporting each operation that leaves
its domain to the caller's fail(mask, why) in slot order. eval_expr is
that program run on one point, and vbx.intervals.enclose runs it on
boxes: interval bounds for a batch of boxes at once. There is one
derivative rule, diff:
a Jacobian is the program of a map's symbolic partials, evaluated like any
other expressions, so it is exact to rounding.
The folding constructors (fold_add and friends) do light constant folding
and are used by symbolic differentiation and substitution, never by the
parser.

Expressions are DAGs: a derived bundle's entries reference the same
subtrees many times over. Every walker (compiling, printing,
differentiation, substitution, hashing, repr) visits each distinct node
once, without recursion, and equality compares each pair of nodes once.
Validation walks nothing: each node carries top, its largest variable
index. The parser reads a repeated parenthesized group, or a repeated
entry of one document, once, and builds one node per distinct
subexpression of a document.
"""

from __future__ import annotations

import math
import operator
import re

import numpy as np

from .errors import EvalError, ParseError, UnknownSymbol
from .record import Record, record


class Expr(Record):
    """Base class for expression nodes. Nodes are immutable records (see
    vbx.record), and each node class sets its fields in its own __init__.

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


# Every node has top, its largest variable index (0 for a constant), and
# operands, the tuple of its operand nodes in field order, both set at
# construction. Neither is a field: equality, hashing and repr ignore them.
_set = object.__setattr__


@record
class Num(Expr):
    """A decimal literal."""

    value: float
    top = 0
    operands = ()

    def __init__(self, value: float):
        _set(self, "value", value)


@record
class Const(Expr):
    """A named constant."""

    name: str  # 'pi' or 'e'
    top = 0
    operands = ()

    def __init__(self, name: str):
        _set(self, "name", name)


@record
class Var(Expr):
    """A coordinate."""

    index: int  # 1-based: x1, x2, ...
    operands = ()

    def __init__(self, index: int):
        _set(self, "index", index)
        _set(self, "top", index)


@record
class Neg(Expr):
    """-a"""

    a: Expr

    def __init__(self, a: Expr):
        _set(self, "a", a)
        _set(self, "operands", (a,))
        _set(self, "top", a.top)


class _Binary(Expr):
    __slots__ = ()

    def __init__(self, a: Expr, b: Expr):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "operands", (a, b))
        a, b = a.top, b.top
        _set(self, "top", a if a > b else b)


@record
class Add(_Binary):
    """a + b"""

    a: Expr
    b: Expr


@record
class Sub(_Binary):
    """a - b"""

    a: Expr
    b: Expr


@record
class Mul(_Binary):
    """a * b"""

    a: Expr
    b: Expr


@record
class Div(_Binary):
    """a / b"""

    a: Expr
    b: Expr


@record
class Pow(Expr):
    """base ^ exponent, a constant integer exponent"""

    base: Expr
    exponent: int

    def __init__(self, base: Expr, exponent: int):
        _set(self, "base", base)
        _set(self, "exponent", exponent)
        _set(self, "operands", (base,))
        _set(self, "top", base.top)


@record
class Call(Expr):
    """fn(arg), fn one of the grammar's functions"""

    fn: str
    arg: Expr

    def __init__(self, fn: str, arg: Expr):
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        _set(self, "operands", (arg,))
        _set(self, "top", arg.top)


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


def _fold(roots, memo: dict, visit) -> list:
    """visit(node, results of its operands) once per distinct node under
    roots whose id is not in memo, operands first and left before right,
    roots in order: the order in which a recursive walk first finishes each
    node, so the first node to raise is the one it would raise at. Returns
    the results of the roots. A stack frame holds its node's operand
    iterator and their results so far: each operand is looked up once."""
    roots = tuple(roots)
    get = memo.get
    for root in roots:
        if id(root) in memo:
            continue
        stack = [(root, iter(root.operands), [])]
        while stack:
            node, kids, done = stack[-1]
            for k in kids:
                known = get(id(k))
                if known is None:
                    stack.append((k, iter(k.operands), []))
                    break
                done.append(known[1])
            else:
                stack.pop()
                result = visit(node, done)
                memo[id(node)] = node, result
                if stack:
                    stack[-1][2].append(result)
    return [memo[id(r)][1] for r in roots]


def max_var_index(e: Expr) -> int:
    """Largest variable index used, 0 if the expression is constant."""
    return e.top


# ---------------------------------------------------------------------------
# Batched evaluation. compile_exprs hash-conses a list of expressions into
# one straight-line program: each structurally distinct subtree is one
# slot, keyed by (op, child slots, literal), so shared subexpressions are
# computed once. run_program evaluates the program once over all sample
# points, on (n,) value arrays. Where an operation leaves its domain
# (division by zero, log of a non-positive number, overflow, ...) it calls
# fail(mask, why): mask marks the samples, and why is the message, or a
# function of a sample's index that gives it. Computing goes on.

_LIT, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _CALL = range(9)


@record
class Program(Record):
    """Straight-line code: slot s is (op, a, b, literal) over slots < s."""

    code: tuple
    outputs: tuple  # the slot of each compiled expression, in order


class _ByClass(dict):
    """Maps each node class (or function name) to its rule in one walk; any
    other class or name is an EvalError."""

    def __missing__(self, key):
        raise EvalError(f"unknown function {key}" if isinstance(key, str)
                        else f"unknown node {key.__name__}")


# Each node class's key in a program's table, (op, a, b, literal), from the
# node and its operands' slots s.
_KEY = _ByClass({
    Num: lambda e, s: (_LIT, -1, math.copysign(1.0, e.value), e.value),  # 0.0 != -0.0
    Const: lambda e, s: (_LIT, -1, 1.0, _CONSTS[e.name]),
    Var: lambda e, s: (_VAR, -1, -1, e.index),
    Neg: lambda e, s: (_NEG, s[0], -1, None),
    Add: lambda e, s: (_ADD, s[0], s[1], None),
    Sub: lambda e, s: (_SUB, s[0], s[1], None),
    Mul: lambda e, s: (_MUL, s[0], s[1], None),
    Div: lambda e, s: (_DIV, s[0], s[1], None),
    Pow: lambda e, s: (_POW, s[0], -1, e.exponent),
    Call: lambda e, s: (_CALL, s[0], -1, e.fn),
})


def compile_exprs(exprs) -> Program:
    """One program for all of exprs, common subexpressions shared.

    Each distinct node is visited once, and the table holds only unique
    structures. Slots come in post-order of first occurrence: the order in
    which a walk of the expressions, one after another, first finishes each
    node, so a sample's first failing slot is the node such a walk would
    fail at first.
    """
    table: dict = {}
    outputs = _fold(exprs, {}, lambda node, slots: table.setdefault(_KEY[type(node)](node, slots),
                                                                    len(table)))
    return Program(tuple(table), tuple(outputs))


def tree_size(prog: Program) -> int:
    """Nodes of prog's outputs counted as trees: a shared subtree once per
    occurrence. A slot's tree is itself and its operands' trees."""
    size: list = []
    for op, a, b, _ in prog.code:  # a literal's b is its sign, not a slot
        kids = (a, b) if _ADD <= op <= _DIV else (a,) if op > _VAR else ()
        size.append(1 + sum(size[k] for k in kids))
    return sum(size[s] for s in prog.outputs)


def run_program(prog: Program, points, fail) -> np.ndarray:
    """Evaluate prog, under the caller's np.errstate, at each row of points,
    an (n, m) array: variable xi takes column i-1: (n, k) values, one column
    per compiled expression, meaningless at the samples of any mask passed to fail."""
    X = np.asarray(points, dtype=float)
    n, m = X.shape
    vals: list = []
    for op, a, b, lit in prog.code:
        if op == _MUL:
            v = vals[a] * vals[b]
        elif op == _DIV:
            y = vals[b]
            fail(y == 0.0, "division by zero")
            v = vals[a] / y
        elif op == _ADD:
            v = vals[a] + vals[b]
        elif op == _SUB:
            v = vals[a] - vals[b]
        elif op == _LIT:
            v = np.empty(n)
            v.fill(lit)
        elif op == _CALL:
            v = _func_batch(lit, vals[a], fail)
        elif op == _NEG:
            v = -vals[a]
        elif op == _VAR:
            if lit > m:
                fail(np.ones(n, dtype=bool), f"no value for x{lit}: point has {m} coordinates")
                v = np.full(n, np.nan)
            else:
                v = X[:, lit - 1]
        else:
            v = _pow_batch(vals[a], lit, fail)
        vals.append(v)
    # One (n, k) C-ordered copy of the output columns (reshaped for k = 0).
    return np.array([vals[s] for s in prog.outputs]).T.copy().reshape(n, len(prog.outputs))


def eval_expr(e: Expr, env) -> float:
    """The value of e with env[i-1] bound to variable xi: run_program on
    the one point env. Raises the EvalError of its first failing
    operation (division by zero, log of a non-positive number, ...)."""

    def fail(mask, why):
        if mask[0]:
            raise EvalError(why if isinstance(why, str) else why(0))

    with np.errstate(all="ignore"):
        return float(run_program(compile_exprs([e]), [list(env)], fail)[0, 0])


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
# Tokenizer and parser. Positions are 1-based columns.

# One match per token, the whitespace before it included. A token's kind is
# the index of the one group that took part, m.lastindex: any other
# character is a _BAD token, and the end of the text, after any whitespace,
# an _END token, so the match at the index after a token is the next token.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|(\+)|(-)|(\*)|(/)|(\^)|(\()|(\))|(,)|(\S)|(\Z))"
)
_NUM, _NAME, _PLUS, _MINUS, _STAR, _SLASH, _CARET, _OPEN, _CLOSE, _COMMA, _BAD, _END = range(1, 13)


def _col(m) -> int:
    return m.start(m.lastindex) + 1


def _found(m) -> str:
    return "end of input" if m.lastindex == _END else f"'{m[m.lastindex]}'"


def _scan_all(text: str) -> None:
    """Read every token: raises at the first unexpected character, if any."""
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == _BAD:
            raise ParseError(f"unexpected character {m[_BAD]!r}", _col(m))


def _put(memo: dict, key, node: Expr) -> Expr:
    memo[key] = node
    return node


def _parse(text: str, memo: dict) -> Expr:
    """The grammar's recursive descent as one loop over the tokens, with
    the levels of the open groups on an explicit stack, so nesting depth is
    bounded by memory, not by the recursion limit. m is the match of the
    token ahead, where the one before it ends, and kind its kind.

    A level is the whole text, a '(' ... ')' or a call's argument: start is
    the index of its '(' or function name, prefix the hash of its prefix
    (below), fn the function called; add and mul are the left operands of
    the grammar's expr and term loops so far, and add_op and mul_op their
    node classes; neg is a '-' read before the current operand.

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

    memo also interns every node the parser builds: the key is the node's
    class, then its operands' ids and its literals, a tuple of two or more
    items that starts with a class, so no group text, prefix hash or entry
    key. Equal subexpressions, however spelled, are one node. The parser
    writes to memo by item assignment only.
    """
    match, get = _TOKEN_RE.match, memo.get
    levels: list = []  # the enclosing levels of the open groups, innermost last
    start = prefix = fn = add = add_op = mul = mul_op = None
    neg = False
    m = match(text)
    kind = m.lastindex
    while True:
        # unary := '-'? atom, or the opening of a group
        if kind == _MINUS:
            neg = True
            m = match(text, m.end())
            kind = m.lastindex
        end = m.end()  # where the atom ends, unless it is a group
        if kind == _NUM:
            value = float(m[1])
            if math.isinf(value):
                raise ParseError(f"number {m[1]} is out of range", _col(m))
            key = (Num, 1.0, value)  # 1.0: the sign of value, as no token has one
            a = get(key) or _put(memo, key, Num(value))
        elif kind == _NAME and m[2] not in _FUNCS:
            name = m[2]
            if name in _CONSTS:
                key = (Const, name)
                a = get(key) or _put(memo, key, Const(name))
            elif name[0] == "x" and name[1:].isdigit():
                idx = int(name[1:])
                if idx == 0:
                    raise UnknownSymbol("variables are numbered from x1", _col(m))
                key = (Var, idx)
                a = get(key) or _put(memo, key, Var(idx))
            else:
                raise UnknownSymbol(f"unknown identifier '{name}'", _col(m))
        else:  # a group: '(' expr ')' or func '(' expr ')'
            p = m.start(kind)
            if kind == _OPEN:
                call = None
            elif kind == _NAME:
                call = m[2]
                m = match(text, end)
                kind = m.lastindex
                if kind != _OPEN:
                    raise ParseError(f"expected '(', found {_found(m)}", _col(m))
            else:
                raise ParseError(f"expected an operand, found {_found(m)}", _col(m))
            group = hash(text[p:text.find(")", m.end()) + 1])
            for n in get(group, ()):
                if text[p + n - 1:p + n] == ")":
                    a = get(text[p:p + n])
                    if a is not None:
                        end = p + n
                        break
            else:
                levels.append((start, prefix, fn, add, add_op, mul, mul_op, neg))
                start, prefix, fn = p, group, call
                add = mul = None
                neg = False
                m = match(text, m.end())
                kind = m.lastindex
                continue
        m = match(text, end)
        kind = m.lastindex
        while True:  # a, an atom of the level, is read: finish what it completes
            if neg:
                key = (Neg, id(a))
                a, neg = get(key) or _put(memo, key, Neg(a)), False
            if kind == _CARET:
                m = match(text, m.end())
                kind = m.lastindex
                sign = 1
                if kind == _MINUS:
                    sign = -1
                    m = match(text, m.end())
                    kind = m.lastindex
                if kind != _NUM or not m[1].isdecimal():
                    raise ParseError(f"exponent must be an integer literal, found {_found(m)}",
                                     _col(m))
                k = sign * int(m[1])
                m = match(text, m.end())
                kind = m.lastindex
                key = (Pow, id(a), k)
                a = get(key) or _put(memo, key, Pow(a, k))
            if mul is not None:
                key = (mul_op, id(mul), id(a))
                a, mul = get(key) or _put(memo, key, mul_op(mul, a)), None
            if kind == _STAR or kind == _SLASH:
                mul, mul_op = a, Mul if kind == _STAR else Div
                m = match(text, m.end())
                kind = m.lastindex
                break
            if add is not None:
                key = (add_op, id(add), id(a))
                a, add = get(key) or _put(memo, key, add_op(add, a)), None
            if kind == _PLUS or kind == _MINUS:
                add, add_op = a, Add if kind == _PLUS else Sub
                m = match(text, m.end())
                kind = m.lastindex
                break
            # a is the level's whole expression
            if not levels:
                if kind != _END:
                    raise ParseError(f"unexpected {_found(m)} after expression", _col(m))
                return a
            if fn is not None:
                if kind == _COMMA:
                    raise ParseError(f"{fn} takes one argument", _col(m))
                key = (Call, fn, id(a))
                a = get(key) or _put(memo, key, Call(fn, a))
            if kind != _CLOSE:
                raise ParseError(f"expected ')', found {_found(m)}", _col(m))
            end = m.end()
            memo[text[start:end]] = a
            lengths = get(prefix, ())
            if end - start not in lengths:
                memo[prefix] = lengths + (end - start,)
            start, prefix, fn, add, add_op, mul, mul_op, neg = levels.pop()
            m = match(text, end)
            kind = m.lastindex


def parse_expr(text: str, memo: dict | None = None) -> Expr:
    """Parse a DSL expression; ParseError/UnknownSymbol carry the column.

    memo may be shared by the calls that load one document, so that a
    group met in an earlier entry is not read again and the document holds
    one node per distinct subexpression; it holds the text of every group
    read and every node built (see _parse). It also interns whole entries:
    the 1-tuple (text,) maps an entry's text to its node, so a text met
    before is not read again. A key of that form is never a group's text,
    so the group probe cannot take an entry that is not a group, such as
    '(x1 + (x2)) * (3)', for one.
    """
    if not isinstance(text, str):
        raise ParseError("expression must be a string", 1)
    memo = {} if memo is None else memo
    node = memo.get((text,))
    if node is None:
        try:
            node = _parse(text, memo)
        except (ParseError, UnknownSymbol):
            _scan_all(text)  # an unexpected character anywhere is the error reported
            raise
        memo[(text,)] = node
    return node


def _as_expr(c) -> Expr:
    return c if isinstance(c, Expr) else parse_expr(c)


def as_exprs(entries, dim: int, what: str, error) -> tuple:
    """The entries (expressions or their text) as expressions in x1..x{dim}.

    An entry that uses a later variable raises error(message), error being
    an exception type or a function of the message that makes one; the
    first entry past dim names the error. Each entry's top bounds it, so
    no entry is walked."""
    exprs = tuple(_as_expr(c) for c in entries)
    for e in exprs:
        if e.top > dim:
            raise error(f"{what} references x{e.top} but the dimension is {dim}")
    return exprs


# ---------------------------------------------------------------------------
# Printing. Minimal parentheses, chosen so parse(to_string(e)) == e.


def _fmt_num(v: float) -> str:
    if not math.isfinite(v):
        raise EvalError(f"literal {v!r} is not finite and has no spelling")
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _is_atomic(e: Expr) -> bool:
    return isinstance(e, (Const, Var, Call)) or (isinstance(e, Num) and e.value >= 0)


def _infix(op: str, left_open: tuple, right_open: tuple):
    """A binary node's printer: op between its operands' texts, each
    parenthesized where its class is in left_open or right_open."""
    return lambda e, t: ((f"({t[0]})" if type(e.a) in left_open else t[0]) + op
                         + (f"({t[1]})" if type(e.b) in right_open else t[1]))


# Each node class's printer: its text from the texts of its operands.
_PRINT = _ByClass({
    Num: lambda e, t: _fmt_num(e.value) if e.value >= 0 else f"(-{_fmt_num(-e.value)})",
    Const: lambda e, t: e.name,
    Var: lambda e, t: f"x{e.index}",
    Call: lambda e, t: f"{e.fn}({t[0]})",
    Neg: lambda e, t: f"-{t[0]}" if _is_atomic(e.a) else f"-({t[0]})",
    Pow: lambda e, t: (f"{t[0]}^{e.exponent}" if _is_atomic(e.base) or (
        isinstance(e.base, Neg) and _is_atomic(e.base.a)) else f"({t[0]})^{e.exponent}"),
    Mul: _infix(" * ", (Add, Sub), (Add, Sub, Mul, Div)),
    Div: _infix(" / ", (Add, Sub), (Add, Sub, Mul, Div)),
    Add: _infix(" + ", (), (Add, Sub, Neg)),
    Sub: _infix(" - ", (), (Add, Sub, Neg)),
})


def to_string(e: Expr, memo: dict | None = None) -> str:
    """e's text, parenthesized so that parse_expr gives e back.

    memo may be shared by the calls that print one document, so that a
    subtree shared within or between entries is printed once.
    """
    return _fold((e,), {} if memo is None else memo, lambda e, t: _PRINT[type(e)](e, t))[0]


def print_and_count(roots, memo: dict) -> tuple:
    """to_string of each of a list of roots, and tree_size and len(code) of
    their compile_exprs program, from one walk: (texts, tree, unique). memo
    is a print memo, as to_string's, that holds no node under roots yet."""
    table, slots = {}, {}  # slots: id(node) -> its slot in table

    def visit(node, texts):
        key = _KEY[type(node)](node, [slots[id(k)] for k in node.operands])
        slots[id(node)] = table.setdefault(key, len(table))
        return _PRINT[type(node)](node, texts)

    texts = _fold(roots, memo, visit)
    prog = Program(tuple(table), tuple(slots[id(r)] for r in roots))
    return texts, tree_size(prog), len(table)


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
    """A literal node for v; negatives become Neg(Num) as the grammar would.
    EvalError for a non-finite v, which the grammar cannot spell."""
    v = float(v)
    if not math.isfinite(v):
        raise EvalError(f"literal {v!r} is not finite")
    return _num(v)


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


# How subst_all (x: the replacements), and diff for its linear rules, rebuild
# a node from its operands' results k. A rule looks its folding constructor
# up by name when it runs, so a rebound name (a tracer's wrapper) is called.
_SUBST = _ByClass({
    Num: lambda e, k, x: e,
    Const: lambda e, k, x: e,
    Var: lambda e, k, x: _bind(e.index, x),
    Neg: lambda e, k, x: fold_neg(k[0]),
    Add: lambda e, k, x: fold_add(k[0], k[1]),
    Sub: lambda e, k, x: fold_sub(k[0], k[1]),
    Mul: lambda e, k, x: fold_mul(k[0], k[1]),
    Div: lambda e, k, x: fold_div(k[0], k[1]),
    Pow: lambda e, k, x: fold_pow(k[0], e.exponent),
    Call: lambda e, k, x: Call(e.fn, k[0]),
})


def _bind(index: int, replacements) -> Expr:
    if index > len(replacements):
        raise EvalError(f"substitution has no binding for x{index}")
    return replacements[index - 1]


# Each function's derivative from its argument u and u's derivative du.
_CHAIN = _ByClass({
    "sin": lambda u, du: fold_mul(Call("cos", u), du),
    "cos": lambda u, du: fold_neg(fold_mul(Call("sin", u), du)),
    "tan": lambda u, du: fold_div(du, fold_pow(Call("cos", u), 2)),
    "exp": lambda u, du: fold_mul(Call("exp", u), du),
    "log": lambda u, du: fold_div(du, u),
    "sqrt": lambda u, du: fold_div(du, fold_mul(Num(2.0), Call("sqrt", u))),
})

# Each node class's derivative by x{i} from the node and the derivatives d
# of its operands.
_DIFF = _ByClass({
    Num: lambda e, d, i: Num(0.0),
    Const: lambda e, d, i: Num(0.0),
    Var: lambda e, d, i: Num(1.0 if e.index == i else 0.0),
    Neg: _SUBST[Neg],
    Add: _SUBST[Add],
    Sub: _SUBST[Sub],
    Mul: lambda e, d, i: fold_add(fold_mul(d[0], e.b), fold_mul(e.a, d[1])),
    Div: lambda e, d, i: fold_div(fold_sub(d[0], fold_mul(e, d[1])), e.b),  # b never squared
    Pow: lambda e, d, i: fold_mul(fold_mul(_num(float(e.exponent)),
                                           fold_pow(e.base, e.exponent - 1)), d[0]),
    Call: lambda e, d, i: _CHAIN[e.fn](e.arg, d[0]),
})


def diff(e: Expr, index: int) -> Expr:
    """Symbolic partial derivative with respect to x{index}, lightly folded.

    The one derivative rule: every Jacobian is built from it. Raises
    EvalError where e divides by a literal zero or takes the log of one
    ("division by constant zero": such an e has no value anywhere), and,
    as printing does, at a node class or function outside the grammar."""
    return _fold((e,), {}, lambda e, d: _DIFF[type(e)](e, d, index))[0]


def subst(e: Expr, replacements) -> Expr:
    """Replace x{i} by replacements[i-1] throughout; folds as it goes.

    Variables with indices beyond the replacement list are an error, since
    substitution is used for composing maps where every input must bind.
    """
    return subst_all((e,), replacements)[0]


def subst_all(roots, replacements) -> tuple:
    """subst of each of roots, in one walk: a node they share is
    substituted once."""
    return tuple(_fold(roots, {}, lambda e, k: _SUBST[type(e)](e, k, replacements)))
