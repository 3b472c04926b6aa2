"""The finditer parser, kept as the oracle of the positional one.

vbx.expr._parse reads one token at a time with _TOKEN_RE.match at the
index after the last, and compares each match's lastindex with integer
kinds. The parser below is the one it replaced, kept verbatim: it walks
_TOKEN_RE.finditer, maps each match's lastindex to a kind string, and
starts a new finditer after each group it takes from the memo. Both read
the same grammar with the same group memo and interning keys, and raise
the same errors at the same columns; tests compare the trees, the nodes
per document memo and the errors of the two.
"""

import math
import re

from vbx.errors import ParseError, UnknownSymbol
from vbx.expr import _CONSTS, _FUNCS, Add, Call, Const, Div, Expr, Mul, Neg, Num, Pow, Sub, Var

# One match per token, the whitespace before it included. A token's kind is
# _KINDS at the index of the one group that took part: any other character
# is a "bad" token, and the end of the text, after any whitespace, an "end"
# token, so the matches from any index on are the tokens in turn.
_TOKEN_RE = re.compile(
    r"\s*(?:(\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|([A-Za-z_][A-Za-z_0-9]*)"
    r"|(\+)|(-)|(\*)|(/)|(\^)|(\()|(\))|(,)|(\S)|(\Z))"
)
_KINDS = (None, "num", "name", "+", "-", "*", "/", "^", "(", ")", ",", "bad", "end")
_BAD = _KINDS.index("bad")


def _col(m) -> int:
    return m.start(m.lastindex) + 1


def _found(m) -> str:
    return "end of input" if _KINDS[m.lastindex] == "end" else f"'{m[m.lastindex]}'"


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
    token ahead and kind its kind.

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
    find, get = _TOKEN_RE.finditer, memo.get
    levels: list = []  # the enclosing levels of the open groups, innermost last
    start = prefix = fn = add = add_op = mul = mul_op = None
    neg = False
    tokens = find(text)
    m = next(tokens)
    kind = _KINDS[m.lastindex]
    while True:
        # unary := '-'? atom, or the opening of a group
        if kind == "-":
            neg = True
            m = next(tokens)
            kind = _KINDS[m.lastindex]
        if kind == "num":
            value = float(m[1])
            if math.isinf(value):
                raise ParseError(f"number {m[1]} is out of range", _col(m))
            key = (Num, 1.0, value)  # 1.0: the sign of value, as no token has one
            a = get(key) or _put(memo, key, Num(value))
        elif kind == "name" and m[2] not in _FUNCS:
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
            p = m.start(m.lastindex)
            if kind == "(":
                call = None
            elif kind == "name":
                call = m[2]
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                if kind != "(":
                    raise ParseError(f"expected '(', found {_found(m)}", _col(m))
            else:
                raise ParseError(f"expected an operand, found {_found(m)}", _col(m))
            group = hash(text[p:text.find(")", m.end()) + 1])
            for n in get(group, ()):
                if text[p + n - 1:p + n] == ")":
                    a = get(text[p:p + n])
                    if a is not None:
                        tokens = find(text, p + n)
                        break
            else:
                levels.append((start, prefix, fn, add, add_op, mul, mul_op, neg))
                start, prefix, fn = p, group, call
                add = mul = None
                neg = False
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                continue
        m = next(tokens)
        kind = _KINDS[m.lastindex]
        while True:  # a, an atom of the level, is read: finish what it completes
            if neg:
                key = (Neg, id(a))
                a, neg = get(key) or _put(memo, key, Neg(a)), False
            if kind == "^":
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                sign = 1
                if kind == "-":
                    sign = -1
                    m = next(tokens)
                    kind = _KINDS[m.lastindex]
                if kind != "num" or not re.fullmatch(r"\d+", m[1]):
                    raise ParseError(f"exponent must be an integer literal, found {_found(m)}",
                                     _col(m))
                k = sign * int(m[1])
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                key = (Pow, id(a), k)
                a = get(key) or _put(memo, key, Pow(a, k))
            if mul is not None:
                key = (mul_op, id(mul), id(a))
                a, mul = get(key) or _put(memo, key, mul_op(mul, a)), None
            if kind == "*" or kind == "/":
                mul, mul_op = a, Mul if kind == "*" else Div
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                break
            if add is not None:
                key = (add_op, id(add), id(a))
                a, add = get(key) or _put(memo, key, add_op(add, a)), None
            if kind == "+" or kind == "-":
                add, add_op = a, Add if kind == "+" else Sub
                m = next(tokens)
                kind = _KINDS[m.lastindex]
                break
            # a is the level's whole expression
            if not levels:
                if kind != "end":
                    raise ParseError(f"unexpected {_found(m)} after expression", _col(m))
                return a
            if fn is not None:
                if kind == ",":
                    raise ParseError(f"{fn} takes one argument", _col(m))
                key = (Call, fn, id(a))
                a = get(key) or _put(memo, key, Call(fn, a))
            if kind != ")":
                raise ParseError(f"expected ')', found {_found(m)}", _col(m))
            end = m.end()
            memo[text[start:end]] = a
            lengths = get(prefix, ())
            if end - start not in lengths:
                memo[prefix] = lengths + (end - start,)
            start, prefix, fn, add, add_op, mul, mul_op, neg = levels.pop()
            m = next(tokens)
            kind = _KINDS[m.lastindex]


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
