"""Shared subexpressions: parsed, printed, validated and compiled once.

The memoizing parser is checked against the recursive-descent parser it
replaced (kept below, verbatim, as the oracle) and against itself with
the memo defeated; the walkers are checked on DAGs whose trees are far
too large to walk occurrence by occurrence, and on nesting far deeper
than the recursion limit. The construct outputs of tests/golden/dense.json
are pinned to the bytes the tree-walking printer wrote, and three
`construct restrict` outputs to the bytes the box-by-box bisection wrote.
Loaded back, each holds one node per distinct entry text, compiles one
program per distinct entry tuple and checks like the bundle it was saved
from. Symbolic inverses, which build each minor once, are checked against
the cofactor expansion that builds every minor afresh, and the table-driven
diff and subst against the isinstance ladder they replaced.
"""

import hashlib
import itertools
import json
import math
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from vbx import calculus, cli, expr, symmat
from vbx.bundles import check_base_atlas, check_vb
from vbx.cli import main
from vbx.constructions import direct_product, dual_bundle, tangent_bundle, tensor_bundle
from vbx.errors import EvalError, ParseError, UnknownSymbol
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
    compile_exprs,
    diff,
    eval_expr,
    fold_add,
    fold_div,
    fold_mul,
    fold_neg,
    fold_pow,
    fold_sub,
    max_var_index,
    parse_expr,
    print_and_count,
    subst,
    subst_all,
    to_string,
    tree_size,
)
from vbx.report import report_to_json
from vbx.specio import document_to_dict, gallery_path, list_gallery, load_spec, save_spec
from vbx.symmat import mat_inverse, mat_subst

import diff_oracle
import parse_oracle
from support import walked_top

GOLDEN = Path(__file__).parent / "golden"

# ---------------------------------------------------------------------------
# The oracle: the token-list, recursive-descent parser.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)
_CONSTS = ("pi", "e")
_FUNCS = ("sin", "cos", "tan", "exp", "log", "sqrt")


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        m = _TOKEN_RE.match(text, i)
        if m is None:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", n - len(stripped) + 1)
        kind = m.lastgroup
        tokens.append((m.group(kind) if kind == "op" else kind, m.group(kind),
                       m.start(kind) + 1))
        i = m.end()
    tokens.append(("end", "", n + 1))
    return tokens


class _Reference:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            what = f"'{tok[1]}'" if tok[0] != "end" else "end of input"
            raise ParseError(f"expected '{kind}', found {what}", tok[2])
        return self.advance()

    def parse(self):
        e = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected '{tok[1]}' after expression", tok[2])
        return e

    def expr(self):
        e = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            e = Add(e, rhs) if op[0] == "+" else Sub(e, rhs)
        return e

    def term(self):
        e = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()
            rhs = self.factor()
            e = Mul(e, rhs) if op[0] == "*" else Div(e, rhs)
        return e

    def factor(self):
        e = self.unary()
        if self.peek()[0] == "^":
            self.advance()
            e = Pow(e, self.integer())
        return e

    def integer(self):
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok[0] != "num" or not re.fullmatch(r"\d+", tok[1]):
            what = f"'{tok[1]}'" if tok[0] != "end" else "end of input"
            raise ParseError(f"exponent must be an integer literal, found {what}", tok[2])
        self.advance()
        return sign * int(tok[1])

    def unary(self):
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.atom())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.advance()
            return Num(float(tok[1]))
        if tok[0] == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if tok[0] == "name":
            self.advance()
            name = tok[1]
            if name in _CONSTS:
                return Const(name)
            if name in _FUNCS:
                self.expect("(")
                arg = self.expr()
                if self.peek()[0] == ",":
                    raise ParseError(f"{name} takes one argument", self.peek()[2])
                self.expect(")")
                return Call(name, arg)
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                idx = int(m.group(1))
                if idx == 0:
                    raise UnknownSymbol("variables are numbered from x1", tok[2])
                return Var(idx)
            raise UnknownSymbol(f"unknown identifier '{name}'", tok[2])
        what = f"'{tok[1]}'" if tok[0] != "end" else "end of input"
        raise ParseError(f"expected an operand, found {what}", tok[2])


def reference_parse(text):
    return _Reference(text).parse()


class NoMemo(dict):
    """A parse memo that forgets everything: the unshared parse. The parser
    writes to its memo by item assignment only."""

    def __setitem__(self, key, value):
        pass


def outcome(parse, text):
    """The tree, or the error's type and message (which ends in the column)."""
    try:
        return parse(text)
    except (ParseError, UnknownSymbol) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Expressions whose subtrees repeat: each step combines earlier subtrees,
# so one object is referenced from several places.

_LEAVES = [Var(1), Var(2), Const("pi"), Num(0.0), Num(2.0), Num(0.5)]
_STEPS = [
    lambda a, b: Add(a, b), lambda a, b: Sub(a, b), lambda a, b: Mul(a, b),
    lambda a, b: Div(a, b), lambda a, b: Neg(a), lambda a, b: Pow(a, 2),
    lambda a, b: Pow(b, -1), lambda a, b: Call("sin", a), lambda a, b: Call("cos", a),
    lambda a, b: Call("exp", b),
    lambda a, b: Call("sqrt", Add(a, b)),
]


@st.composite
def shared_exprs(draw, steps=7):
    pool = list(_LEAVES)
    for _ in range(draw(st.integers(2, steps))):
        step = draw(st.sampled_from(_STEPS))
        pool.append(step(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return pool[-1]


def unshared(e):
    """A copy of e in which no node object occurs twice."""
    if isinstance(e, Num):
        return Num(e.value)
    if isinstance(e, Const):
        return Const(e.name)
    if isinstance(e, Var):
        return Var(e.index)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(unshared(e.a), unshared(e.b))
    if isinstance(e, Neg):
        return Neg(unshared(e.a))
    if isinstance(e, Pow):
        return Pow(unshared(e.base), e.exponent)
    return Call(e.fn, unshared(e.arg))


def distinct_nodes(*roots) -> int:
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [v for v in vars(node).values() if isinstance(v, Expr)]
    return len(seen)


def spaced(text: str) -> str:
    """text with a different number of spaces after each '(': no two
    groups have the same text, so the parse memo never hits."""
    out = []
    for k, part in enumerate(text.split("(")):
        out.append(part if k == 0 else " " * k + part)
    return "(".join(out)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(shared_exprs())
def test_memo_parse_is_the_reference_parse(e):
    text = to_string(e)
    got = parse_expr(text)
    assert got == reference_parse(text)
    assert got == parse_expr(spaced(text))
    assert to_string(got) == text
    assert distinct_nodes(got) <= distinct_nodes(parse_expr(spaced(text)))
    bare = parse_expr(text, NoMemo())
    assert bare == got and distinct_nodes(bare) == distinct_nodes(unshared(bare))


def test_a_repeated_group_is_parsed_once_into_one_node():
    text = "sin(x1 + 2) * (x2 - 1) + sin(x1 + 2) / (x2 - 1)"
    e = parse_expr(text)
    assert e.a.a is e.b.a and e.a.b is e.b.b
    # Spaced apart, the repeats are no longer equal texts, yet one node.
    spaced_parse = parse_expr(spaced(text))
    assert spaced_parse == e
    assert spaced_parse.a.a is spaced_parse.b.a and spaced_parse.a.b is spaced_parse.b.b
    bare = parse_expr(text, NoMemo())
    assert bare == e and bare.a.a is not bare.b.a and bare.a.b is not bare.b.b
    # A call's text includes its name: sin(u) and cos(u) are not one group.
    mixed = "sin(x1 + 2) * cos(x1 + 2) - (x1 + 2)"
    assert parse_expr(mixed) == reference_parse(mixed)


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(shared_exprs())
def test_compiling_a_shared_dag_gives_the_unshared_program(e):
    copies = [unshared(e), unshared(e)]
    assert copies[0] == e
    assert compile_exprs([e, e]).code == compile_exprs(copies).code
    assert compile_exprs([e, e]) == compile_exprs(copies)


_BAD_TAILS = [")", "(", "+", "1 2", "$", "x0", "y", "sin(x1, x2)", "2^x1", "foo(1)",
              "* (x1 +", "+ - -x1", "^ x1", "log x1", ". 5", "sqrt(x1", "(x1 $ 2)"]


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(shared_exprs(), st.sampled_from(_BAD_TAILS), st.integers(0, 2))
def test_errors_after_repeated_groups_match_the_unshared_parse(e, tail, where):
    t = to_string(e)
    text = [f"({t}) * sin({t}) + {tail}",
            f"sin({t}) - (({t}) {tail})",
            f"({t}) / ({t} + exp({t}) {tail}"][where]
    got = outcome(parse_expr, text)
    assume(isinstance(got, tuple))  # one tail closes the third text's group
    assert got == outcome(lambda s: parse_expr(s, NoMemo()), text)
    assert got == outcome(reference_parse, text)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(shared_exprs(steps=5), st.data())
def test_edited_texts_parse_or_fail_like_the_reference(e, data):
    # Delete, insert or replace one character: the result, or the error's
    # type, message and column, is the reference parser's.
    t = to_string(e)
    text = f"{t} + ({t})"
    i = data.draw(st.integers(0, len(text)))
    c = data.draw(st.sampled_from(list("()+-*/^, x1.e$") + ["sin(", "2", ""]))
    text = text[:i] + c + text[i + data.draw(st.integers(0, 1)):]
    assert outcome(parse_expr, text) == outcome(reference_parse, text)


_OPEN_TAILS = ["", ")", "+ (", "* sin(", "- ((x1)", "/ (x1 + 2"]
_ENTRIES = ["{a}", "({a}) * sin({b})", "sin({a}) - (({b}) ", "({a}) / ({b} + exp({a}) "]


@st.composite
def document_entries(draw):
    """The entry texts of one document: groups repeat within and across
    entries, and an entry may end in a bad or unbalanced tail or have one
    character edited."""
    shared = to_string(draw(shared_exprs(steps=5)))
    texts = []
    for _ in range(draw(st.integers(2, 6))):
        own = to_string(draw(shared_exprs(steps=5)))
        a, b = (draw(st.sampled_from([shared, own])) for _ in range(2))
        text = draw(st.sampled_from(_ENTRIES)).format(a=a, b=b)
        text += " " + draw(st.sampled_from(_OPEN_TAILS + _BAD_TAILS))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(text)))
            c = draw(st.sampled_from(list("()+-*/^, x1.e$") + ["sin(", "2", ""]))
            text = text[:i] + c + text[i + draw(st.integers(0, 1)):]
        texts.append(text)
    return texts


@seed(20261022)
@settings(max_examples=200, deadline=None)
@given(document_entries())
def test_entries_sharing_one_memo_parse_like_the_reference(texts):
    # As load_spec does: one memo for every entry of the document, which
    # interns each entry that parses, so the second read of a text is its
    # first node.
    memo: dict = {}
    for text in texts + texts[::-1]:
        assert outcome(lambda s: parse_expr(s, memo), text) == outcome(reference_parse, text)
    for text in texts:
        if isinstance(outcome(reference_parse, text), Expr):
            assert parse_expr(text, memo) is parse_expr(text, memo)


def test_entries_that_are_not_groups_parse_like_the_reference():
    # An interned entry is keyed apart from the groups: '(x1 + (x2)) * (3)'
    # has the prefix and length of the group '(x1 + (x2) * (3))' and ends in
    # ')', yet it is no group, so a later entry must not read it as one.
    texts = ["(x1 + (x2) * 3)", "(x1 + (x2)) * 3", "(x1 + (x2)) * 3 ^ 2",
             "(x1 + (x2) * (3))", "(x1 + (x2)) * (3)", "(x1 + (x2)) * (3) ^ 2"]
    for order in itertools.permutations(texts):
        memo: dict = {}
        for text in order + order:
            assert parse_expr(text, memo) == reference_parse(text), (order, text)


def many_groups(k: int) -> list:
    """k distinct groups under the one prefix '((x1)'."""
    return [f"((x1) + {i})" for i in range(1, k + 1)]


def many_lengths(k: int) -> list:
    """k groups under the one prefix '((x1)', of k lengths."""
    return ["((x1) +" + " " * i + "1)" for i in range(1, k + 1)]


@pytest.mark.parametrize("groups", [many_groups(2000), many_lengths(300)],
                         ids=["groups", "lengths"])
def test_groups_under_one_prefix_parse_like_the_reference(groups):
    text = " * ".join(groups + groups)
    got = parse_expr(text)
    assert got == reference_parse(text)
    # Each group's second occurrence is the node of its first.
    assert distinct_nodes(got) < distinct_nodes(parse_expr(text, NoMemo())) / 1.9


def test_many_groups_under_one_prefix_parse_in_bounded_time():
    text = " + ".join(many_groups(16_000))
    start = time.perf_counter()
    parse_expr(text)
    assert time.perf_counter() - start < 5.0


def test_stray_character_outranks_an_earlier_grammar_error():
    # The reference reads every token before it parses anything.
    for text in ["x1 + + $", "(x1 + ) $", "x0 # 1"]:
        assert outcome(parse_expr, text) == outcome(reference_parse, text)
        assert "unexpected character" in outcome(parse_expr, text)[1]


def test_no_memo_outlives_its_call_or_document():
    text = "sin(x1 + 2) * sin(x1 + 2)"
    assert parse_expr(text).a is not parse_expr(text).a
    a = load_spec(GOLDEN / "dense.json").bundle.edges[0].g[0][0]
    b = load_spec(GOLDEN / "dense.json").bundle.edges[0].g[0][0]
    assert a == b and a is not b


# ---------------------------------------------------------------------------
# Walkers on DAGs and on deep trees.


def doubling(n: int):
    """x1 + x1 nested n times: n + 1 distinct nodes, 2^(n+1) - 1 tree nodes."""
    e = Var(1)
    for _ in range(n):
        e = Add(e, e)
    return e


def test_walkers_visit_each_distinct_node_once():
    e = doubling(64)
    assert tree_size(compile_exprs([e])) == 2 ** 65 - 1
    assert tree_size(compile_exprs([e, Num(2.0), e])) == 2 ** 66 - 1  # a sign is no slot
    assert max_var_index(e) == 1
    assert eval_expr(e, [1.0]) == 2.0 ** 64
    assert len(compile_exprs([e]).code) == 65
    d = diff(e, 1)
    assert eval_expr(d, [0.0]) == 2.0 ** 64
    assert eval_expr(subst(e, [Num(0.5)]), []) == 2.0 ** 63
    assert to_string(doubling(3)) == "x1 + x1 + (x1 + x1) + (x1 + x1 + (x1 + x1))"


def test_a_print_memo_serves_several_calls():
    shared = Call("sin", Add(Var(1), Num(2.0)))
    memo: dict = {}
    first = to_string(Mul(shared, Var(2)), memo)
    assert id(shared) in memo
    assert to_string(Add(shared, shared), memo) == "sin(x1 + 2) + sin(x1 + 2)"
    assert first == "sin(x1 + 2) * x2"


def test_a_matrix_substitution_walks_shared_nodes_once():
    # Every entry holds the same 64-deep doubling; substituted entry by
    # entry with a memo each, the results would share no node.
    e = doubling(64)
    m = tuple(tuple(Mul(Var(1 + (i + j) % 2), e) for j in range(8)) for i in range(8))
    out = mat_subst(m, [Add(Var(1), Num(1.0)), Var(1)])
    assert distinct_nodes(*(c for row in out for c in row)) <= distinct_nodes(
        *(c for row in m for c in row)) + 2
    assert eval_expr(out[0][1], [0.5]) == 0.5 * 1.5 * 2.0 ** 64


def test_deep_nesting_parses_and_prints():
    depth = 1500
    assert parse_expr("(" * depth + "x1" + ")" * depth) == Var(1)
    text = "sin(" * depth + "x1" + ")" * depth
    assert to_string(parse_expr(text)) == text
    neg = "-(" * (depth - 1) + "-x1" + ")" * (depth - 1)
    assert to_string(parse_expr(neg)) == neg
    with pytest.raises(ParseError, match=rf"expected '\)', found end of input \(column {len(text)}\)"):
        parse_expr(text[:-1])


def test_deep_nesting_walks():
    depth = 10_000
    e = Var(1)
    for _ in range(depth):
        e = Call("sin", e)
    assert tree_size(compile_exprs([e])) == depth + 1
    assert max_var_index(e) == 1
    assert isinstance(eval_expr(e, [0.5]), float)
    assert len(compile_exprs([e]).code) == depth + 1
    assert max_var_index(diff(e, 1)) == 1
    assert max_var_index(subst(e, [Var(2)])) == 2


_FOLDS = [fold_add, fold_sub, fold_mul, fold_div, lambda a, b: fold_neg(a),
          lambda a, b: fold_pow(a, 3), lambda a, b: fold_pow(b, -2)]


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(shared_exprs(), shared_exprs(), st.integers(1, 3))
def test_top_is_the_bound_a_walk_finds(e, f, index):
    # top is set at construction from the operands'; the oracle walks.
    assert e.top == walked_top(e) and f.top == walked_top(f)
    for build in [lambda: diff(e, index), lambda: subst(e, [f, Var(3)]),
                  lambda: subst(e, [Num(2.0), Const("pi")])] + [
                      lambda fold=fold: fold(e, f) for fold in _FOLDS]:
        try:
            out = build()
        except EvalError:  # a literal zero denominator
            continue
        assert out.top == walked_top(out)


def test_top_of_a_doubling_dag_and_a_deep_chain():
    e = doubling(64)
    assert e.top == walked_top(e) == 1
    assert diff(e, 1).top == walked_top(diff(e, 1))
    chain = Var(1)
    for _ in range(10_000):
        chain = Call("sin", chain)
    for out in (chain, diff(chain, 1), subst(chain, [Var(2)]), subst(chain, [Num(1.0)])):
        assert out.top == walked_top(out)
    assert subst(chain, [Var(2)]).top == 2 and subst(chain, [Num(1.0)]).top == 0


def test_eval_errors_come_from_the_first_failing_node():
    e = parse_expr("log(x1) + 1/(x1 - x1)")
    with pytest.raises(EvalError, match="log of non-positive"):
        eval_expr(e, [-1.0])
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(e, [1.0])


# ---------------------------------------------------------------------------
# Byte-stability of the construct outputs of tests/golden/dense.json, as
# the tree-walking printer wrote them. The dual and tensor11 pins are those
# of the cocycle inverse, g_ji(tau_ij(x)) transposed.

PINNED = {
    "tensor11": "889220e3bfe1ca1656f77d06017426675d49b087906e6e1e1ab9d8f8ba953d8f",
    "tensor02": "fd630280fa727c321399078577904b8d8fd70f8a75943dbd8cefcf8484da1930",
    "dual": "99d0aeef045eeef627f35a7412381f74a0358d722a3f902fa06003c0ad8e07bc",
    "product": "249fe6961ea1034f60fdf6ab0f8197902fa84838f3dfdbd1ce7db267c66931a8",
}


# Tree and unique nodes of each output, as the size line of `vbx construct`
# counted them when it walked the expressions.
SIZES = {"tensor11": (68_952, 451), "tensor02": (62_472, 204), "dual": (4_184, 199),
         "product": (21_216, 97)}


def dense_construct(name):
    dense = load_spec(GOLDEN / "dense.json").bundle
    return {"tensor11": lambda: tensor_bundle(dense, 1, 1),
            "tensor02": lambda: tensor_bundle(dense, 0, 2),
            "dual": lambda: dual_bundle(dense),
            "product": lambda: direct_product(
                dense, load_spec(gallery_path("projective_tangent")).bundle)}[name]()


@pytest.mark.parametrize("name", sorted(SIZES))
def test_tree_and_unique_nodes_come_from_one_program(name):
    B = dense_construct(name)
    prog = compile_exprs([c for e in B.edges for row in e.g for c in row]
                         + [c for o in B.base.overlaps for c in o.tau.components])
    assert (tree_size(prog), len(prog.code)) == SIZES[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_dense_construct_outputs_keep_their_bytes(name, tmp_path):
    B = dense_construct(name)
    out = tmp_path / f"{name}.json"
    save_spec(B, out)
    data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED[name]
    again = tmp_path / f"{name}.again.json"
    save_spec(load_spec(out).bundle, again)
    assert again.read_bytes() == data


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_loaded_output_is_one_node_per_entry_text_and_checks_like_the_built_one(
        name, tmp_path, monkeypatch):
    B = dense_construct(name)
    out = tmp_path / f"{name}.json"
    save_spec(B, out)
    doc = json.loads(out.read_text())
    texts = {c for e in doc["transitions"] for row in e["g"] for c in row}
    texts |= {c for o in doc["base"]["overlaps"] for c in o["tau"]}
    L = load_spec(out).bundle
    matrices = {tuple(id(c) for row in e.g for c in row) for e in L.edges}
    maps = {tuple(map(id, o.tau.components)) for o in L.base.overlaps}
    assert len({i for key in matrices | maps for i in key}) == len(texts)

    compiled = []
    monkeypatch.setattr(calculus, "compile_exprs",
                        lambda exprs: compiled.append(exprs) or compile_exprs(exprs))
    for suite, loaded, built, distinct in ((check_base_atlas, L.base, B.base, maps),
                                           (check_vb, L, B, matrices | maps)):
        compiled.clear()
        report = report_to_json(suite(loaded, 3))
        assert 0 < len(compiled) <= len(distinct)  # one program per entry tuple
        assert report == report_to_json(suite(built, 3))


def document_nodes(doc) -> list:
    """Every distinct node object of a loaded document."""
    roots = [c for o in doc.base.overlaps for c in o.tau.components]
    if doc.bundle is not None:
        roots += [c for e in doc.bundle.edges for row in e.g for c in row]
    for A in (*doc.sections.values(), *doc.fields.values()):
        roots += [c for comps in A.per_chart.values() for c in comps]
    for F in doc.frames.values():
        roots += [c for m in F.fiber_map.values() for row in m for c in row]
    seen: dict = {}
    while roots:
        node = roots.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            roots += [v for v in vars(node).values() if isinstance(v, Expr)]
    return list(seen.values())


@pytest.fixture(scope="module")
def loaded_files(tmp_path_factory):
    """Every gallery spec and every construct output of golden dense.json."""
    work = tmp_path_factory.mktemp("outputs")
    files = [gallery_path(name) for name in list_gallery()]
    for name in sorted(PINNED):
        save_spec(dense_construct(name), work / f"{name}.json")
        files.append(work / f"{name}.json")
    return files


def test_a_load_holds_one_node_per_distinct_subexpression(loaded_files):
    for path in loaded_files:
        nodes = document_nodes(load_spec(path))
        assert len(set(nodes)) == len(nodes), path.name
        again = document_nodes(load_spec(path))
        assert not {id(n) for n in nodes} & {id(n) for n in again}, path.name


def cofactor_det(m):
    """The determinant by cofactors, each minor built afresh: the oracle."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return fold_sub(fold_mul(m[0][0], m[1][1]), fold_mul(m[0][1], m[1][0]))
    acc = Num(0.0)
    for j in range(n):
        minor = tuple(tuple(m[i][t] for t in range(n) if t != j) for i in range(1, n))
        term = fold_mul(m[0][j], cofactor_det(minor))
        acc = fold_add(acc, term) if j % 2 == 0 else fold_sub(acc, term)
    return acc


def cofactor_inverse(m):
    n = len(m)
    det = cofactor_det(m)
    if n == 1:
        return ((fold_div(Num(1.0), det),),)
    cof = [[cofactor_det(tuple(tuple(m[a][b] for b in range(n) if b != i)
                               for a in range(n) if a != j)) for j in range(n)]
           for i in range(n)]
    return tuple(tuple(fold_div(fold_neg(c) if (i + j) % 2 else c, det)
                       for j, c in enumerate(row)) for i, row in enumerate(cof))


def symbolic_matrix(d: int, zeros: bool):
    """d x d entries in x1; with zeros, a banded pattern of literal 0 and 1
    entries, so folds remove terms."""
    def entry(i, j):
        if zeros and abs(i - j) > 1:
            return "0" if (i + j) % 3 else "1"
        return f"sin(x1 + {i + 2 * j})" if i != j else f"1 + sin(x1 + {3 * i})/{d}"
    return tuple(tuple(parse_expr(entry(i, j)) for j in range(d)) for i in range(d))


@pytest.mark.parametrize("d", range(1, 7))
@pytest.mark.parametrize("zeros", [False, True])
def test_symbolic_inverse_is_the_cofactor_expansion(d, zeros):
    m = symbolic_matrix(d, zeros)
    got, want = mat_inverse(m), cofactor_inverse(m)
    assert got == want
    assert [to_string(e) for row in got for e in row] == [to_string(e) for row in want for e in row]


def test_symbolic_inverse_builds_each_minor_once():
    # Cofactor trees of a rank-8 inverse hold 8! products; built once per
    # minor they are a few thousand node objects.
    inverse = mat_inverse(symbolic_matrix(8, False))
    assert distinct_nodes(*(e for row in inverse for e in row)) < 20_000


RESTRICT_PINNED = {
    "mobius": ("mobius", {"east": [[-3, 3]], "west": [[0.5, 6]]},
               "544f5778677d244c87de79ed172aae868bbf46d4708bbc0a685f0f8ecad62d1b"),
    "mobius_wide": ("mobius", {"east": [[-3.1, 3.1]], "west": [[0.01, 6.2]]},
                    "b2100eda5bbf2572ce85ad5809b3183e80ce9139315fbf23fedd01602fc697bf"),
    "projective": ("projective_tangent", {"u": [[0.5, 2]], "v": [[0.25, 3]]},
                   "0c55e0840d35f61e6f2680542dae695771ebe6a52c8ac6a7d5502cf8bbf67b2a"),
}


@pytest.mark.parametrize("case", sorted(RESTRICT_PINNED))
def test_restrict_outputs_keep_their_bytes(case, tmp_path, capsys):
    name, regions, digest = RESTRICT_PINNED[case]
    reg = tmp_path / "regions.json"
    reg.write_text(json.dumps({"regions": regions}))
    out = tmp_path / "restricted.json"
    assert main(["construct", "restrict", str(gallery_path(name)), str(reg), "-o", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# One walk prints and counts a saved document's expressions, and the
# positional parser reads as the finditer parser it replaced.


@st.composite
def shared_roots(draw):
    """Roots sharing subtrees within and between them, over leaves with
    -0.0 and 0.0 (one text, two slots) and pi as a constant and as a
    literal (two texts, one slot)."""
    pool = _LEAVES + [Num(-0.0), Num(math.pi)]
    for _ in range(draw(st.integers(0, 8))):
        step = draw(st.sampled_from(_STEPS))
        pool.append(step(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


def prints_and_counts_as_the_oracle(roots):
    memo: dict = {}
    texts, tree, unique = print_and_count(roots, memo)
    prog = compile_exprs(roots)
    assert texts == [to_string(r) for r in roots]
    assert (tree, unique) == (tree_size(prog), len(prog.code))
    assert [to_string(r, memo) for r in roots] == texts  # memo is a print memo


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(shared_roots())
def test_one_walk_prints_as_to_string_and_counts_as_compile_exprs(roots):
    prints_and_counts_as_the_oracle(roots)


def test_one_walk_goes_deeper_than_the_recursion_limit():
    chain = Var(1)
    for i in range(sys.getrecursionlimit() + 100):
        chain = (Add(chain, Var(2)), Neg(chain), Mul(Num(0.5), chain))[i % 3]
    prints_and_counts_as_the_oracle([chain.a, Num(-0.0), chain, chain.a.a, Num(0.0)])


def test_texts_do_not_give_the_counts():
    # -0.0 and 0.0 print alike but are two slots; pi and its literal print
    # apart but are one slot.
    assert print_and_count([Num(-0.0), Num(0.0)], {}) == (["0", "0"], 2, 2)
    assert print_and_count([Const("pi"), Num(math.pi)], {}) == (["pi", repr(math.pi)], 2, 1)


_ODD_ARGS = {Num: (1.0,), Const: ("pi",), Var: (1,), Neg: (Var(2),), Add: (Var(1), Var(2)),
             Sub: (Var(1), Var(2)), Mul: (Var(1), Var(2)), Div: (Var(1), Var(2)),
             Pow: (Var(1), 2), Call: ("sin", Var(1))}


def test_a_node_class_outside_the_grammar_is_an_eval_error():
    # Every walk dispatches on the exact class: a subclass of any node class
    # is refused, not walked by its base class's rule.
    walks = (to_string, lambda e: compile_exprs([e]), lambda e: print_and_count([e], {}),
             lambda e: diff(e, 1), lambda e: subst(e, [Num(5.0), Num(6.0)]))
    for base, args in _ODD_ARGS.items():
        e = Add(Var(1), type("Odd", (base,), {})(*args))
        for walk in walks:
            with pytest.raises(EvalError, match="unknown node Odd"):
                walk(e)
    # A function outside the grammar: differentiating says what running says.
    for walk in (lambda e: diff(e, 1), lambda e: eval_expr(e, [1.0])):
        with pytest.raises(EvalError, match="^unknown function foo$"):
            walk(Call("foo", Var(1)))


# The table-driven diff and subst_all against the isinstance ladder they
# replaced (tests/diff_oracle.py): equal trees, equal texts, equal errors.


def same_as_the_oracle(walk, oracle):
    try:
        want = oracle()
    except EvalError as exc:
        with pytest.raises(EvalError) as got:
            walk()
        assert str(got.value) == str(exc)
        return
    got = walk()
    assert got == want
    assert [to_string(e) for e in got] == [to_string(e) for e in want]


@seed(20261020)
@settings(max_examples=200, deadline=None)
@given(shared_roots(), st.lists(shared_exprs(steps=4), min_size=1, max_size=2),
       st.integers(1, 3))
def test_diff_and_subst_are_the_ladder_oracles(roots, replacements, index):
    roots = roots + [Call(fn, roots[0]) for fn in ("tan", "log")]  # functions _STEPS lacks
    same_as_the_oracle(lambda: tuple(diff(e, index) for e in roots),
                       lambda: tuple(diff_oracle.diff(e, index) for e in roots))
    same_as_the_oracle(lambda: subst_all(roots, replacements),
                       lambda: diff_oracle.subst_all(roots, replacements))


@pytest.mark.parametrize("name", list_gallery())
def test_tangent_bundles_are_the_ladder_oracles(name, monkeypatch, tmp_path):
    def tangent(path):
        B = tangent_bundle(load_spec(gallery_path(name)).base)
        save_spec(B, path)
        return [c for e in B.edges for row in e.g for c in row]

    got = tangent(tmp_path / "table.json")
    monkeypatch.setattr(calculus, "diff", diff_oracle.diff)
    monkeypatch.setattr(symmat, "subst_all", diff_oracle.subst_all)
    want = tangent(tmp_path / "ladder.json")
    assert got == want
    assert (tmp_path / "table.json").read_bytes() == (tmp_path / "ladder.json").read_bytes()


def test_construct_prints_and_counts_its_output_in_one_walk(tmp_path, monkeypatch, capsys):
    compiled, printed, saved = [], [], []
    real_compile, real_save = compile_exprs, cli.save_spec
    for name, module in list(sys.modules.items()):
        if name.startswith("vbx") and getattr(module, "compile_exprs", None) is real_compile:
            monkeypatch.setattr(module, "compile_exprs", lambda exprs: compiled.append(
                tuple(exprs)) or real_compile(exprs))
    for cls, show in list(expr._PRINT.items()):
        monkeypatch.setitem(expr._PRINT, cls,
                            lambda e, t, show=show: printed.append(e) or show(e, t))
    monkeypatch.setattr(cli, "save_spec", lambda B, path: saved.append(B) or real_save(B, path))
    out = tmp_path / "t11.json"
    assert main(["construct", "tensor", str(GOLDEN / "dense.json"), "--r", "1", "--s", "1",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("fiber dim 9, 4 edges, 68952 tree")
    (B,) = saved
    entries = [c for e in B.edges for row in e.g for c in row]
    roots = [c for o in B.base.overlaps for c in o.tau.components] + entries
    # The construction compiles its input's coordinate changes, which the
    # output shares; nothing compiles the transitions it built.
    assert compiled and not {id(e) for exprs in compiled for e in exprs} & set(map(id, entries))
    assert sorted(map(id, printed)) == sorted({id(n): n for n in _nodes_under(roots)})


def _nodes_under(roots) -> list:
    seen: dict = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack += [v for v in vars(node).values() if isinstance(v, Expr)]
    return list(seen.values())


def document_parse(parse, texts) -> tuple:
    """Each text read by parse with one memo for all, as load_spec reads a
    document: the outcomes, the distinct nodes, the memo's size and its
    keys but the node keys (which hold ids)."""
    memo: dict = {}
    outcomes = [outcome(lambda s: parse(s, memo), text) for text in texts]
    trees = [o for o in outcomes if isinstance(o, Expr)]
    keys = {k for k in memo if not (isinstance(k, tuple) and len(k) > 1)}
    return outcomes, len(_nodes_under(trees)), len(memo), keys


def document_texts(doc: dict) -> list:
    """Every expression text of a document, in file order."""
    if isinstance(doc, dict):
        return [t for v in doc.values() for t in document_texts(v)]
    if isinstance(doc, list):
        return [t for v in doc for t in ([v] if isinstance(v, str) else document_texts(v))]
    return []


@pytest.mark.parametrize("name", list_gallery() + ["tensor11", "tensor02", "tensor21", "dual",
                                                   "product"])
def test_documents_parse_as_with_the_finditer_parser(name):
    if name in list_gallery():
        doc = json.loads(gallery_path(name).read_text())
    else:
        dense = load_spec(GOLDEN / "dense.json").bundle
        doc = document_to_dict(tensor_bundle(dense, 2, 1) if name == "tensor21"
                               else dense_construct(name))
    texts = document_texts(doc)
    assert texts and all(isinstance(t, str) for t in texts)
    assert document_parse(parse_expr, texts) == document_parse(parse_oracle.parse_expr, texts)


@seed(20261020)
@settings(max_examples=100, deadline=None)
@given(document_entries())
def test_entries_parse_and_fail_as_with_the_finditer_parser(texts):
    texts = texts + texts[::-1]
    assert document_parse(parse_expr, texts) == document_parse(parse_oracle.parse_expr, texts)
