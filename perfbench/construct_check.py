"""Numerical check of the spec files `vbx construct` writes.

Every transition of a written spec is evaluated at two seeded points of its
overlap and compared with the matrix its construction must give there,
computed with numpy from the input specs:

    tensor --r R --s S   kron of R copies of inv(G)^T, then S copies of G
    dual                 inv(G)^T
    tangent              inv(D tau), with D tau by central differences
    product              block_diag(G1 or I, G2 or I) at the factor points

where G is the input's transition over the same overlap. Entry texts are
parsed and evaluated with `vbx.expr`, whose values the benchmark's `vbx
eval` operations compare with Python's math module. Of a matrix with more
than MAX_ENTRIES entries, MAX_ENTRIES spread over it are compared, so that
checking a dense construct output costs little beside building it.
"""

from __future__ import annotations

import numpy as np

POINTS = 2  # per transition
MAX_ENTRIES = 9  # compared per transition matrix
RTOL, ATOL = 1e-6, 1e-9  # central differences are good to about 1e-9
FD_STEP = 1e-6


def seeded_point(box: list, seed: int, k: int) -> list:
    """A point in the middle 80% of the box, from (seed, k) only."""
    point = []
    for axis, (lo, hi) in enumerate(box):
        u = ((seed * 0.6180339887498949 + k * 0.7548776662466927 + axis * 0.5698402909980532)
             % 1.0)
        point.append(round(lo + (hi - lo) * (0.1 + 0.8 * u), 6))
    return point


class _Evaluator:
    """Parses each entry text once and evaluates it at points."""

    def __init__(self):
        from vbx import expr

        self._expr = expr
        self._parsed: dict = {}

    def __call__(self, text: str, point) -> float:
        tree = self._parsed.get(text)
        if tree is None:
            tree = self._parsed[text] = self._expr.parse_expr(text)
        return float(self._expr.eval_expr(tree, list(point)))

    def matrix(self, rows: list, point) -> np.ndarray:
        return np.array([[self(t, point) for t in row] for row in rows])


def edges(doc: dict) -> list:
    """(overlap, transition matrix texts) pairs, a transition attached to the
    k-th overlap of its (from, to) pair in declaration order, as vbx does."""
    groups: dict = {}
    for t in doc.get("transitions", []):
        groups.setdefault((t["from"], t["to"]), []).append(t["g"])
    seen: dict = {}
    out = []
    for o in doc["base"]["overlaps"]:
        pair = (o["from"], o["to"])
        k = seen[pair] = seen.get(pair, -1) + 1
        gs = groups.get(pair, [])
        out.append((o, gs[k] if k < len(gs) else None))
    return out


def _contains(region: list, x) -> bool:
    return any(all(lo <= v <= hi for v, (lo, hi) in zip(x, box)) for box in region)


def _tensor(g: np.ndarray, r: int, s: int) -> np.ndarray:
    out = np.eye(1)
    inv_t = np.linalg.inv(g).T
    for m in [inv_t] * r + [g] * s:
        out = np.kron(out, m)
    return out


def _jacobian(ev: _Evaluator, tau: list, x: list) -> np.ndarray:
    cols = []
    for b in range(len(x)):
        h = FD_STEP * max(1.0, abs(x[b]))
        up, down = list(x), list(x)
        up[b] += h
        down[b] -= h
        cols.append([(ev(t, up) - ev(t, down)) / (2 * h) for t in tau])
    return np.array(cols).T


def _factor(ev: _Evaluator, doc: dict, frm: str, to: str, x: list) -> np.ndarray | None:
    """The factor transition of a product overlap at the factor point x."""
    if frm == to:
        return np.eye(doc["fiber"]["dim"])
    for o, g in edges(doc):
        if (o["from"], o["to"]) == (frm, to) and _contains(o["region"], x):
            return ev.matrix(g, x)
    return None


def _expected(ev: _Evaluator, argv: list, docs: list, o: dict, index: int, x: list):
    kind = argv[1]
    if kind in ("tensor", "dual"):
        r, s = (int(argv[argv.index("--r") + 1]), int(argv[argv.index("--s") + 1])) \
            if kind == "tensor" else (1, 0)
        return _tensor(ev.matrix(edges(docs[0])[index][1], x), r, s)
    if kind == "tangent":
        return np.linalg.inv(_jacobian(ev, o["tau"], x))
    if kind == "product":
        m1 = docs[0]["base"]["dim"]
        (c1, c2), (d1, d2) = o["from"].split("|"), o["to"].split("|")
        g1 = _factor(ev, docs[0], c1, d1, x[:m1])
        g2 = _factor(ev, docs[1], c2, d2, x[m1:])
        if g1 is None or g2 is None:
            return None
        n1, n2 = len(g1), len(g2)
        out = np.zeros((n1 + n2, n1 + n2))
        out[:n1, :n1], out[n1:, n1:] = g1, g2
        return out
    raise ValueError(f"no expected matrix for construction {kind!r}")


def _entries(n: int) -> list:
    """MAX_ENTRIES (row, column) positions spread over an n x n matrix."""
    flat = range(n * n) if n * n <= MAX_ENTRIES else sorted(
        {round(k * (n * n - 1) / (MAX_ENTRIES - 1)) for k in range(MAX_ENTRIES)})
    return [divmod(f, n) for f in flat]


def mismatch(argv: list, inputs: list, out: dict, seed: int) -> str:
    """Empty if the written spec `out` is the construction `argv` of the
    input specs `inputs` at every compared point and entry, else why not."""
    ev = _Evaluator()
    for index, (o, g) in enumerate(edges(out)):
        if g is None:
            return f"overlap {o['from']}->{o['to']} has no transition"
        for k in range(POINTS):
            x = seeded_point(o["region"][0], seed, POINTS * index + k)
            want = _expected(ev, argv, inputs, o, index, x)
            if want is None or want.shape != (len(g), len(g)):
                return f"transition {index} ({o['from']}->{o['to']}): no matching input"
            for i, j in _entries(len(g)):
                got = ev(g[i][j], x)
                if not np.isclose(got, want[i, j], rtol=RTOL, atol=ATOL):
                    return (f"transition {index} ({o['from']}->{o['to']}) entry ({i},{j}) "
                            f"at {x}: {got!r}, expected {float(want[i, j])!r}")
    return ""
