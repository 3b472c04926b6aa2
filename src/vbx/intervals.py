"""Certified enclosures: a compiled program run on boxes, and boxes
covered by unions of boxes.

enclose runs a vbx.expr program on a batch of boxes, a slot a (lo, hi)
pair of (n,) arrays: a monotone operation applies its point rule
(expr._pow_batch, expr._func_batch), failures too, to each bound, and
min/max keep Python's first-wins order. Bounds round to nearest, not yet
outward. base_restriction certifies with them that a coordinate change
maps a box into a region (vbx.constructions); no other command runs them.
"""

from __future__ import annotations

import math

import numpy as np

from .coords import Box, box_inside
from .errors import ShapeMismatch
from .expr import (
    _ADD,
    _DIV,
    _LIT,
    _MUL,
    _NEG,
    _POW,
    _SUB,
    _VAR,
    Program,
    _func_batch,
    _pow_batch,
)

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
# Boxes against unions of boxes.


def intersect_boxes(a: Box, b: Box) -> Box | None:
    """Intersection of two open boxes, or None when empty."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"box dims differ: {a.dim} vs {b.dim}")
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(not l < h for l, h in zip(lo, hi)):
        return None
    return Box(lo, hi)


def box_minus(e: Box, u: Box) -> list:
    """The part of e outside u, as disjoint boxes (axis-aligned sweep)."""
    out = []
    lo, hi = list(e.lo), list(e.hi)
    for ax in range(e.dim):
        if lo[ax] < u.lo[ax]:
            cap = min(hi[ax], u.lo[ax])
            if lo[ax] < cap:
                phi = list(hi)
                phi[ax] = cap
                out.append(Box(tuple(lo), tuple(phi)))
            lo[ax] = max(lo[ax], u.lo[ax])
        if hi[ax] > u.hi[ax]:
            cap = max(lo[ax], u.hi[ax])
            if cap < hi[ax]:
                plo = list(lo)
                plo[ax] = cap
                out.append(Box(tuple(plo), tuple(hi)))
            hi[ax] = min(hi[ax], u.hi[ax])
        if not lo[ax] < hi[ax]:
            return out
    return out


def box_covered(e: Box, boxes) -> bool:
    """Closure containment of e in the union of the closures of boxes.

    Exact for positive-width e: peels one strictly overlapping box at a
    time and recurses on the remainder. Degenerate remainder slices lie
    on the face of the box just removed, hence inside the union.
    """
    if any(not a < b for a, b in zip(e.lo, e.hi)):
        return True
    for k, u in enumerate(boxes):
        if box_inside(e, u):
            return True
        if all(max(a, c) < min(b, d)
               for a, b, c, d in zip(e.lo, e.hi, u.lo, u.hi)):
            rest = list(boxes[:k]) + list(boxes[k + 1:])
            return all(box_covered(p, rest) for p in box_minus(e, u))
    return False
