"""Coordinates: scalar fields and coordinate spaces, dense tensors by their
coefficients (radix order, see vbx.tensors), open boxes, and the
per-sample forms. Every `vbx` command loads this layer; the library's
operations on these values live in vbx.linalg, vbx.tensors and
vbx.intervals. The complex field uses ordinary bilinear arithmetic, never
implicit conjugation, and boxes are open: membership is strict.
"""

from __future__ import annotations

import enum
import math
from functools import reduce

import numpy as np

from .errors import ShapeMismatch
from .record import Record, record


class FieldTag(enum.Enum):
    """Ground field marker. The value doubles as the JSON spelling."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> type:
        return np.complex128 if self is FieldTag.COMPLEX else np.float64


@record
class VectorSpace(Record):
    """A finite-dimensional coordinate space over a fixed field."""

    dim: int
    field: FieldTag


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def on_columns(k: int) -> bool:
    """Whether work on samples of k entries each is done as about k numpy
    calls on entry columns, one per entry position across the samples,
    rather than as numpy's own call over the short axes of the stack.

    The rule reads the entry count alone, never the number of samples, so
    a result never depends on how the samples are batched; the forms it
    picks between give the same bits, and it picks only a speed. numpy
    spends a fixed time per sample reducing a short trailing axis, so the
    column loop wins on many samples of few entries and loses by a fixed
    cost per call on few samples. Timed on a 2-core x86-64 host with
    numpy 2.4, a loop over the columns beat the axis reduction
      np.maximum:     from n = 8, 16, 24, 192, 384, 1536 at k = 2, 3, 4, 9,
                      25, 49, and at no n up to 3072 at k = 81;
      np.logical_and: from n = 32, 48, 96, 192, about 1536 at k = 2, 3, 4,
                      9, 25, and at no n up to 3072 at k = 49 or 81;
    and at n = 3 it lost by about 20 us a call on 25 entries. Hence columns
    for k <= 25.
    """
    return 0 < k <= 25


def row_reduce(ufunc, A: np.ndarray) -> np.ndarray:
    """ufunc.reduce over all entries of each A[i], for an (n, ...) array A:
    a loop over the entry columns when on_columns says so, else numpy's
    reduction over the flattened entries. The ufuncs reduced here
    (np.maximum, np.logical_and) give the same bits in either order."""
    M = A.reshape(len(A), math.prod(A.shape[1:]))
    if on_columns(M.shape[1]):
        return reduce(ufunc, M.T)
    return ufunc.reduce(M, axis=1)


# ---------------------------------------------------------------------------
# Dense tensors.


@record
class Tensor(Record):
    """A dense (r,s)-tensor; r vector slots, s covector slots."""

    space: VectorSpace
    r: int
    s: int
    coeffs: np.ndarray

    @property
    def valence(self) -> tuple:
        return (self.r, self.s)


def make_tensor(space: VectorSpace, r: int, s: int, coeffs) -> Tensor:
    if r < 0 or s < 0:
        raise ShapeMismatch(f"valence must be non-negative, got ({r}, {s})")
    try:
        arr = np.asarray(coeffs, dtype=space.field.dtype).reshape(-1)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"coefficients not convertible to {space.field.value}: {exc}") from exc
    want = space.dim ** (r + s)
    if arr.size != want:
        raise ShapeMismatch(f"need {want} coefficients for d={space.dim}, (r,s)=({r},{s}); got {arr.size}")
    return Tensor(space, r, s, _freeze(arr))


def as_array(T: Tensor) -> np.ndarray:
    """Coefficients reshaped to (d,)*(r+s), digit i on axis i."""
    d = T.space.dim
    return T.coeffs.reshape((d,) * (T.r + T.s))


def on_slots(T: np.ndarray, mats) -> np.ndarray:
    """A stack of tensors, T[i] an array with one axis per slot, with
    mats[k] applied on slot k (M @ along its axis): M one matrix for every
    tensor, or a stack of one per tensor."""
    for k, M in enumerate(mats):
        moved = np.moveaxis(T, k + 1, 1)
        out = M @ moved.reshape(moved.shape[:2] + (math.prod(moved.shape[2:]),))
        T = np.moveaxis(out.reshape(out.shape[:2] + moved.shape[2:]), 1, k + 1)
    return T


# ---------------------------------------------------------------------------
# Open boxes and finite unions of them.


@record
class Box(Record):
    """Open axis-aligned box: the product of open intervals (lo_i, hi_i).

    Ends may be infinite. Construction is via make_box, which validates.
    """

    lo: tuple
    hi: tuple

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, x) -> bool:
        """Strict interior membership."""
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.dim,):
            return False
        for v, a, b in zip(pt, self.lo, self.hi):
            if not (a < v < b):
                return False
        return True


def make_box(bounds) -> Box:
    """Build a Box from [(lo, hi), ...]; every interval must be nonempty."""
    lo, hi = [], []
    for k, pair in enumerate(bounds):
        if len(pair) != 2:
            raise ShapeMismatch(f"box bound {k} must be a (lo, hi) pair")
        a, b = float(pair[0]), float(pair[1])
        if math.isnan(a) or math.isnan(b) or not a < b:
            raise ShapeMismatch(f"box bound {k} is empty or invalid: ({a}, {b})")
        lo.append(a)
        hi.append(b)
    if not lo:
        raise ShapeMismatch("box must have at least one coordinate")
    return Box(tuple(lo), tuple(hi))


def box_inside(inner: Box, outer: Box) -> bool:
    """True when inner has outer's dim and its closure sits inside outer's."""
    return inner.dim == outer.dim and all(
        a >= c and b <= d for a, b, c, d in zip(inner.lo, inner.hi, outer.lo, outer.hi))


def region_contains(boxes, x) -> bool:
    """Membership in a finite union of open boxes."""
    return any(b.contains(x) for b in boxes)


def inside(X, lo, hi) -> np.ndarray:
    """Strict membership of each row of an (n, dim) array X in boxes whose
    bounds on coordinate c, lo[c] and hi[c], broadcast against column c of
    X: numbers for one box, or arrays of boxes; one comparison per column."""
    return reduce(np.logical_and, [(c > a) & (c < b) for c, a, b in zip(X.T, lo, hi)])


def in_regions(X, regions, which) -> np.ndarray:
    """[k, row]: whether region which[k, row] of regions (tuples of boxes;
    -1 for none) holds row `row` of an (n, dim) array X; which has a
    column per row, or one column for all rows. Every box is tested at once."""
    empty = (np.inf,) * X.shape[1], (-np.inf,) * X.shape[1]  # the bounds of a box of no point
    w = max(map(len, regions), default=0)
    bounds = np.array([[(b.lo, b.hi) for b in r] + [empty] * (w - len(r)) for r in [*regions, ()]],
                      dtype=float).reshape(len(regions) + 1, w, 2, X.shape[1])
    lo, hi = bounds[which].transpose(3, 4, 0, 2, 1)  # [coordinate][k, box, row]
    return np.logical_or.reduce(inside(X, lo, hi), axis=1)
