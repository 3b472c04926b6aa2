"""Deterministic sampling of open boxes and finite unions of them.

The check suites sample every identity they verify here; the boxes
themselves are vbx.coords's. Sampling uses a plain Halton sequence (prime
bases, seed folded into the start index) rather than a library generator:
report bytes must be reproducible from (inputs, seed) alone, independent
of any dependency version. Points are kept a small margin away from box
faces so open-box membership and nearby compositions are never decided by
a coin flip at the boundary.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .coords import Box
from .errors import DomainViolation, ShapeMismatch

SAMPLE_MARGIN = 1e-6

# Window substituted for an infinite box end. Desk-scale charts are small;
# anything that truly needs far-field samples should say so with a finite box.
INF_CLAMP = 10.0
_FLOAT_MAX = math.nextafter(math.inf, 0.0)  # the largest finite float

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)


def halton(n: int, dims: int, seed: int = 0) -> np.ndarray:
    """n points of the Halton sequence in (0,1)^dims, read-only.

    The seed shifts the start index, so distinct seeds give distinct but
    equally well-spread point sets and equal seeds give identical bytes.
    Inside a sampling_scope each distinct point set is computed once.
    """
    if dims > len(_PRIMES):
        raise ShapeMismatch(f"halton sampler supports up to {len(_PRIMES)} dimensions")
    key = (n, dims, 1 + (int(seed) % 100_003))
    memo = scope_memo("halton")
    if key not in memo:
        memo[key] = _halton_kernel(*key)
    return memo[key]


def _halton_kernel(n: int, dims: int, start: int) -> np.ndarray:
    out = np.empty((n, dims), dtype=float)
    for k in range(dims):
        base, steps, last = _PRIMES[k], 0, start + n - 1
        while last > 0:
            steps, last = steps + 1, last // base
        # The digit loop of the radical inverse, run on all rows at once in
        # the scalar order, once per digit of the largest index: f is the
        # same for every row at each step, and a row whose index has run out
        # of digits only adds 0.0.
        i, digit = np.arange(start, start + n, dtype=np.int64), np.empty(n, dtype=np.int64)
        f, x = 1.0, np.zeros(n)
        for _ in range(steps):
            f /= base
            np.divmod(i, base, out=(i, digit))
            x += f * digit
        out[:, k] = x
    out.flags.writeable = False
    return out


# The memos of the open sampling scope by name, else None: "halton" holds
# point sets by (n, dims, start), "regions" region samples by (id(region),
# n, seed), "programs" the check suites' compiled programs (see
# calculus._Trial.program).
_point_sets: dict | None = None


def scope_memo(name: str) -> dict:
    """The open sampling scope's memo called name; a new dict, which no one
    else holds, when no scope is open."""
    return {} if _point_sets is None else _point_sets.setdefault(name, {})


@contextmanager
def sampling_scope():
    """Share Halton point sets, region samples and compiled programs among
    the calls inside, as a with-block or a decorator. Nested scopes join
    the outermost, whose exit drops them."""
    global _point_sets
    if _point_sets is not None:
        yield
        return
    _point_sets = {}
    try:
        yield
    finally:
        _point_sets = None


def _sampling_interval(lo: float, hi: float) -> tuple:
    """(lo, hi) less SAMPLE_MARGIN at each end, an infinite end at -INF_CLAMP
    or INF_CLAMP or, where that leaves nothing, past the finite end instead."""
    a = lo if math.isfinite(lo) else -INF_CLAMP
    b = hi if math.isfinite(hi) else INF_CLAMP
    if not a + SAMPLE_MARGIN < b - SAMPLE_MARGIN and math.isinf(lo) != math.isinf(hi):
        w = max(INF_CLAMP, abs(b if math.isinf(lo) else a) / 2**20)  # a width rounding keeps
        a, b = (max(b - w, -_FLOAT_MAX), b) if math.isinf(lo) else (a, min(a + w, _FLOAT_MAX))
    a, b = a + SAMPLE_MARGIN, b - SAMPLE_MARGIN
    if not a < b or not math.nextafter(lo, hi) < hi:  # no float strictly inside
        raise DomainViolation(f"interval ({lo}, {hi}) too thin to sample")
    return a, b


def sample_box(box: Box, n: int, seed: int = 0) -> np.ndarray:
    """n low-discrepancy points strictly inside the box, margin off the faces.
    Where the margin is below a face's ulp, a point rounded onto the face
    moves to the next float inside."""
    u = halton(n, box.dim, seed)
    out = np.empty_like(u)
    for k, (lo, hi) in enumerate(zip(box.lo, box.hi)):
        a, b = _sampling_interval(lo, hi)
        if b - a < math.inf:
            out[:, k] = a + (b - a) * u[:, k]
        else:  # wider than the float range: two half steps from a
            t = (b / 2 - a / 2) * u[:, k]
            out[:, k] = (a + t) + t
        np.clip(out[:, k], math.nextafter(lo, hi), math.nextafter(hi, lo), out=out[:, k])
    return out


def sample_region(boxes, n: int, seed: int = 0) -> np.ndarray:
    """n points spread over a finite union of boxes, split evenly by count,
    read-only. Inside a sampling_scope each (region, n, seed) is sampled
    once; the memo holds the region, so its id is not reused meanwhile."""
    memo = scope_memo("regions")
    key = (id(boxes), n, seed)
    if key not in memo:
        memo[key] = boxes, _sample_region(list(boxes), n, seed)
    return memo[key][1]


def _sample_region(boxes: list, n: int, seed: int) -> np.ndarray:
    if not boxes:
        raise DomainViolation("cannot sample an empty region")
    k = len(boxes)
    counts = [n // k + (1 if i < n % k else 0) for i in range(k)]
    parts = [
        sample_box(b, c, seed + 7919 * i)
        for i, (b, c) in enumerate(zip(boxes, counts))
        if c > 0
    ]
    out = np.vstack(parts)
    out.flags.writeable = False
    return out
