"""Open boxes, finite unions of boxes, and deterministic sampling.

Sampling uses a plain Halton sequence (prime bases, seed folded into the
start index) rather than a library generator: report bytes must be
reproducible from (inputs, seed) alone, independent of any dependency
version. Points are kept a small margin away from box faces so open-box
membership and nearby compositions are never decided by a coin flip at the
boundary.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import reduce

import numpy as np

from .errors import DomainViolation, ShapeMismatch
from .linalg import on_columns
from .record import Record, record

SAMPLE_MARGIN = 1e-6

# Window substituted for an infinite box end. Desk-scale charts are small;
# anything that truly needs far-field samples should say so with a finite box.
INF_CLAMP = 10.0

_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173,
)


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


def intersect_boxes(a: Box, b: Box) -> Box | None:
    """Intersection of two open boxes, or None when empty."""
    if a.dim != b.dim:
        raise ShapeMismatch(f"box dims differ: {a.dim} vs {b.dim}")
    lo = tuple(max(x, y) for x, y in zip(a.lo, b.lo))
    hi = tuple(min(x, y) for x, y in zip(a.hi, b.hi))
    if any(not l < h for l, h in zip(lo, hi)):
        return None
    return Box(lo, hi)


def box_inside(inner: Box, outer: Box) -> bool:
    """True when the closure of inner sits inside the closure of outer."""
    return all(a >= c and b <= d for a, b, c, d in zip(inner.lo, inner.hi, outer.lo, outer.hi))


def region_contains(boxes, x) -> bool:
    """Membership in a finite union of open boxes."""
    return any(b.contains(x) for b in boxes)


def box_mask(box: Box, X) -> np.ndarray:
    """Box.contains for each row of an (n, dim) array."""
    X = np.asarray(X, dtype=float)
    if on_columns(box.dim):
        return reduce(np.logical_and, [(c > a) & (c < b) for c, a, b in zip(X.T, box.lo, box.hi)])
    return np.all((X > box.lo) & (X < box.hi), axis=1)


def region_mask(boxes, X) -> np.ndarray:
    """region_contains for each row of an (n, dim) array."""
    inside = np.zeros(len(X), dtype=bool)
    for b in boxes:
        inside |= box_mask(b, X)
    return inside


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
    a = lo if math.isfinite(lo) else -INF_CLAMP
    b = hi if math.isfinite(hi) else INF_CLAMP
    a, b = a + SAMPLE_MARGIN, b - SAMPLE_MARGIN
    if not a < b:
        raise DomainViolation(f"interval ({lo}, {hi}) too thin to sample")
    return a, b


def sample_box(box: Box, n: int, seed: int = 0) -> np.ndarray:
    """n low-discrepancy points strictly inside the box, margin off the faces."""
    u = halton(n, box.dim, seed)
    out = np.empty_like(u)
    for k in range(box.dim):
        a, b = _sampling_interval(box.lo[k], box.hi[k])
        out[:, k] = a + (b - a) * u[:, k]
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


# Wichura's algorithm AS241 (Applied Statistics 37(3), 1988, 477-484):
# Horner coefficients, highest power first, of the numerator and
# denominator for |p - 1/2| <= 0.425, for the tails out to r = 5 and beyond.
_AS241_MID = (
    (2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
     4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
     1.3314166789178437745e+2, 3.3871328727963666080e+0),
    (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
     2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
     4.2313330701600911252e+1, 1.0))
_AS241_NEAR = (
    (7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
     1.2704582524523683826e+0, 3.6478483247632046050e+0, 5.7694972214606914055e+0,
     4.6303378461565452959e+0, 1.4234371107496835773e+0),
    (1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
     1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e+0,
     2.0531916266377588219e+0, 1.0))
_AS241_FAR = (
    (2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
     2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e+0,
     5.4637849111641143699e+0, 6.6579046435011037772e+0),
    (2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
     5.9983220655588793769e-1, 1.0))


def _ratio(coeffs: tuple, r: np.ndarray, scale=1.0) -> np.ndarray:
    """(numerator(r) * scale) / denominator(r), each by Horner's rule."""
    num, den = (c[0] * r + c[1] for c in coeffs)
    for a, b in zip(coeffs[0][2:], coeffs[1][2:]):
        num, den = num * r + a, den * r + b
    return num * scale / den


def normal_inv_cdf(p) -> np.ndarray:
    """Standard normal quantiles of probabilities p in (0, 1), elementwise.

    Each rule of statistics.NormalDist().inv_cdf (AS241) with its own
    operations in their order, on arrays: only the logarithm is numpy's,
    so results agree with it to within 2 ulp, nearly all bit for bit.
    """
    p = np.asarray(p, dtype=float)
    q = p - 0.5
    z = np.empty_like(q)
    mid = np.abs(q) <= 0.425
    qm = q[mid]
    z[mid] = _ratio(_AS241_MID, 0.180625 - qm * qm, qm)
    qt, pt = q[~mid], p[~mid]
    r = np.sqrt(-np.log(np.where(qt <= 0.0, pt, 1.0 - pt)))
    zt = np.where(r <= 5.0, _ratio(_AS241_NEAR, r - 1.6), _ratio(_AS241_FAR, r - 5.0))
    z[~mid] = np.where(qt < 0.0, -zt, zt)
    return z


def sample_argument_tuples(n: int, d: int, slots: int, seed: int = 0) -> np.ndarray:
    """n tuples of `slots` unit vectors each, shape (n, slots, d).

    One Halton stream of dimension slots*d feeds the whole tuple, so the
    joint set is low-discrepancy rather than merely marginally so.
    """
    if slots == 0:
        return np.empty((n, 0, d))
    if slots * d > len(_PRIMES):
        raise ShapeMismatch(f"{slots} slots on a {d}-dimensional space need {slots * d} "
                            f"halton dimensions; the sampler supports up to {len(_PRIMES)}")
    u = halton(n, slots * d, seed).reshape(n * slots, d)
    z = normal_inv_cdf(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < 1e-12
    if np.any(degenerate):
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        norms = np.linalg.norm(z, axis=1)
    return (z / norms[:, None]).reshape(n, slots, d)
