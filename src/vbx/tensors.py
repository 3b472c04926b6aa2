"""The algebra of dense (r,s)-tensors: evaluation, sums, products, the
graded tensor algebra, and norms.

The tensor type and its constructor are vbx.coords's (Tensor,
make_tensor, as_array, on_slots), which every command loads; this module
is library API, which no `vbx` command runs.

A type-(r,s) tensor on a d-dimensional space is a multilinear form taking
r vectors and s covectors. It is stored as a flat coefficient array of
length d^(r+s) indexed by the radix convention: linear index j in
1..d^(r+s) has digits (j_1, ..., j_{r+s}), each in 1..d, with

    j - 1 = sum_i (j_i - 1) * d^(r+s-i)

so digit 1 is the most significant. Reshaping the flat array to shape
(d,)*(r+s) in C order puts digit i on axis i; axes 1..r pair with the
vector arguments, axes r+1..r+s with the covector arguments.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

from .coords import FieldTag, Tensor, VectorSpace, _freeze, as_array, make_tensor
from .errors import IndexOutOfRange, ShapeMismatch, UnsupportedField
from .geometry import _PRIMES, halton
from .record import Record, record

# One letter per slot, up to the sampler's 40; "n" indexes the samples.
_EINSUM_LETTERS = "abcdefghijklmopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_NORM_CHUNK = 1 << 16  # entries of tensor_norm's partial contraction per chunk


@record
class GradedTensor(Record):
    """Finitely many tensors of mixed valence on one space.

    terms maps (r,s) pairs to Tensor values; absent pairs mean zero. The
    dict is treated as immutable; constructors copy and drop exact zeros.
    """

    space: VectorSpace
    terms: dict


def index_to_digits(j: int, d: int, r: int, s: int) -> tuple:
    """Digits (j_1,...,j_{r+s}) of linear index j, each in 1..d."""
    k = r + s
    total = d**k
    if not 1 <= j <= total:
        raise IndexOutOfRange(f"index {j} outside 1..{total}")
    rem = j - 1
    digits = []
    for i in range(k):
        power = d ** (k - 1 - i)
        digits.append(rem // power + 1)
        rem %= power
    return tuple(digits)


def digits_to_index(digits, d: int) -> int:
    """Inverse of index_to_digits."""
    j = 0
    for g in digits:
        if not 1 <= g <= d:
            raise IndexOutOfRange(f"digit {g} outside 1..{d}")
        j = j * d + (g - 1)
    return j + 1


def zero_tensor(space: VectorSpace, r: int, s: int) -> Tensor:
    return make_tensor(space, r, s, np.zeros(space.dim ** (r + s)))


def basis_tensor(j: int, d: int, r: int, s: int, field: FieldTag = FieldTag.REAL) -> Tensor:
    """The j-th standard basis tensor: a single unit coefficient at index j."""
    space = VectorSpace(d, field)
    total = d ** (r + s)
    if not 1 <= j <= total:
        raise IndexOutOfRange(f"index {j} outside 1..{total}")
    coeffs = np.zeros(total, dtype=field.dtype)
    coeffs[j - 1] = 1.0
    return Tensor(space, r, s, _freeze(coeffs))


def _coerce_arg(v, d: int, dtype, what: str) -> np.ndarray:
    try:
        arr = np.asarray(v, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{what} not convertible to the tensor's field") from exc
    if arr.shape != (d,):
        raise ShapeMismatch(f"{what} has shape {arr.shape}, expected ({d},)")
    return arr


def tensor_eval(T: Tensor, vectors=(), covectors=()):
    """Evaluate T on r coordinate vectors and s coordinate covectors.

    Plain bilinear contraction in every slot; complex inputs are never
    conjugated.
    """
    d = T.space.dim
    dtype = T.space.field.dtype
    if len(vectors) != T.r or len(covectors) != T.s:
        raise ShapeMismatch(
            f"tensor of valence ({T.r},{T.s}) got {len(vectors)} vectors "
            f"and {len(covectors)} covectors"
        )
    out = as_array(T)
    for v in vectors:
        out = np.tensordot(_coerce_arg(v, d, dtype, "vector"), out, axes=(0, 0))
    for u in covectors:
        out = np.tensordot(_coerce_arg(u, d, dtype, "covector"), out, axes=(0, 0))
    value = complex(out) if T.space.field is FieldTag.COMPLEX else float(out)
    return value


def _check_same_type(A: Tensor, B: Tensor, op: str) -> None:
    if A.space != B.space:
        raise ShapeMismatch(f"{op}: spaces differ ({A.space} vs {B.space})")
    if (A.r, A.s) != (B.r, B.s):
        raise ShapeMismatch(f"{op}: valences differ ({A.valence} vs {B.valence})")


def tensor_add(A: Tensor, B: Tensor) -> Tensor:
    _check_same_type(A, B, "tensor_add")
    return Tensor(A.space, A.r, A.s, _freeze(A.coeffs + B.coeffs))


def scalar_mul(c, A: Tensor) -> Tensor:
    if A.space.field is FieldTag.REAL and isinstance(c, complex):
        raise ShapeMismatch("complex scalar on a real tensor")
    return Tensor(A.space, A.r, A.s, _freeze(c * A.coeffs))


def tensor_product(A: Tensor, B: Tensor) -> Tensor:
    """Tensor product; A consumes the leading argument slots.

    (A (x) B)(v_1..v_{r+p}, u_1..u_{s+q}) =
        A(v_1..v_r, u_1..u_s) * B(v_{r+1}.., u_{s+1}..).
    A factor of valence (0,0) degenerates to scalar scaling.
    """
    if A.space != B.space:
        raise ShapeMismatch(f"tensor_product: spaces differ ({A.space} vs {B.space})")
    r, s, p, q = A.r, A.s, B.r, B.s
    outer = np.tensordot(as_array(A), as_array(B), axes=0)
    # outer axes: (A-vec, A-cov, B-vec, B-cov); interleave to
    # (A-vec, B-vec, A-cov, B-cov) per the slot order above.
    perm = (
        list(range(r))
        + [r + s + i for i in range(p)]
        + [r + i for i in range(s)]
        + [r + s + p + i for i in range(q)]
    )
    out = outer.transpose(perm) if perm else outer
    return Tensor(A.space, r + p, s + q, _freeze(out.reshape(-1)))


def make_graded(space: VectorSpace, terms: dict) -> GradedTensor:
    clean = {}
    for key in sorted(terms):
        t = terms[key]
        if t.space != space or (t.r, t.s) != tuple(key):
            raise ShapeMismatch(f"graded term at key {key} does not match its tensor")
        if np.any(t.coeffs != 0):
            clean[(t.r, t.s)] = t
    return GradedTensor(space, clean)


def graded_add(X: GradedTensor, Y: GradedTensor) -> GradedTensor:
    if X.space != Y.space:
        raise ShapeMismatch("graded_add: spaces differ")
    out = dict(X.terms)
    for key, t in Y.terms.items():
        out[key] = tensor_add(out[key], t) if key in out else t
    return make_graded(X.space, out)


def graded_product(X: GradedTensor, Y: GradedTensor) -> GradedTensor:
    """Bilinear extension of tensor_product, accumulated by valence."""
    if X.space != Y.space:
        raise ShapeMismatch("graded_product: spaces differ")
    out: dict = {}
    for (r1, s1), t1 in sorted(X.terms.items()):
        for (r2, s2), t2 in sorted(Y.terms.items()):
            key = (r1 + r2, s1 + s2)
            prod = tensor_product(t1, t2)
            out[key] = tensor_add(out[key], prod) if key in out else prod
    return make_graded(X.space, out)


def components_of(T: Tensor) -> np.ndarray:
    """Coefficient list; entry j-1 equals T on the j-th basis argument tuple."""
    return np.array(T.coeffs, copy=True)


def reconstruct(components, d: int, r: int, s: int, field: FieldTag = FieldTag.REAL) -> Tensor:
    arr = np.asarray(components, dtype=field.dtype).reshape(-1)
    if arr.size != d ** (r + s):
        raise ShapeMismatch(f"need {d ** (r + s)} components, got {arr.size}")
    return make_tensor(VectorSpace(d, field), r, s, arr)


def dual_norm(alpha: Tensor) -> float:
    """Operator norm of a covector over the Euclidean unit ball.

    With the Euclidean ground norm the supremum is attained at
    v = alpha/|alpha|, so the answer is just the Euclidean norm of the
    coefficient vector; no sampling involved.
    """
    if alpha.space.field is not FieldTag.REAL:
        raise UnsupportedField("dual_norm is defined for the real field")
    if (alpha.r, alpha.s) != (1, 0):
        raise ShapeMismatch(f"dual_norm expects a (1,0)-tensor, got {alpha.valence}")
    return float(np.linalg.norm(alpha.coeffs))


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
    z = np.vectorize(NormalDist().inv_cdf, otypes=[float])(np.clip(u, 1e-12, 1.0 - 1e-12))
    norms = np.linalg.norm(z, axis=1)
    degenerate = norms < 1e-12
    if np.any(degenerate):
        z[degenerate] = 0.0
        z[degenerate, 0] = 1.0
        norms = np.linalg.norm(z, axis=1)
    return (z / norms[:, None]).reshape(n, slots, d)


def tensor_norm(T: Tensor, budget: int = 10_000, seed: int = 0) -> tuple:
    """Certified bracket (lower, upper) for the injective tensor norm.

    lower: best |T(args)| over `budget` quasi-random tuples of unit
    vectors (unit Euclidean covectors on covector slots; the Euclidean
    norm is its own dual). upper: Frobenius norm of the coefficients,
    valid by Cauchy-Schwarz one slot at a time. Exact computation is
    NP-hard in general, hence a bracket rather than a point value.
    The tuples come from one Halton stream of (r+s)*dim coordinates, which
    must be at most 40.
    """
    if T.space.field is not FieldTag.REAL:
        raise UnsupportedField("tensor_norm is defined for the real field")
    d = T.space.dim
    slots = T.r + T.s
    upper = float(np.linalg.norm(T.coeffs))
    if slots == 0:
        value = abs(float(T.coeffs[0]))
        return value, value
    if upper == 0.0:
        return 0.0, 0.0
    tuples = sample_argument_tuples(budget, d, slots, seed)
    arr = as_array(T)
    letters = _EINSUM_LETTERS[:slots]
    eq = letters + "," + ",".join("n" + c for c in letters) + "->n"
    # The coefficients meet the first slot's vectors (one matrix product),
    # then each further slot's; chunks of rows bound the intermediate.
    path = ["einsum_path", (0, 1), *((0, k) for k in range(slots - 1, 0, -1))]
    step = max(1, _NORM_CHUNK // d ** (slots - 1))
    values = np.concatenate([
        np.einsum(eq, arr, *(tuples[i:i + step, k, :] for k in range(slots)), optimize=path)
        for i in range(0, budget, step)])
    lower = float(np.max(np.abs(values)))
    return lower, upper
