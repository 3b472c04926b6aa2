"""Scalars, finite-dimensional spaces, linear maps, and ordered bases.

Everything downstream (tensors, pullbacks, bundles) consumes these types.
Values are immutable after construction and all operations are pure, so
instances may be shared freely across threads.

Conventions fixed here once and relied on everywhere:

* matrices are stored in the standard basis, column j = image of the j-th
  standard basis vector; changes of basis are explicit operations;
* the complex field uses ordinary bilinear arithmetic, never implicit
  conjugation;
* singularity is decided on |det| after row-max scaling, so the test does
  not punish badly scaled but perfectly invertible inputs.
"""

from __future__ import annotations

import enum
import math
from functools import reduce

import numpy as np

from .errors import InvalidDimension, ShapeMismatch, Singular, SingularBasis
from .record import Record, record

DEFAULT_TOL = 1e-10


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


@record
class LinearMap(Record):
    """Linear map between coordinate spaces, stored as a dense matrix.

    Attributes:
        domain: source space.
        codomain: target space.
        matrix: codomain.dim x domain.dim array; column j is the image of
            the j-th standard basis vector of the domain.
    """

    domain: VectorSpace
    codomain: VectorSpace
    matrix: np.ndarray


@record
class OrderedBasis(Record):
    """An ordered basis given by the coordinate vectors of its members.

    Attributes:
        space: the space the basis spans.
        vectors: array of shape (dim, dim); vectors[i] is basis vector i.
    """

    space: VectorSpace
    vectors: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def make_space(dim: int, field: FieldTag = FieldTag.REAL) -> VectorSpace:
    """Build a VectorSpace, rejecting non-positive dimensions."""
    if not isinstance(dim, (int, np.integer)) or dim < 1:
        raise InvalidDimension(f"space dimension must be a positive integer, got {dim!r}")
    return VectorSpace(int(dim), field)


def make_linear(domain: VectorSpace, codomain: VectorSpace, matrix) -> LinearMap:
    """Build a LinearMap after checking shape and field agreement."""
    if domain.field is not codomain.field:
        raise ShapeMismatch(
            f"domain field {domain.field.value} != codomain field {codomain.field.value}"
        )
    m = np.asarray(matrix, dtype=domain.field.dtype)
    if m.shape != (codomain.dim, domain.dim):
        raise ShapeMismatch(
            f"matrix shape {m.shape} does not match map "
            f"{domain.dim} -> {codomain.dim}"
        )
    return LinearMap(domain, codomain, _freeze(m))


def identity_linear(space: VectorSpace) -> LinearMap:
    return make_linear(space, space, np.eye(space.dim, dtype=space.field.dtype))


def apply_linear(L: LinearMap, v) -> np.ndarray:
    """Apply L to a coordinate vector of the domain."""
    vec = np.asarray(v, dtype=L.domain.field.dtype)
    if vec.shape != (L.domain.dim,):
        raise ShapeMismatch(f"vector shape {vec.shape} does not match domain dim {L.domain.dim}")
    return L.matrix @ vec


def scaled_abs_det(matrix: np.ndarray) -> float:
    """|det| after dividing each row by its largest absolute entry.

    A zero row makes the answer 0. The scaling makes the singularity
    threshold meaningful for matrices whose entries live on wildly
    different scales.
    """
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return 0.0
    return float(scaled_abs_dets(m[None])[0])


def scaled_abs_dets(stack: np.ndarray) -> np.ndarray:
    """scaled_abs_det of each matrix in an (n, d, d) stack, in one pass.

    The form depends on d alone, so each matrix gets the same answer in a
    stack of any length, alone included: for d <= 3 the cofactor expansion
    of _cofactor_scaled_abs_dets, else LAPACK's LU (_lu_scaled_abs_dets).
    Both give 0 for a matrix with a zero row.
    """
    m = np.asarray(stack)
    if m.shape[-1] <= 3:
        return _cofactor_scaled_abs_dets(m)
    return _lu_scaled_abs_dets(m)


def _cofactor_scaled_abs_dets(m: np.ndarray) -> np.ndarray:
    """scaled_abs_dets of an (n, d, d) stack with d <= 3, on entry columns.

    Every entry position is one n-long array and the determinant is the
    cofactor expansion along the first row, computed elementwise across
    the stack. Row scaling leaves every entry of modulus at most 1, so the
    expansion (at most six products of three entries) is within 64 ulp of
    1.0 (64 * 2.2e-16 = 1.4e-14) of the exact |det| of the row-scaled
    matrix, real or complex. A matrix that holds NaN after scaling (from a
    zero row, a NaN or an infinite entry) goes to _lu_scaled_abs_dets, so
    a zero row or an exactly zero pivot makes its answer 0 there.
    """
    d = m.shape[-1]
    rows = []
    with np.errstate(all="ignore"):
        for i in range(d):
            row_max = row_reduce(np.maximum, np.abs(m[:, i]))
            rows.append([m[:, i, j] / row_max for j in range(d)])
        det = np.abs(_cofactor_det(rows))
    nan = np.isnan(det)
    if nan.any():
        det[nan] = _lu_scaled_abs_dets(m[nan])
    return det


def _cofactor_det(rows):
    """The determinant of the matrix whose entries are the arrays rows[i][j],
    by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    det = 0.0
    for j, a in enumerate(rows[0]):
        term = a * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        det = det + term if j % 2 == 0 else det - term
    return det


def _lu_scaled_abs_dets(m: np.ndarray) -> np.ndarray:
    """scaled_abs_dets by LAPACK's LU, for a stack of any size."""
    row_max = np.max(np.abs(m), axis=2)
    zero_row = np.any(row_max == 0.0, axis=1)
    with np.errstate(all="ignore"):
        det = np.abs(np.linalg.det(m / np.where(row_max == 0.0, 1.0, row_max)[:, :, None]))
    return np.where(zero_row, 0.0, det)


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


def _invertible(matrix: np.ndarray, tol: float) -> bool:
    """The one singularity rule: matrix is invertible at tol when its
    scaled |det| is above tol. A non-square matrix (scaled |det| 0) and a
    NaN determinant, from a NaN or infinite entry, are singular."""
    return scaled_abs_det(matrix) > tol


def make_basis(space: VectorSpace, vectors, tol: float = DEFAULT_TOL) -> OrderedBasis:
    """Build an OrderedBasis, rejecting dependent vector lists.

    Args:
        space: the space being spanned.
        vectors: dim-length list of dim-length coordinate vectors.
        tol: threshold on the row-max-scaled |det| of the assembled matrix.

    Raises:
        ShapeMismatch: wrong count or length.
        SingularBasis: vectors dependent at the tolerance.
    """
    arr = np.asarray(vectors, dtype=space.field.dtype)
    if arr.shape != (space.dim, space.dim):
        raise ShapeMismatch(
            f"expected {space.dim} vectors of length {space.dim}, got shape {arr.shape}"
        )
    if not _invertible(arr.T, tol):
        raise SingularBasis("basis vectors are linearly dependent at the working tolerance")
    return OrderedBasis(space, _freeze(arr))


def standard_basis(space: VectorSpace) -> OrderedBasis:
    return OrderedBasis(space, _freeze(np.eye(space.dim, dtype=space.field.dtype)))


def dual_basis(b: OrderedBasis, tol: float = DEFAULT_TOL) -> OrderedBasis:
    """Dual basis of b, as covector coordinates in the standard dual basis.

    Row i of the result pairs to 1 with b.vectors[i] and to 0 with every
    other member. Concretely the rows are the rows of the inverse of the
    matrix whose columns are the basis vectors.
    """
    cols = b.vectors.T
    if not _invertible(cols, tol):
        raise SingularBasis("basis matrix is numerically singular")
    dual_rows = np.linalg.inv(cols)
    return OrderedBasis(VectorSpace(b.space.dim, b.space.field), _freeze(dual_rows))


def compose_linear(T: LinearMap, L: LinearMap) -> LinearMap:
    """The composite T after L (apply L first)."""
    if L.codomain != T.domain:
        raise ShapeMismatch(
            f"cannot compose: inner codomain {L.codomain} != outer domain {T.domain}"
        )
    return LinearMap(L.domain, T.codomain, _freeze(T.matrix @ L.matrix))


def invert_linear(L: LinearMap, tol: float = DEFAULT_TOL) -> LinearMap:
    """Inverse map, or Singular if the scaled |det| is not above tol."""
    if L.domain.dim != L.codomain.dim:
        raise ShapeMismatch(f"cannot invert a {L.codomain.dim} x {L.domain.dim} map")
    if not _invertible(L.matrix, tol):
        raise Singular("matrix is singular at the working tolerance")
    return LinearMap(L.codomain, L.domain, _freeze(np.linalg.inv(L.matrix)))


def is_gl(L: LinearMap, tol: float = DEFAULT_TOL) -> bool:
    """True iff L is square and invertible at the tolerance.

    Complex matrices are judged by the modulus of their determinant.
    Non-square maps simply return False.
    """
    return _invertible(L.matrix, tol)
