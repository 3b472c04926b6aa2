"""Linear maps between coordinate spaces, ordered bases, and the
singularity rule on one matrix.

The spaces themselves, FieldTag and VectorSpace, are vbx.coords's; the
determinants of matrix stacks that the checks take are vbx.dets's. This
module is library API: no `vbx` command runs it. Values are immutable
after construction and all operations are pure, so instances may be
shared freely across threads.

Conventions fixed here once and relied on everywhere:

* matrices are stored in the standard basis, column j = image of the j-th
  standard basis vector; changes of basis are explicit operations;
* singularity is decided on |det| after row-max scaling (see vbx.dets), so
  the test does not punish badly scaled but perfectly invertible inputs.
"""

from __future__ import annotations

import numpy as np

from .coords import FieldTag, VectorSpace, _freeze
from .dets import DEFAULT_TOL, scaled_abs_dets
from .errors import InvalidDimension, ShapeMismatch, Singular, SingularBasis
from .record import Record, record


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
