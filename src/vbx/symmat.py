"""Small symbolic matrices over expression entries.

Constructed bundles need their transition matrices as expressions so the
results stay serializable: tensor and hom bundles divide by a symbolic
determinant, tangent bundles differentiate coordinate changes. Cofactor
expansion is exponential in principle but these matrices are fiber-sized
(a handful of rows), which is exactly the desk scale this engine targets.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .expr import Expr, Num, fold_add, fold_div, fold_mul, fold_neg, fold_sub, subst

Matrix = tuple  # tuple of row tuples of Expr


def mat_identity(d: int) -> Matrix:
    return tuple(
        tuple(Num(1.0) if i == j else Num(0.0) for j in range(d)) for i in range(d)
    )


def mat_shape(m: Matrix) -> tuple:
    return (len(m), len(m[0]))


def mat_transpose(m: Matrix) -> Matrix:
    rows, cols = mat_shape(m)
    return tuple(tuple(m[i][j] for i in range(rows)) for j in range(cols))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = mat_shape(a)
    k2, m = mat_shape(b)
    if k != k2:
        raise ShapeMismatch(f"cannot multiply {n}x{k} by {k2}x{m}")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc: Expr = Num(0.0)
            for t in range(k):
                acc = fold_add(acc, fold_mul(a[i][t], b[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_vec(m: Matrix, v) -> tuple:
    n, k = mat_shape(m)
    if k != len(v):
        raise ShapeMismatch(f"cannot apply {n}x{k} to a vector of length {len(v)}")
    out = []
    for i in range(n):
        acc: Expr = Num(0.0)
        for t in range(k):
            acc = fold_add(acc, fold_mul(m[i][t], v[t]))
        out.append(acc)
    return tuple(out)


def mat_det(m: Matrix) -> Expr:
    n, c = mat_shape(m)
    if n != c:
        raise ShapeMismatch("determinant of a non-square matrix")
    if n == 1:
        return m[0][0]
    if n == 2:
        return fold_sub(fold_mul(m[0][0], m[1][1]), fold_mul(m[0][1], m[1][0]))
    acc: Expr = Num(0.0)
    for j in range(n):
        minor = tuple(
            tuple(m[i][t] for t in range(n) if t != j) for i in range(1, n)
        )
        term = fold_mul(m[0][j], mat_det(minor))
        acc = fold_add(acc, term) if j % 2 == 0 else fold_sub(acc, term)
    return acc


def mat_inverse(m: Matrix) -> Matrix:
    """Adjugate over determinant; entries stay inside the expression DSL."""
    n, c = mat_shape(m)
    if n != c:
        raise ShapeMismatch("inverse of a non-square matrix")
    det = mat_det(m)
    if n == 1:
        return ((fold_div(Num(1.0), det),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = tuple(
                tuple(m[a][b] for b in range(n) if b != i)
                for a in range(n)
                if a != j
            )
            cof = mat_det(minor)
            if (i + j) % 2 == 1:
                cof = fold_neg(cof)
            row.append(fold_div(cof, det))
        out.append(tuple(row))
    return tuple(out)


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, row-major block layout."""
    an, am = mat_shape(a)
    bn, bm = mat_shape(b)
    out = []
    for i in range(an * bn):
        row = []
        for j in range(am * bm):
            row.append(fold_mul(a[i // bn][j // bm], b[i % bn][j % bm]))
        out.append(tuple(row))
    return tuple(out)


def mat_kron_power(m: Matrix, k: int) -> Matrix:
    """k-fold Kronecker power; k = 0 gives the 1x1 identity."""
    if k == 0:
        return mat_identity(1)
    out = m
    for _ in range(k - 1):
        out = mat_kron(out, m)
    return out


def mat_pullback(m: Matrix, r: int, s: int) -> Matrix:
    """The matrix K with pullback coefficients K·a along m, for a the
    radix-ordered coefficients of an (r,s)-tensor on m's codomain: m^T on
    each vector slot, m^-1 (the adjugate) on each covector slot. For s > 0,
    a determinant that folds to the constant 0 raises EvalError."""
    vec_part = mat_kron_power(mat_transpose(m), r)
    cov_part = mat_kron_power(mat_inverse(m), s) if s else mat_identity(1)
    return mat_kron(vec_part, cov_part)


def mat_block_diag(a: Matrix, b: Matrix) -> Matrix:
    an, am = mat_shape(a)
    bn, bm = mat_shape(b)
    out = []
    for i in range(an):
        out.append(tuple(a[i]) + tuple(Num(0.0) for _ in range(bm)))
    for i in range(bn):
        out.append(tuple(Num(0.0) for _ in range(am)) + tuple(b[i]))
    return tuple(out)


def mat_subst(m: Matrix, replacements) -> Matrix:
    return tuple(tuple(subst(e, replacements) for e in row) for row in m)
