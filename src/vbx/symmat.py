"""Small symbolic matrices over expression entries.

Constructed bundles need their transition matrices as expressions so the
results stay serializable: tensor, dual and hom bundles substitute a
coordinate change into the reverse transition (the cocycle inverse),
tangent bundles into the reverse change's partials. The adjugate inverse
serves only user fiber maps, on the covector slots of mat_pullback and in
the dual frame; it expands cofactors with each minor built once, so its
cost grows like n*2^n in the rank, not n!: fine for fiber maps of a
handful of rows.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .expr import Expr, Num, fold_add, fold_div, fold_mul, fold_neg, fold_sub, subst_all

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


def _det(m: Matrix, rows: tuple, cols: tuple, memo: dict) -> Expr:
    """The determinant of m's submatrix on rows and cols, expanded along
    its first row. memo maps (rows, cols) to the minors built so far, so
    each minor is built once and shared: 2^n of them, not n! trees."""
    hit = memo.get((rows, cols))
    if hit is not None:
        return hit
    if len(rows) == 1:
        out = m[rows[0]][cols[0]]
    elif len(rows) == 2:
        (r0, r1), (c0, c1) = rows, cols
        out = fold_sub(fold_mul(m[r0][c0], m[r1][c1]), fold_mul(m[r0][c1], m[r1][c0]))
    else:
        out = Num(0.0)
        for j, c in enumerate(cols):
            term = fold_mul(m[rows[0]][c], _det(m, rows[1:], cols[:j] + cols[j + 1:], memo))
            out = fold_add(out, term) if j % 2 == 0 else fold_sub(out, term)
    memo[rows, cols] = out
    return out


def mat_inverse(m: Matrix) -> Matrix:
    """Adjugate over determinant; entries stay inside the expression DSL.
    The determinant and the cofactors share one memo of minors."""
    n, c = mat_shape(m)
    if n != c:
        raise ShapeMismatch("inverse of a non-square matrix")
    every, memo = tuple(range(n)), {}
    det = _det(m, every, every, memo)
    if n == 1:
        return ((fold_div(Num(1.0), det),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cof = _det(m, every[:j] + every[j + 1:], every[:i] + every[i + 1:], memo)
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
    """subst_all of m's entries, in one walk."""
    flat = iter(subst_all([e for row in m for e in row], replacements))
    return tuple(tuple(next(flat) for _ in row) for row in m)
