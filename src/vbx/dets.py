"""Scaled determinants of stacks of matrices, one matrix per sample.

Singularity is decided on |det| after row-max scaling, so the test does
not punish badly scaled but perfectly invertible inputs: a matrix is
invertible at tol when its scaled |det| is above tol. The check suites
and the constructions' sampled checks take these determinants; the
one-matrix form and the rule built on it are vbx.linalg's scaled_abs_det
and is_gl.
"""

from __future__ import annotations

import numpy as np

from .coords import row_reduce

DEFAULT_TOL = 1e-10


def scaled_abs_dets(stack: np.ndarray) -> np.ndarray:
    """The |det| of each row-max-scaled matrix in an (n, d, d) stack, in
    one pass.

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
