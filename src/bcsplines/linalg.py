"""
Exact linear algebra helpers for integer matrices.

Pivot discovery runs modulo a large prime with numpy (columns independent
mod p are independent over Q, so certified pivots are never spurious);
everything that feeds a reported result is then done in exact rational
arithmetic: Gauss-Jordan inversion over Fraction and fraction-free
(Bareiss) determinants over int.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# 2^31-ish primes keep products inside int64 during modular elimination
PRIMES = (2147483647, 2147483629, 2147483587, 2147482951, 2147481199)


class RankDeficientError(ValueError):
    """A set of vectors expected to be independent is not."""


def rref_pivots_mod_p(mat: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Pivot (rows, columns) of the matrix over GF(p), first columns preferred."""
    a = np.mod(mat.astype(np.int64), p)
    nrows, ncols = a.shape
    row_order = list(range(nrows))
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.flatnonzero(a[r:, c]) + r
        if nz.size == 0:
            continue
        k = int(nz[0])
        if k != r:
            a[[r, k]] = a[[k, r]]
            row_order[r], row_order[k] = row_order[k], row_order[r]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        rest = np.flatnonzero(a[r + 1 :, c]) + r + 1
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % p
        piv_rows.append(row_order[r])
        piv_cols.append(c)
        r += 1
    return piv_rows, piv_cols


def pivots(mat: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows/columns, maximized over a fixed prime list.

    The modular rank is a lower bound for the rational rank, so the best
    result over several primes is reported; the returned pivots are a
    certificate of rational independence.
    """
    best: tuple[list[int], list[int]] = ([], [])
    for p in PRIMES:
        rows, cols = rref_pivots_mod_p(mat, p)
        if len(rows) > len(best[0]):
            best = (rows, cols)
        if len(best[0]) == min(mat.shape):
            break
    return best


def invert_fraction(mat) -> list[list[Fraction]]:
    """Exact inverse of a square integer (or Fraction) matrix.

    Raises RankDeficientError if singular.  Pivoting prefers +-1 entries to
    keep intermediate fractions small.
    """
    m = len(mat)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(m)]
        for i, row in enumerate(mat)
    ]
    for col in range(m):
        piv = None
        for r in range(col, m):
            v = aug[r][col]
            if v and (piv is None or abs(v) == 1):
                piv = r
                if abs(v) == 1:
                    break
        if piv is None:
            raise RankDeficientError(f"matrix is singular at column {col}")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        if pv != 1:
            aug[col] = [x / pv for x in aug[col]]
        prow = aug[col]
        for r in range(m):
            if r == col:
                continue
            f = aug[r][col]
            if f:
                aug[r] = [x - f * y for x, y in zip(aug[r], prow)]
    return [row[m:] for row in aug]


def bareiss_det(mat) -> int:
    """Fraction-free determinant of a square integer matrix."""
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            for r in range(k + 1, m):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, m):
            aik = a[i][k]
            row_i, row_k = a[i], a[k]
            for j in range(k + 1, m):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[m - 1][m - 1]


def solve_upper_triangular_sparse(
    pivot_rows: dict[int, dict[int, Fraction]], free_values: dict[int, Fraction]
) -> dict[int, Fraction]:
    """Back-substitute a sparse row-echelon system.

    `pivot_rows` maps a pivot column to a sparse row whose least column is
    the pivot; `free_values` prescribes the non-pivot coordinates.  Returns
    the full solution of (row . x = 0 for all rows).
    """
    x = dict(free_values)
    for pc in sorted(pivot_rows, reverse=True):
        row = pivot_rows[pc]
        s = Fraction(0)
        for c, v in row.items():
            if c != pc:
                s += v * x.get(c, Fraction(0))
        x[pc] = -s / row[pc]
    return x


def sparse_kernel_basis(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """Exact kernel basis of a sparse integer constraint system.

    Gaussian elimination over Fraction with least-column pivoting; each
    returned vector sets one free coordinate to 1 and the others to 0.
    """
    piv: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        cur = {c: Fraction(v) for c, v in row.items() if v}
        while cur:
            c = min(cur)
            if c in piv:
                prow = piv[c]
                f = cur[c] / prow[c]
                for cc, vv in prow.items():
                    nv = cur.get(cc, Fraction(0)) - f * vv
                    if nv:
                        cur[cc] = nv
                    else:
                        cur.pop(cc, None)
            else:
                piv[c] = cur
                break
    free_cols = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free_cols:
        x = solve_upper_triangular_sparse(piv, {f: Fraction(1)})
        basis.append({c: v for c, v in x.items() if v})
    return basis
