"""
Exact linear algebra helpers for integer matrices.

Pivot discovery, inversion and traces run modulo a large prime with numpy.
Each modular result is exact for a stated reason: rows independent mod p
are independent over Q (their pivot block has a determinant that is nonzero
mod p, hence a nonzero integer), so pivots found mod p are never spurious; a
trace known to be an integer of absolute value below p/2 is its symmetric
residue (`symmetric_lift`).  Inverses mod p serve pivot blocks whose
independence is proved over the integers elsewhere (the triangular block of
the witness basis, see `splines.witness_pivots`).  Nothing here uses
rational arithmetic; the exact kernel solve that reads the edge conditions
directly is the tests' reference, in `tests/reference.py`.
"""

from __future__ import annotations

import numpy as np

# 2^31-ish primes keep products inside int64 during modular elimination
PRIMES = (2147483647, 2147483629, 2147483587, 2147482951, 2147481199)


class RankDeficientError(ValueError):
    """A set of vectors expected to be independent is not."""


def _pivot_step(a: np.ndarray, r: int, c: int, p: int, clear_above: bool) -> int | None:
    """One Gauss-Jordan step on the residue matrix `a`, in place modulo p.

    Swaps the first row at or below r with a nonzero entry in column c into
    row r, scales it to a unit pivot and clears column c below it (and above
    it too with clear_above).  Returns the index of the row swapped in, or
    None if the column has no pivot there.  Entries stay in [0, p), so every
    product is below p^2 < 2^63.
    """
    nz = np.flatnonzero(a[r:, c])
    if nz.size == 0:
        return None
    k = int(nz[0]) + r
    if k != r:
        a[[r, k]] = a[[k, r]]
    a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
    start = 0 if clear_above else r + 1
    rest = np.flatnonzero(a[start:, c]) + start
    rest = rest[rest != r]
    if rest.size:
        a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % p
    return k


def _residues(mat, p: int) -> np.ndarray:
    """The matrix reduced into [0, p) as int64, for p small enough that products fit."""
    if p * p >= 2**63:
        raise OverflowError(f"prime {p} is too large for int64 residue products")
    return np.mod(np.asarray(mat, dtype=np.int64), p)


def rref_pivots_mod_p(mat: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    """Pivot (rows, columns) of the matrix over GF(p), first columns preferred.

    One elimination step per column, so callers keep the column count small:
    `splines.bundle_rank` ranks a bundle on the coordinates that determine a
    spline, not on all N * n of them.
    """
    a = _residues(mat, p)
    nrows, ncols = a.shape
    row_order = list(range(nrows))
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        k = _pivot_step(a, r, c, p, clear_above=False)
        if k is None:
            continue
        row_order[r], row_order[k] = row_order[k], row_order[r]
        piv_rows.append(row_order[r])
        piv_cols.append(c)
        r += 1
    return piv_rows, piv_cols


def pivots(mat: np.ndarray, target: int | None = None) -> tuple[list[int], list[int]]:
    """Pivot rows/columns, maximized over a fixed prime list.

    The modular rank is a lower bound for the rational rank, so the best
    result over several primes is reported; the returned pivots are a
    certificate of rational independence.  The search stops once the rank
    reaches min(mat.shape) or `target`, a known upper bound on the rank
    (such as the dimension of a space that holds the rows).
    """
    top = min(mat.shape) if target is None else min(target, *mat.shape)
    best: tuple[list[int], list[int]] = ([], [])
    for p in PRIMES:
        rows, cols = rref_pivots_mod_p(mat, p)
        if len(rows) > len(best[0]):
            best = (rows, cols)
        if len(best[0]) >= top:
            break
    return best


def inverse_mod_p(mat, p: int) -> np.ndarray:
    """Inverse of a square integer matrix over GF(p), as residues in [0, p).

    Raises RankDeficientError if the matrix is singular modulo p.
    """
    a = _residues(mat, p)
    m = a.shape[0]
    if a.shape != (m, m):
        raise ValueError(f"need a square matrix, got shape {a.shape}")
    aug = np.concatenate([a, np.eye(m, dtype=np.int64)], axis=1)
    for c in range(m):
        if _pivot_step(aug, c, c, p, clear_above=True) is None:
            raise RankDeficientError(f"matrix is singular modulo {p} at column {c}")
    return aug[:, m:]


def trace_product_mod_p(a, b, p: int) -> np.ndarray:
    """tr(a_k @ b) modulo p for each square integer matrix a_k of the stack
    a (..., m, m) and one b (m, m), as an int64 array of shape a.shape[:-2].

    b is reduced into [0, p) and a is used as it is, so each trace is a sum
    of m^2 products of absolute value at most max|a| * (p - 1); sizes for
    which that sum could leave int64 raise OverflowError.
    """
    a, b = np.asarray(a), _residues(b, p)
    m = b.shape[0]
    if a.shape[-2:] != (m, m) or b.shape != (m, m):
        raise ValueError(f"need square matrices of one size, got {a.shape} and {b.shape}")
    peak = max(int(a.max(initial=0)), -int(a.min(initial=0)))
    if peak * (p - 1) * m * m >= 2**63:
        raise OverflowError(f"{m} x {m} products of {peak} and residues mod {p} may overflow int64")
    return np.einsum("...jk,kj->...", a, b) % p  # in int64, b's dtype


def symmetric_lift(residue: int, p: int, bound: int) -> int:
    """The integer congruent to `residue` mod p with |value| <= bound.

    Exact when the value is known to be an integer of absolute value at most
    `bound` and 2 * bound < p.  A residue whose symmetric representative lies
    outside [-bound, bound] raises ArithmeticError instead of being returned.
    """
    if 2 * bound >= p:
        raise ValueError(f"bound {bound} is not below p/2 for p = {p}")
    value = residue % p
    if value > p // 2:
        value -= p
    if abs(value) > bound:
        raise ArithmeticError(
            f"residue {residue} mod {p} lifts to {value}, outside [-{bound}, {bound}]"
        )
    return value
