"""Exact linear algebra helpers."""

import random
from fractions import Fraction

import numpy as np
import pytest

from bcsplines import linalg
from bcsplines.linalg import (
    PRIMES,
    RankDeficientError,
    inverse_mod_p,
    pivots,
    symmetric_lift,
    trace_product_mod_p,
)

from reference import sparse_kernel_basis


def fraction_pivot_columns(mat) -> list[int]:
    """The pivot columns of the row echelon form over Q: each column that is
    independent of the columns before it."""
    rows = [[Fraction(x) for x in r] for r in mat]
    ncols = len(rows[0]) if rows else 0
    cols = []
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        cols.append(c)
    return cols


def fraction_rank(mat) -> int:
    return len(fraction_pivot_columns(mat))


def fraction_det(mat):
    m = len(mat)
    rows = [[Fraction(x) for x in r] for r in mat]
    det = Fraction(1)
    for c in range(m):
        k = next((i for i in range(c, m) if rows[i][c]), None)
        if k is None:
            return Fraction(0)
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            det = -det
        det *= rows[c][c]
        pv = rows[c][c]
        rows[c] = [x / pv for x in rows[c]]
        for i in range(c + 1, m):
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


@pytest.mark.parametrize("seed", range(12))
def test_rref_pivots_equal_per_column_loop(seed):
    rng = np.random.default_rng(500 + seed)
    rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 400))
    mat = rng.integers(-4, 5, size=(rows, cols))
    # sparse, so that the pivots spread over the columns, some of them past
    # a long run of empty columns
    mat[rng.random((rows, cols)) > (0.01, 0.05, 0.5)[seed % 3]] = 0
    mat[:, cols // 4 : cols // 2] = 0
    if rows > 2:  # a redundant row, and one dependent only modulo 7
        mat[-1] = mat[0] - 2 * mat[1]
        mat[-2] = mat[0] + mat[1] + 7 * rng.integers(-2, 3, size=cols)
    # over the large prime: the first independent columns over Q, and a
    # pivot block with a nonzero determinant
    prow, pcol = linalg.rref_pivots_mod_p(mat, PRIMES[0])
    assert pcol == fraction_pivot_columns(mat.tolist())
    assert fraction_det(mat[np.ix_(prow, pcol)].tolist()) != 0
    # modulo 7: a pivot block invertible mod 7, so no more pivots than over Q
    prow, pcol = linalg.rref_pivots_mod_p(mat, 7)
    assert len(prow) <= fraction_rank(mat.tolist())
    assert fraction_det(mat[np.ix_(prow, pcol)].tolist()) % 7 != 0


def test_rref_pivots_after_empty_column_blocks():
    # pivots after runs of 64 and of 127 empty columns
    mat = np.zeros((3, 200), dtype=np.int64)
    mat[0, 64] = mat[1, 192] = 1
    mat[2, 64] = 2
    assert linalg.rref_pivots_mod_p(mat, PRIMES[0]) == ([0, 1], [64, 192])


def test_rref_pivots_singular_only_mod_7():
    mat = np.array([[1, 2, 3, 0], [2, 4, 13, 0], [0, 1, 7, 0]])
    assert fraction_rank(mat.tolist()) == 3
    assert linalg.rref_pivots_mod_p(mat, 7) == ([0, 2], [0, 1])
    # row 2 swaps in at column 1, then row 1 pivots at column 2
    assert linalg.rref_pivots_mod_p(mat, PRIMES[0]) == ([0, 2, 1], [0, 1, 2])


def test_rref_pivots_on_rank_five_generating_set():
    from bcsplines.hessenberg import from_tset
    from bcsplines.roots import LieType
    from bcsplines.splines import bundle_rank, generating_set

    space = from_tset(frozenset({5}), 5, LieType.C)
    bundle = generating_set(space)
    full = linalg.rref_pivots_mod_p(bundle.reshape(len(bundle), -1), PRIMES[0])
    # all N * n columns and the columns of E give the rank of the space
    assert len(full[0]) == bundle_rank(bundle, space) == 163
    assert len(full[0]) < len(bundle)  # the generating set has redundant rows


@pytest.mark.parametrize("seed", range(8))
def test_pivot_count_is_rank(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 7), rng.randint(2, 9)
    mat = np.array(
        [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)],
        dtype=np.int64,
    )
    prow, pcol = pivots(mat)
    assert len(prow) == len(pcol) == fraction_rank(mat.tolist())
    # the certified submatrix really is invertible over Q
    assert fraction_det(mat[np.ix_(prow, pcol)].tolist()) != 0


@pytest.mark.parametrize("seed", range(4))
def test_pivots_stop_at_target_rank(seed, monkeypatch):
    # redundant rows: rank 3 < min(shape), so without a target every prime is tried
    rng = random.Random(300 + seed)
    base = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(3)]
    coeffs = [[rng.randint(-2, 2) for _ in base] for _ in range(3)]
    combos = [[sum(c * x for c, x in zip(cs, col)) for col in zip(*base)] for cs in coeffs]
    mat = np.array(base + combos, dtype=np.int64)
    rank = fraction_rank(mat.tolist())
    calls = []
    real = linalg.rref_pivots_mod_p
    monkeypatch.setattr(
        linalg, "rref_pivots_mod_p", lambda m, p: calls.append(p) or real(m, p)
    )
    full = pivots(mat)
    assert len(calls) == len(PRIMES)
    calls.clear()
    assert pivots(mat, target=rank) == full
    assert calls == [PRIMES[0]]
    assert len(full[0]) == rank


def test_sparse_kernel_basis():
    # x0 + x1 = 0, x1 - x2 = 0 in 4 unknowns: kernel dim 2
    rows = [{0: 1, 1: 1}, {1: 1, 2: -1}]
    basis = sparse_kernel_basis(rows, 4)
    assert len(basis) == 2
    for vec in basis:
        full = [vec.get(i, Fraction(0)) for i in range(4)]
        assert full[0] + full[1] == 0
        assert full[1] - full[2] == 0
    # vectors are independent: distinct free coordinates
    frees = [max(v) for v in basis]
    assert len(set(frees)) == 2


@pytest.mark.parametrize("seed", range(8))
def test_inverse_mod_p(seed):
    rng = random.Random(300 + seed)
    p = PRIMES[seed % len(PRIMES)]
    m = rng.randint(1, 7)
    while True:
        mat = [[rng.randint(-5, 5) for _ in range(m)] for _ in range(m)]
        if fraction_det(mat):
            break
    inv = inverse_mod_p(mat, p)
    assert inv.min() >= 0 and inv.max() < p
    prod = [
        [sum(mat[i][k] * int(inv[k][j]) for k in range(m)) % p for j in range(m)]
        for i in range(m)
    ]
    assert prod == [[int(i == j) for j in range(m)] for i in range(m)]


def test_inverse_mod_p_singular_raises():
    with pytest.raises(RankDeficientError):
        inverse_mod_p([[1, 2], [2, 4]], PRIMES[0])
    # invertible over Q but not modulo 7
    with pytest.raises(RankDeficientError):
        inverse_mod_p([[7, 0], [0, 1]], 7)


@pytest.mark.parametrize("seed", range(6))
def test_trace_product_mod_p_with_large_residues(seed):
    # residues near p: int64 products and their sums would wrap unreduced
    rng = random.Random(400 + seed)
    p = PRIMES[0]
    m = rng.randint(1, 40)
    a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    b = [[rng.randrange(p - 1000, p) for _ in range(m)] for _ in range(m)]
    exact = sum(a[j][c] * b[c][j] for j in range(m) for c in range(m))
    assert trace_product_mod_p(np.array(a), np.array(b), p) == exact % p


def test_trace_product_mod_p_stacked():
    # one residue per matrix of a stack, as the single-matrix calls give
    rng = np.random.default_rng(12)
    p = PRIMES[0]
    a = rng.integers(-2, 3, size=(5, 7, 7)).astype(np.int8)
    b = rng.integers(p - 1000, p, size=(7, 7))
    got = trace_product_mod_p(a, b, p)
    assert got.tolist() == [trace_product_mod_p(x, b, p) for x in a]
    exact = [int(np.trace(x.astype(object) @ b.astype(object))) % p for x in a]
    assert got.tolist() == exact


def test_trace_product_mod_p_overflow_guard():
    # the largest entry for which m^2 products with residues below p fit int64
    # is exact; one more raises instead of wrapping
    p, m = PRIMES[0], 4
    peak = (2**63 - 1) // ((p - 1) * m * m)
    b = np.full((m, m), p - 1)
    assert trace_product_mod_p(np.full((m, m), peak), b, p) == peak * (p - 1) * m * m % p
    assert trace_product_mod_p(np.full((m, m), -peak), b, p) == -peak * (p - 1) * m * m % p
    with pytest.raises(OverflowError):
        trace_product_mod_p(np.full((m, m), peak + 1), b, p)
    with pytest.raises(OverflowError):
        trace_product_mod_p(np.full((2, m, m), -peak - 1), b, p)


def test_symmetric_lift_in_bound():
    p, bound = PRIMES[0], 5
    for value in range(-bound, bound + 1):
        assert symmetric_lift(value % p, p, bound) == value
        assert symmetric_lift(value + 3 * p, p, bound) == value


def test_symmetric_lift_past_bound_raises():
    p, bound = PRIMES[0], 5
    for value in (bound + 1, -bound - 1, p // 2, -(p // 2)):
        with pytest.raises(ArithmeticError):
            symmetric_lift(value % p, p, bound)


def test_symmetric_lift_needs_bound_below_half_p():
    with pytest.raises(ValueError):
        symmetric_lift(0, 11, 6)
