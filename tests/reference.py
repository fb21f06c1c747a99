"""Exact references the tests compare the package against.

The package computes with integer arrays and modular certificates; these
functions compute the same objects by a different or a per-element route,
and nothing in the package calls them.  For each, what the tests check with
it and whether it is independent of the package's batch code:

- `spline_space_basis`: a basis of the degree-one spline space solved from
  the edge conditions alone, with `sparse_kernel_basis`; the tests check
  that the dot action keeps it inside the spline space and that it fills
  the dimension the generating set misses on the divergent branch.
  Independent: it reads the definition, not the closed forms.
- `sparse_kernel_basis`: Gaussian elimination over `Fraction` on a sparse
  integer system.  Independent of the modular pivots in `linalg`.
- `expand`: exact coefficients of splines in a bundle with a triangular
  pivot block, by forward substitution over `Fraction`, proved by a full
  residual check; the tests compare the modular traces against it.
  Independent of the modular trace (it shares `triangular_pivots` only).
- `is_spline`: the edge conditions of one spline, with the first failing
  (element, root) as a witness.  Not independent: it reads the package's
  `splines._edge_checks`; the tests check it against `reference_is_spline`,
  a loop over elements and roots.
- `length` and `descent_set`: Coxeter length and descent set of one
  `SignedPerm`.  Not independent: they call the package's whole-table
  kernels on a single window; the tests check them against `bfs_lengths`
  (word length by breadth-first search) and `loop_descent_set`.
- `defining_char_value` and `named_char_value`: trivial, delta, chi and s
  at one element, a loop over its window; the tests compare the package's
  arrays, read off the stacked class representatives, against them at each
  class representative.  Independent.
- `f_tail_sum`, `telescoping_identity`, `y_f_g_identity`: the linear
  relations among the families (acceptance criterion 4), built from the
  package's family writers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from bcsplines.group import (
    SignedPerm,
    _window_descents,
    _window_lengths,
    group_table,
    unbalanced_sets,
)
from bcsplines.hessenberg import HessenbergSpace, dim_degree_one
from bcsplines.linalg import RankDeficientError, pivots
from bcsplines.roots import label_matrix
from bcsplines.splines import (
    _edge_checks,
    _peak,
    edges_ok,
    f_family,
    g_spline,
    reflection_perm,
    triangular_pivots,
    y_spline,
)


def length(w: SignedPerm) -> int:
    """Coxeter length of w over s_1,...,s_n."""
    return int(_window_lengths([w.window])[0])


def descent_set(w: SignedPerm) -> frozenset[int]:
    """{i : length(w * s_i) < length(w)}."""
    mask = int(_window_descents([w.window])[0])
    return frozenset(i for i in range(1, w.n + 1) if mask >> (i - 1) & 1)


def defining_char_value(w: SignedPerm) -> int:
    return sum(1 for i in range(1, w.n + 1) if w(i) == i) - sum(
        1 for i in range(1, w.n + 1) if w(i) == -i
    )


def named_char_value(kind: str, w: SignedPerm) -> int:
    """A named character other than h_i at one element, by its per-element
    definition (the tests count the sets h_i fixes themselves)."""
    n = w.n
    if kind == "trivial":
        return 1
    if kind == "delta":
        return (-1) ** sum(1 for x in w.window if x < 0)
    if kind == "defining":
        return defining_char_value(w)
    if kind == "s":
        return sum(1 for k in range(1, n + 1) if abs(w(k)) == k)
    raise ValueError(f"unknown character {kind!r}")


def sparse_kernel_basis(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """Exact kernel basis of a sparse integer constraint system.

    Gaussian elimination over Fraction with least-column pivoting, then
    back substitution from the last pivot column; each returned vector sets
    one free coordinate to 1 and the others to 0.
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
    basis = []
    for free in (c for c in range(ncols) if c not in piv):
        x = {free: Fraction(1)}
        for pc in sorted(piv, reverse=True):
            row = piv[pc]
            s = sum(v * x.get(c, 0) for c, v in row.items() if c != pc)
            x[pc] = -Fraction(s) / row[pc]
        basis.append({c: v for c, v in x.items() if v})
    return basis


def is_spline(values: np.ndarray, space: HessenbergSpace, witness: bool = False):
    """Check the edge conditions of the spline values (N, n) for every root of H.

    With witness=True returns (ok, offending (element, root) or None): the
    first failing root in sorted order and its first failing element in
    table order.
    """
    for root, lo, rows_ok in _edge_checks(values[None], space.roots):
        if not rows_ok.all():
            if witness:
                bad = int(lo[np.argmin(rows_ok[0])])
                return False, (SignedPerm(group_table(space.n).windows_array[bad]), root)
            return False
    return (True, None) if witness else True


def f_tail_sum(p: int, m: int, k: int, n: int) -> np.ndarray:
    """sum over p < i <= m of the coset splines f_i^A with k in A, int64 (N, n)."""
    total = np.zeros((group_table(n).size, n), dtype=np.int64)
    for i in range(p + 1, m + 1):
        total += f_family(i, [a for a in unbalanced_sets(i, n) if k in a], n).sum(axis=0)
    return total


def telescoping_identity(p: int, m: int, k: int, n: int) -> bool:
    """y_{p,k} + sum_{p<i<=m} sum_{A∋k} f_i^A = y_{m,k}; p = 0 reads y_0 = 0."""
    lhs = f_tail_sum(p, m, k, n) + (y_spline(p, k, n) if p else 0)
    return np.array_equal(lhs, y_spline(m, k, n))


def y_f_g_identity(p: int, k: int, n: int) -> bool:
    """y_{p,k} + sum_{p<i<=n} sum_{A∋k} f_i^A + g_{-k} = 0; p = 0 reads y_0 = 0."""
    total = f_tail_sum(p, n, k, n) + g_spline(-k, n) + (y_spline(p, k, n) if p else 0)
    return not total.any()


def expand(targets: np.ndarray, bundle: np.ndarray) -> tuple[tuple[Fraction, ...], ...]:
    """Exact coefficients in the bundle of each of the stacked targets
    (k, N, n), one tuple per target; raises if one is not in the span.

    The coefficients c solve c P = target at the pivot columns of
    `triangular_pivots` by forward substitution, with the pivots found once
    for all targets.  The full residuals are then checked, so a successful
    return is a proof of membership.
    """
    rows, cols = triangular_pivots(bundle)
    mat = bundle.reshape(len(bundle), -1)
    flat = np.asarray(targets).reshape(len(targets), mat.shape[1])
    block = mat[np.ix_(rows, cols)].tolist()
    order = rows.tolist()
    out, scaled, dens = [], [], []
    for target in flat[:, cols].tolist():
        coeffs = [Fraction(0)] * len(bundle)
        for j, r in enumerate(order):
            s = target[j] - sum(coeffs[order[i]] * block[i][j] for i in range(j) if block[i][j])
            coeffs[r] = Fraction(s) / block[j][j]
        den = math.lcm(1, *(c.denominator for c in coeffs))
        out.append(tuple(coeffs))
        scaled.append([int(c * den) for c in coeffs])
        dens.append(den)
    # no entry or partial sum of either side exceeds this in absolute value
    peak = max(_peak(mat), _peak(flat))
    bound = peak * max((sum(map(abs, row)) + d for row, d in zip(scaled, dens)), default=0)
    dtype = object if bound > np.iinfo(np.int64).max else np.int64
    lhs = np.array(scaled, dtype=dtype).reshape(len(flat), len(mat)) @ mat.astype(dtype)
    if (lhs != np.array(dens, dtype=dtype)[:, None] * flat.astype(dtype)).any():
        raise ValueError("spline is not in the span of the bundle")
    return tuple(out)


@lru_cache(maxsize=None)
def spline_space_basis(space: HessenbergSpace) -> np.ndarray:
    """A basis of the degree-one spline space from the edge conditions alone.

    Solves the proportionality constraints exactly and certifies the result
    (every vector passes the spline predicate; the count matches the scan
    dimension; independence is certified by modular pivots on all N * n
    coordinates).  The tests use it as the reference that reads the
    definition directly.  The result is cached and shared, so it is
    read-only; its values are int64, since a kernel vector scaled to
    integers has no bound known in advance.
    """
    n = space.n
    table = group_table(n)
    rows: list[dict[int, int]] = []
    for root in sorted(space.roots):
        perm = reflection_perm(n, root)
        lab = label_matrix(n, root)
        for widx in range(table.size):
            wsidx = int(perm[widx])
            if wsidx < widx:
                continue
            lw = lab[widx].tolist()
            for p, q in combinations(range(n), 2):
                # the four columns are distinct, since w s_alpha != w
                if lw[p] or lw[q]:
                    terms = (widx, p, lw[q]), (wsidx, p, -lw[q]), (widx, q, -lw[p])
                    terms += ((wsidx, q, lw[p]),)
                    rows.append({u * n + k: v for u, k, v in terms if v})
    vectors = sparse_kernel_basis(rows, table.size * n)
    bundle = np.zeros((len(vectors), table.size, n), dtype=np.int64)
    for vec, values in zip(vectors, bundle.reshape(len(vectors), -1)):
        # scale to integer values; a scalar multiple spans the same line
        den = math.lcm(1, *(v.denominator for v in vec.values()))
        values[list(vec)] = [int(v * den) for v in vec.values()]
    bundle.setflags(write=False)
    if not edges_ok(bundle, space.roots).all():
        raise RankDeficientError("kernel vector fails the spline predicate")
    if len(bundle) != dim_degree_one(space):
        raise RankDeficientError(
            f"kernel dimension {len(bundle)} does not match the scan dimension"
        )
    if len(pivots(bundle.reshape(len(bundle), -1))[0]) != len(bundle):
        raise RankDeficientError("kernel vectors are not independent")
    return bundle
