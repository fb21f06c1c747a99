"""
Degree-one splines on W_n.

A spline assigns to every group element a homogeneous linear polynomial
so that along each edge (w, w s_alpha) with alpha in H the difference of
values is a scalar multiple of the edge label w(alpha).  Every spline
built here has integer coefficients, so values are kept as an integer
matrix and everything is exact; the identification x_{-i} = -x_i is
applied when polynomials are built, never stored.

The named families:

    t_i(w) = x_i                      r_i(w) = x_{w(i)}

    f_i^A(w) = x_{w(i)} - x_{w(i+1)}  on the coset w([i]) = A  (x_{w(n)} if i = n)
    y_{i,k}(w) = x_k - x_{w(i+1)}     when w^{-1}(k) in [i]
    g_k(w) = x_k                      when w^{-1}(k) < 0
    h(w) = x_{w(n)}                   when |Neg(w)| is odd
    phi^B(w) = x_{w(n-1)} + x_b       when w([n-1]) ⊂ B, b the rest of B

with A ranging over unbalanced subsets (no pair {a, -a}) of size i and B
over those of size n.

A bundle (a generating set, a basis) is the stacked values of its splines:
one read-only int64 array of shape (m, N, n), row j holding the values of
the j-th spline in the documented build order.  Every certificate reads
that layout: `edges_ok`, `triangular_pivots`, `bundle_rank` and the traces.
A spline of H is determined by its values at the identity and at the
elements with exactly one H-inversion, so `bundle_rank` ranks bundles there.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .group import GroupTable, SignedPerm, group_table, order_key, successor
from .hessenberg import (
    HessenbergSpace,
    _inversion_counts,
    classify,
    descent_cases,
    dim_degree_one,
    on_divergent_branch,
    t_set,
)
from .linalg import RankDeficientError, pivots, sparse_kernel_basis
from .roots import Root, label_matrix, positive_roots, root_to_reflection


_INT64_MAX = int(np.iinfo(np.int64).max)


def _peak(num: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return max(int(num.max(initial=0)), -int(num.min(initial=0)))


def _widened(num: np.ndarray, bound: int) -> np.ndarray:
    """num as Python integers (object dtype) if results may reach `bound` > int64."""
    return num.astype(object) if bound > _INT64_MAX else num


class Spline:
    """A map from W_n to linear polynomials, dense over the group table.

    Values are integers stored in int64; arithmetic that could leave that
    range runs on Python integers, and a result that does not fit back
    raises OverflowError instead of wrapping.
    """

    __slots__ = ("table", "num")

    def __init__(self, table: GroupTable, num: np.ndarray):
        num = np.asarray(num)
        if num.dtype == object:
            if not all(type(v) is int for v in num.flat):
                raise TypeError("object-array spline values must be Python integers")
        elif num.dtype.kind not in "iu":
            raise TypeError(f"spline values must be integers, got dtype {num.dtype}")
        if num.dtype.kind != "i" and _peak(num) > _INT64_MAX:
            raise OverflowError("spline values do not fit in int64")
        if num.shape != (table.size, table.n):
            raise ValueError("value matrix has wrong shape")
        num = num.astype(np.int64)
        num.setflags(write=False)
        self.table = table
        self.num = num

    @property
    def n(self) -> int:
        return self.table.n

    @classmethod
    def zero(cls, n: int) -> "Spline":
        table = group_table(n)
        return cls(table, np.zeros((table.size, table.n), dtype=np.int64))

    def is_zero(self) -> bool:
        return not self.num.any()

    def __add__(self, other: "Spline") -> "Spline":
        self._check(other)
        bound = _peak(self.num) + _peak(other.num)
        return Spline(self.table, _widened(self.num, bound) + _widened(other.num, bound))

    def __sub__(self, other: "Spline") -> "Spline":
        return self + other.scale(-1)

    def scale(self, c) -> "Spline":
        c = operator.index(c)
        # the bound covers c itself, which numpy cannot mix with int64 past that range
        num = _widened(self.num, max(_peak(self.num), 1) * abs(c))
        return Spline(self.table, num * c)

    def __eq__(self, other):
        return (
            isinstance(other, Spline)
            and self.n == other.n
            and np.array_equal(self.num, other.num)
        )

    def __hash__(self):
        return hash((self.n, self.num.tobytes()))

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch")

    def dump(self) -> str:
        """One line per group element: "window TAB polynomial", the
        polynomial written like "2*x1 - 1*x3" ("0" when it vanishes)."""
        lines = []
        for win, row in zip(self.table.windows_array.tolist(), self.num.tolist()):
            terms = []
            for i, c in enumerate(row, start=1):
                if not c:
                    continue
                if terms:
                    terms.append(f"{'-' if c < 0 else '+'} {abs(c)}*x{i}")
                else:
                    terms.append(f"{c}*x{i}")
            lines.append(",".join(map(str, win)) + "\t" + (" ".join(terms) or "0"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Edge labels and the spline predicate
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def reflection_perm(n: int, root: Root) -> np.ndarray:
    """Index permutation w -> w * s_alpha over the group table."""
    table = group_table(n)
    perm = table.right_mult_indices(root_to_reflection(root))
    perm.setflags(write=False)
    return perm


def _rows_proportional(d: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Rowwise test that d is a scalar multiple of lab (lab rows nonzero).

    With p a coordinate where the label row is nonzero, d is a multiple of
    it exactly when d_k lab_p = d_p lab_k for every k.  The last axis holds
    the coordinates, and lab broadcasts against d over the others.  The
    products must fit the dtype: callers bound them, or pass Python integers
    (object arrays).
    """
    piv = np.argmax(lab != 0, axis=-1)[..., None]
    lab_p = np.take_along_axis(lab, piv, axis=-1)
    d_p = np.take_along_axis(d, np.broadcast_to(piv, d.shape[:-1] + (1,)), axis=-1)
    return np.all(d * lab_p == d_p * lab, axis=-1)


def _edge_checks(values: np.ndarray, roots):
    """For each root in sorted order: the root, the rows lo with lo < lo
    s_alpha in table order (each edge once), and an (m, len(lo)) bool array,
    true where the edge from lo meets its condition, for the stacked values
    (m, N, n).

    Edge differences are at most 2 * peak and labels at most 2 in absolute
    value, so the test runs in the narrowest integer type that holds
    4 * peak, and on Python integers where that could leave int64; it never
    wraps.
    """
    n = values.shape[-1]
    if values.ndim != 3 or values.shape[1] != group_table(n).size:
        raise ValueError(f"need stacked values of shape (m, N, n), got {values.shape}")
    if any(root.n != n for root in roots):
        raise ValueError("rank mismatch")
    dtype = np.min_scalar_type(-4 * _peak(values) - 1)
    values = values.astype(dtype, copy=False)
    for root in sorted(roots):
        perm = reflection_perm(n, root)
        lo = np.flatnonzero(np.arange(perm.size) < perm)
        lab = label_matrix(n, root)[lo].astype(dtype, copy=False)
        yield root, lo, _rows_proportional(values[:, lo] - values[:, perm[lo]], lab)


def edges_ok(values: np.ndarray, roots) -> np.ndarray:
    """One bool per spline of the stacked values (m, N, n): the edge
    condition of every given root (say the roots of H) holds."""
    ok = np.ones(len(values), dtype=bool)
    for _, _, rows_ok in _edge_checks(values, roots):
        ok &= rows_ok.all(axis=1)
        if not ok.any():
            break
    return ok


def is_spline(rho: Spline, space: HessenbergSpace, witness: bool = False):
    """Check the edge conditions of rho for every root of H.

    With witness=True returns (ok, offending (element, root) or None): the
    first failing root in sorted order and its first failing element in
    table order.
    """
    for root, lo, rows_ok in _edge_checks(rho.num[None], space.roots):
        if not rows_ok.all():
            if witness:
                bad = int(lo[np.argmin(rows_ok[0])])
                return False, (SignedPerm(rho.table.windows_array[bad]), root)
            return False
    return (True, None) if witness else True


@lru_cache(maxsize=None)
def labels_pairwise_independent(lie_type, n: int) -> bool:
    """No two distinct positive roots have proportional labels at any w.

    This is what makes a value at a support-minimal element with two or
    more H-inversions vanish, which in turn bounds the dimension of the
    degree-one spline space by n plus the number of elements with exactly
    one H-inversion.
    """
    labs = [label_matrix(n, root) for root in positive_roots(lie_type, n)]
    # label rows are nonzero, as `_rows_proportional` needs
    return not any(
        _rows_proportional(np.stack(labs[k + 1 :]), lab).any() for k, lab in enumerate(labs[:-1])
    )


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def unbalanced_sets(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All unbalanced subsets of {±1,...,±n} of size i, in lexicographic order.

    Sets are returned as tuples sorted by the global order
    -n < ... < -1 < 1 < ... < n, and the enumeration is lexicographic on
    those tuples; there are 2^i * binomial(n, i) of them.
    """
    out = []
    for support in combinations(range(1, n + 1), i):
        for signs in product((1, -1), repeat=i):
            out.append(
                tuple(
                    sorted(
                        (s * a for a, s in zip(support, signs)),
                        key=lambda k: order_key(k, n),
                    )
                )
            )
    out.sort(key=lambda t: tuple(order_key(k, n) for k in t))
    return tuple(out)


def t_spline(k: int, n: int) -> Spline:
    """Constant family: every element is sent to x_k (k may be negative)."""
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    table = group_table(n)
    num = np.zeros((table.size, n), dtype=np.int64)
    num[:, abs(k) - 1] = 1 if k > 0 else -1
    return Spline(table, num)


def r_spline(i: int, n: int) -> Spline:
    """Window family: w is sent to x_{w(i)}."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range [1,{n}]")
    table = group_table(n)
    col = table.windows_array[:, i - 1]
    num = np.zeros((table.size, n), dtype=np.int64)
    num[np.arange(table.size), np.abs(col) - 1] = np.sign(col)
    return Spline(table, num)


def f_spline(i: int, a, n: int) -> Spline:
    """Coset family: supported where w([i]) = A."""
    a = tuple(a)
    support = {abs(x) for x in a}
    if i < 1 or len(a) != i or len(support) != i or not support <= set(range(1, n + 1)):
        raise ValueError(f"need an unbalanced set of size {i} with entries in ±1..±{n}, got {a}")
    table = group_table(n)
    win = table.windows_array
    num = np.zeros((table.size, n), dtype=np.int64)
    # w([i]) has i distinct absolute values, so it lies in A exactly when it is A
    rows = np.flatnonzero(np.all(np.isin(win[:, :i], a), axis=1))
    ci = win[rows, i - 1]
    num[rows, np.abs(ci) - 1] += np.sign(ci)
    if i < n:
        cj = win[rows, i]
        num[rows, np.abs(cj) - 1] -= np.sign(cj)
    return Spline(table, num)


def y_spline(i: int, k: int, n: int) -> Spline:
    """Value x_k - x_{w(i+1)} on the elements with w^{-1}(k) in [i]."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [1,{n-1}]")
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    table = group_table(n)
    win = table.windows_array
    mask = np.any(win[:, :i] == k, axis=1)
    num = np.zeros((table.size, n), dtype=np.int64)
    rows = np.flatnonzero(mask)
    num[rows, abs(k) - 1] += 1 if k > 0 else -1
    cj = win[rows, i]
    num[rows, np.abs(cj) - 1] -= np.sign(cj)
    return Spline(table, num)


def g_spline(k: int, n: int) -> Spline:
    """Value x_k on the elements with w^{-1}(k) < 0."""
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    table = group_table(n)
    mask = np.any(table.windows_array == -k, axis=1)
    num = np.zeros((table.size, n), dtype=np.int64)
    num[np.flatnonzero(mask), abs(k) - 1] = 1 if k > 0 else -1
    return Spline(table, num)


def h_spline(n: int) -> Spline:
    """Value x_{w(n)} on the elements with an odd number of negative entries."""
    if n < 2:
        raise ValueError("need n >= 2")
    table = group_table(n)
    win = table.windows_array
    mask = (np.sum(win < 0, axis=1) % 2) == 1
    num = np.zeros((table.size, n), dtype=np.int64)
    rows = np.flatnonzero(mask)
    cn = win[rows, n - 1]
    num[rows, np.abs(cn) - 1] = np.sign(cn)
    return Spline(table, num)


def phi_spline(b, n: int) -> Spline:
    """2 f_n^B + sum of f_{n-1}^A over the (n-1)-subsets A of B.

    B is an unbalanced n-set.  The value is x_{w(n-1)} + x_beta on the
    elements with w([n-1]) inside B, where beta is the element of B outside
    w([n-1]), and zero elsewhere.
    """
    b = tuple(b)
    if len(b) != n or len({abs(x) for x in b}) != n:
        raise ValueError(f"need an unbalanced set of size {n}, got {b}")
    if n < 2:
        raise ValueError("need n >= 2")
    table = group_table(n)
    win = table.windows_array
    rows = np.flatnonzero(np.all(np.isin(win[:, : n - 1], b), axis=1))
    sign_of = np.zeros(n + 1, dtype=np.int64)
    sign_of[np.abs(b)] = np.sign(b)
    num = np.zeros((table.size, n), dtype=np.int64)
    prev, last = win[rows, n - 2], np.abs(win[rows, n - 1])
    num[rows, np.abs(prev) - 1] += np.sign(prev)
    num[rows, last - 1] += sign_of[last]
    return Spline(table, num)


def r_minus_t_partial(k: int, n: int) -> Spline:
    """The combination sum_{j<=k} (r_j - t_j); its lowest support element is s_k."""
    out = Spline.zero(n)
    for j in range(1, k + 1):
        out = out + r_spline(j, n) - t_spline(j, n)
    return out


def f_tail_sum(p: int, m: int, k: int, n: int) -> Spline:
    """sum over p < i <= m of the coset splines f_i^A with k in A."""
    out = Spline.zero(n)
    for i in range(p + 1, m + 1):
        for a in unbalanced_sets(i, n):
            if k in a:
                out = out + f_spline(i, a, n)
    return out


def telescoping_identity(p: int, m: int, k: int, n: int) -> bool:
    """y_{p,k} + sum_{p<i<=m} sum_{A∋k} f_i^A = y_{m,k}; p = 0 reads y_0 = 0."""
    lhs = y_spline(p, k, n) if p else Spline.zero(n)
    return lhs + f_tail_sum(p, m, k, n) == y_spline(m, k, n)


def y_f_g_identity(p: int, k: int, n: int) -> bool:
    """y_{p,k} + sum_{p<i<=n} sum_{A∋k} f_i^A + g_{-k} = 0; p = 0 reads y_0 = 0."""
    lhs = y_spline(p, k, n) if p else Spline.zero(n)
    total = lhs + f_tail_sum(p, n, k, n) + g_spline(-k, n)
    return total.is_zero()


# ---------------------------------------------------------------------------
# Bundles: generating sets and bases, as stacked values (m, N, n)
# ---------------------------------------------------------------------------


def stack(splines) -> np.ndarray:
    """The bundle of the given splines: their values stacked in order into
    one read-only int64 array of shape (m, N, n)."""
    values = np.stack([s.num for s in splines])
    values.setflags(write=False)
    return values


def _family_splines(tset, n: int):
    """The T/R/F/Y/G families determined by a t-set."""
    cls = classify(tset, n)
    t_part = [t_spline(i, n) for i in range(1, n + 1)]
    r_part = [r_spline(i, n) for i in range(1, n + 1)]
    f_part = [f_spline(i, a, n) for i in sorted(cls.uncovered) for a in unbalanced_sets(i, n)]
    y_part = [
        y_spline(i, k, n) for i in sorted(cls.surrounded) for k in range(-n, n + 1) if k
    ]
    if cls.c:
        g_part = [g_spline(i, n) for i in range(1, n + 1)]
    elif cls.d:
        g_part = [h_spline(n)]
    else:
        g_part = []
    return cls, t_part, r_part, f_part, y_part, g_part


def generating_set(space: HessenbergSpace) -> np.ndarray:
    """T ∪ R ∪ F ∪ Y ∪ G as dictated by the t-set of H.

    On the divergent branch (see `on_divergent_branch`) these miss
    2^n - n - 2 dimensions; the splines phi^B over the unbalanced n-sets B
    supply them.
    """
    n = space.n
    tset = t_set(space)
    _, t_part, r_part, f_part, y_part, g_part = _family_splines(tset, n)
    splines = t_part + r_part + f_part + y_part + g_part
    if on_divergent_branch(tset, n):
        splines += [phi_spline(b, n) for b in unbalanced_sets(n, n)]
    return stack(splines)


def _sized_bundle(space: HessenbergSpace, role: str, splines) -> np.ndarray:
    bundle = stack(splines)
    dim = dim_degree_one(space)
    if len(bundle) != dim:
        raise RankDeficientError(
            f"{role} set has {len(bundle)} elements but the degree-one space "
            f"has dimension {dim} (t-set {{{','.join('t%d' % i for i in sorted(t_set(space)))}}}); "
            "the closed-form construction does not span here"
        )
    return bundle


def left_basis(space: HessenbergSpace) -> np.ndarray:
    """T ∪ {r_i : i shaded} ∪ F ∪ Y ∪ G; needs a nonempty t-set."""
    tset = t_set(space)
    if not tset:
        raise ValueError("left basis needs a space strictly larger than the simples")
    cls, t_part, r_part, f_part, y_part, g_part = _family_splines(tset, space.n)
    r_shaded = [r_part[i - 1] for i in sorted(cls.shaded)]
    return _sized_bundle(space, "left", t_part + r_shaded + f_part + y_part + g_part)


def right_basis(space: HessenbergSpace) -> np.ndarray:
    """T ∪ R ∪ consecutive differences of the F/Y/G families."""
    tset = t_set(space)
    if not tset:
        raise ValueError("right basis needs a space strictly larger than the simples")
    n = space.n
    cls, t_part, r_part, f_part, y_part, g_part = _family_splines(tset, n)
    splines = t_part + r_part
    for i in sorted(cls.uncovered):
        sets = unbalanced_sets(i, n)
        for m in range(len(sets) - 1):
            splines.append(f_spline(i, sets[m], n) - f_spline(i, sets[m + 1], n))
    for i in sorted(cls.surrounded):
        k = -n
        while k != n:
            nxt = successor(k, n)
            splines.append(y_spline(i, k, n) - y_spline(i, nxt, n))
            k = nxt
    if cls.c:
        for i in range(1, n):
            splines.append(g_spline(i, n) - g_spline(i + 1, n))
    elif cls.d:
        splines.append(h_spline(n))
    return _sized_bundle(space, "right", splines)


def permutohedral_basis(n: int) -> np.ndarray:
    """The full coset family F over every index; a basis when H is the simples."""
    return stack(f_spline(i, a, n) for i in range(1, n + 1) for a in unbalanced_sets(i, n))


# ---------------------------------------------------------------------------
# Exact expansion and the generic kernel basis
# ---------------------------------------------------------------------------


def bundle_rank(bundle: np.ndarray, space: HessenbergSpace) -> int:
    """Certified rank of the bundle on E, the elements of the space with at
    most one H-inversion (all n coordinates each): its pivot rows modulo a
    prime, which are independent over Q.  The search stops at the dimension.

    Dropping columns never raises a rank, so rank = dim on E proves
    rank >= dim for any rows.  For splines of the space the restriction to E
    is injective, so the rank is exact: a nonzero spline is nonzero at a
    shortest element w of its support, where its value is a multiple of the
    label of every H-inversion of w (that edge leads to a shorter element),
    and pairwise-independent labels (`labels_pairwise_independent`) allow
    one at most.
    """
    cols = np.flatnonzero(_inversion_counts(space) <= 1)
    return len(pivots(bundle[:, cols].reshape(len(bundle), -1), dim_degree_one(space))[0])


def triangular_pivots(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row order and pivot columns that make the pivot block of the stacked
    values (m, N, n) upper triangular with a nonzero diagonal.

    A row's pivot is its shortest-support element (smallest table index on
    ties) at that element's first nonzero coordinate; rows are ordered by
    (length, index, coordinate), and columns index the flattened values.
    Each row then vanishes at the pivots of the rows before it unless two
    rows share a pivot or a row is zero, and the block test catches both.
    Its nonzero diagonal proves the rows independent over Q.  Raises
    RankDeficientError when the block is not triangular.
    """
    m, _, n = values.shape
    by_length = np.argsort(group_table(n).lengths, kind="stable")  # (length, index) order
    first = np.argmax(values.any(axis=2)[:, by_length], axis=1)
    elems = by_length[first]
    coords = np.argmax(values[np.arange(m), elems] != 0, axis=1)
    rows = np.argsort(first * n + coords, kind="stable")
    elems, coords = elems[rows], coords[rows]
    block = values[rows[:, None], elems, coords]
    if np.tril(block, -1).any() or not np.diag(block).all():
        raise RankDeficientError(
            "no triangular pivot block: it is not upper triangular with a nonzero diagonal"
        )
    return rows, elems * n + coords


def expand(rho: Spline, bundle: np.ndarray) -> tuple[Fraction, ...]:
    """Exact coefficients of rho in the bundle; raises if not in the span.

    The coefficients c solve c P = rho at the pivot columns of
    `triangular_pivots` by forward substitution.  The full residual is then
    checked, so a successful return is a proof of membership.
    """
    rows, cols = triangular_pivots(bundle)
    mat = bundle.reshape(len(bundle), -1)
    block = mat[np.ix_(rows, cols)].tolist()
    target = rho.num.ravel()[cols].tolist()
    order, coeffs = rows.tolist(), [Fraction(0)] * len(bundle)
    for j, r in enumerate(order):
        s = target[j] - sum(coeffs[order[i]] * block[i][j] for i in range(j) if block[i][j])
        coeffs[r] = Fraction(s) / block[j][j]
    den = math.lcm(1, *(c.denominator for c in coeffs))
    scaled = np.array([int(c * den) for c in coeffs], dtype=object)
    if (scaled @ mat.astype(object) != den * rho.num.ravel().astype(object)).any():
        raise ValueError("spline is not in the span of the bundle")
    return tuple(coeffs)


@lru_cache(maxsize=None)
def spline_space_basis(space: HessenbergSpace) -> np.ndarray:
    """A basis of the degree-one spline space from the edge conditions alone.

    Solves the proportionality constraints exactly and certifies the result
    (every vector passes the spline predicate; the count matches the scan
    dimension; independence is certified by modular pivots on all N * n
    coordinates).  The tests use it as the reference that reads the
    definition directly.  The result is cached and shared, so it is read-only.
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
            lw = lab[widx]
            for p, q in combinations(range(n), 2):
                if lw[p] == 0 and lw[q] == 0:
                    continue
                row: dict[int, int] = {}
                for col, v in (
                    (widx * n + p, int(lw[q])),
                    (wsidx * n + p, -int(lw[q])),
                    (widx * n + q, -int(lw[p])),
                    (wsidx * n + q, int(lw[p])),
                ):
                    row[col] = row.get(col, 0) + v
                row = {c: v for c, v in row.items() if v}
                if row:
                    rows.append(row)
    vectors = sparse_kernel_basis(rows, table.size * n)
    splines = []
    for vec in vectors:
        # scale to integer values; a scalar multiple spans the same line
        den = math.lcm(1, *(v.denominator for v in vec.values()))
        num = np.zeros((table.size, n), dtype=np.int64)
        for col, v in vec.items():
            num[divmod(col, n)] = int(v * den)
        splines.append(Spline(table, num))
    bundle = stack(splines)
    if not edges_ok(bundle, space.roots).all():
        raise RankDeficientError("kernel vector fails the spline predicate")
    if len(bundle) != dim_degree_one(space):
        raise RankDeficientError(
            f"kernel dimension {len(bundle)} does not match the scan dimension"
        )
    if len(pivots(bundle.reshape(len(bundle), -1))[0]) != len(bundle):
        raise RankDeficientError("kernel vectors are not independent")
    return bundle


# ---------------------------------------------------------------------------
# Support-minimal witnesses
# ---------------------------------------------------------------------------


def support_minimal_witnesses(space: HessenbergSpace) -> dict[SignedPerm, Spline]:
    """For each element of the closed-form descent sets, a spline whose
    shortest support is that element.

    Together with the constant family these witness the lower bound in the
    dimension count; tests check singleton shortest support and that the
    value there is projectively the label of the unique inversion.  The
    splines are built from the tags of `hessenberg.descent_cases`.
    """
    n = space.n
    build = {
        "rt": lambda k: r_minus_t_partial(k, n),
        "try": lambda j, i: t_spline(j, n) - r_spline(i, n) - y_spline(i - 1, j, n),
        "y": lambda i, k: y_spline(i, k, n),
        "f": lambda i, a: f_spline(i, a, n),
        "g": lambda k: g_spline(k, n),
        "phi": lambda b: phi_spline(b, n),
        "h": lambda: sum((g_spline(k, n) for k in range(1, n + 1)), h_spline(n)),
    }
    tset = t_set(space)
    return {
        w: build[tag[0]](*tag[1:])
        for i in range(1, n + 1)
        for w, tag in descent_cases(tset, n, i).items()
    }


def witness_basis(space: HessenbergSpace) -> np.ndarray:
    """t_1..t_n, then the support-minimal witnesses by (length, table index).

    This is the order `triangular_pivots` gives: the pivot of t_i is
    coordinate i at e, that of rho_w the first nonzero coordinate of
    rho_w(w), and a witness vanishes at e and at every other element no
    longer than its own.
    """
    n, table = space.n, group_table(space.n)
    witnesses = support_minimal_witnesses(space)
    index = table.indices_of([w.window for w in witnesses])
    rhos = list(witnesses.values())
    order = np.lexsort((index, table.lengths[index]))
    return stack([t_spline(i, n) for i in range(1, n + 1)] + [rhos[k] for k in order])
