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
- `triangular_pivots`: a dense search for a row order and pivot columns
  that make a bundle's pivot block upper triangular, from each row's
  shortest-support element; the pivot finder of `expand`, and the
  reference the package's witness certificate (`splines.witness_pivots`,
  which reads its pivots off the elements with at most one H-inversion) is
  checked against.  Independent: it never reads the H-inversions.
- `expand`: exact coefficients of splines in a bundle with a triangular
  pivot block, by forward substitution over `Fraction`, proved by a full
  residual check; the tests compare the modular traces against it.
  Independent of the modular trace.
- `is_spline`: the edge conditions of one spline in the paper's frame,
  with the first failing (element, root) as a witness.  Not independent: it
  reads the package's `splines._edge_checks` on the values pulled back
  (`pull_back`); the tests check it against `reference_is_spline`, a loop
  over elements and roots in the paper's frame.
- `pull_back`: row w of a stack in the paper's frame moved back by its own
  element, to w^{-1} rho(w), the frame the package stores; hand-built
  arrays in the paper's frame reach `splines.edges_ok` through it.  The
  tests check it element by element, and that `splines.push_forward`
  undoes it.
- `paper_dot_action`: the dot action on a stack in the paper's frame, one
  signed gather; the label scan reads it.  Independent of the package's
  row translation on stored splines.
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
- `frobenius_bc`, `p_to_h` and `h_to_s`: the Frobenius image over
  `Fraction`, as a `BCSymFunc` dict from keys (lam, mu) to coefficients:
  the P-basis image divided by 2^n n! key by key, then expanded into the H
  and S bases one key at a time; the tests compare the package's integer
  arrays against it.  Not independent in its building blocks: it reads the
  package's `p_in_h` and `kostka`, which the tests check against a
  monomial-basis route and a brute-force tableau count.
- `partitions`: all partitions of k, for the reference `h_to_s` and the
  Kostka and P -> H tests.
- `scatter_label_matrix`: the edge label w(alpha) at every element, one
  scatter of the windows per coordinate of alpha; the tests check that
  `pull_back` sends it to the root at every element, and the spline tests
  read labels from it.  Independent: it never reads a family writer.
- `rows_proportional`: the pivot-form proportionality test with a label
  row for each row (the package's `splines._multiples` tests one root
  vector on its support); the label scans and the closure test read it,
  and the tests check it against an outer-product test.
- `scan_labels_pairwise_independent` and `scan_labels_equivariant`: the two
  label checks over every element of the group, once per type:
  proportionality of every pair of labels at every w, and of the label
  at v with the image under each simple g of the label at g^{-1} v.  The
  tests check that the package's checks, on the n^2 root vectors and on
  the r and t family stacks once per rank, give the same verdicts.
  Independent in their labels and action: they read `scatter_label_matrix`
  and `paper_dot_action`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from bcsplines.group import (
    Partition,
    SignedPerm,
    _window_descents,
    _window_lengths,
    conjugacy_classes,
    cycle_type_str,
    group_table,
    invert,
    signed_columns,
    unbalanced_sets,
)
from bcsplines.hessenberg import HessenbergSpace, dim_degree_one
from bcsplines.linalg import RankDeficientError, pivots
from bcsplines.roots import LieType, Root, positive_roots
from bcsplines.splines import (
    _edge_checks,
    _peak,
    edges_ok,
    f_family,
    g_spline,
    reflection_perm,
    y_spline,
)
from bcsplines.symfunc import kostka, p_in_h


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


def pull_back(values: np.ndarray) -> np.ndarray:
    """Row w of the stack (..., N, n) moved back by its own element, to
    w^{-1} rho(w): one signed gather by the inverse windows.  In this frame
    every edge label is its root and the dot action translates rows.
    Negating the dtype's minimum wraps, so an entry there raises OverflowError."""
    if values.dtype.kind == "i" and values.min(initial=0) == np.iinfo(values.dtype).min:
        raise OverflowError(f"negating {np.iinfo(values.dtype).min} does not fit {values.dtype}")
    col, sign = signed_columns(invert(group_table(values.shape[-1]).windows_array))
    out = values[..., np.arange(len(col))[:, None], col]
    return np.multiply(out, sign, out=out)


def paper_dot_action(w: SignedPerm, values: np.ndarray) -> np.ndarray:
    """(w . rho)(v) = w(rho(w^{-1} v)) for each spline of the stack (..., N, n)
    in the paper's frame: one signed gather of the coefficients at the rows
    w^{-1} v."""
    src = group_table(w.n).left_mult_indices(w.inverse())
    col, sign = signed_columns(np.array(w.window))
    return values[..., src[:, None], col] * sign


def is_spline(values: np.ndarray, space: HessenbergSpace, witness: bool = False):
    """Check the edge conditions of the spline values (N, n), in the paper's
    frame, for every root of H.

    With witness=True returns (ok, offending (element, root) or None): the
    first failing root in sorted order and its first failing element in
    table order.
    """
    for root, lo, rows_ok in _edge_checks(pull_back(values[None]), space.roots):
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
        lab = scatter_label_matrix(n, root)
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
    if not edges_ok(pull_back(bundle), space.roots).all():
        raise RankDeficientError("kernel vector fails the spline predicate")
    if len(bundle) != dim_degree_one(space):
        raise RankDeficientError(
            f"kernel dimension {len(bundle)} does not match the scan dimension"
        )
    if len(pivots(bundle.reshape(len(bundle), -1))[0]) != len(bundle):
        raise RankDeficientError("kernel vectors are not independent")
    return bundle


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[Partition, ...]:
    """All partitions of k, parts weakly decreasing."""
    if k == 0:
        return ((),)
    out = []

    def rec(rest: int, cap: int, acc: tuple):
        if rest == 0:
            out.append(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            rec(rest - part, part, acc + (part,))

    rec(k, k, ())
    return tuple(out)


Key = tuple[Partition, Partition]


class BCSymFunc:
    """An element of degree-n type B/C symmetric functions in one basis."""

    __slots__ = ("degree", "basis", "coeffs")

    def __init__(self, degree: int, basis: str, coeffs: dict[Key, Fraction]):
        if basis not in ("P", "H", "S"):
            raise ValueError("basis must be P, H or S")
        clean = {}
        for (lam, mu), c in coeffs.items():
            c = Fraction(c)
            if sum(lam) + sum(mu) != degree:
                raise ValueError(f"key {cycle_type_str(lam, mu)} has wrong degree")
            if c:
                clean[(tuple(lam), tuple(mu))] = c
        self.degree = degree
        self.basis = basis
        self.coeffs = clean


def frobenius_bc(values, n: int) -> BCSymFunc:
    """The two-variable Frobenius characteristic, in the P basis, of the class
    function with the given integer array of values over `conjugacy_classes(n)`.

    Computed classwise with scan-based class sizes and expanded through
    p_r(x+y) = p_r(x) + p_r(y), p_r(x-y) = p_r(x) - p_r(y).  The values
    become Python integers first, so no product can overflow.
    """
    out: dict[Key, int] = {}  # |W_n| times the coefficients
    for cl, val in zip(conjugacy_classes(n), values.tolist(), strict=True):
        if not val:
            continue
        weight = val * cl.size
        parts = [(p, 1) for p in cl.lam] + [(p, -1) for p in cl.mu]
        for assignment in product((0, 1), repeat=len(parts)):
            xs, ys = [], []
            sign = 1
            for (part, eps), to_y in zip(parts, assignment):
                if to_y:
                    ys.append(part)
                    sign *= eps
                else:
                    xs.append(part)
            key = (tuple(sorted(xs, reverse=True)), tuple(sorted(ys, reverse=True)))
            out[key] = out.get(key, 0) + sign * weight
    order = 2**n * math.factorial(n)
    return BCSymFunc(n, "P", {key: Fraction(c, order) for key, c in out.items()})


def p_to_h(f: BCSymFunc) -> BCSymFunc:
    """Exact change of basis, applied factorwise in x and y."""
    if f.basis != "P":
        raise ValueError("expected a P-basis element")
    out: dict[Key, Fraction] = {}
    for (lam, mu), c in f.coeffs.items():
        for lam2, c1 in p_in_h(lam).items():
            for mu2, c2 in p_in_h(mu).items():
                key = (lam2, mu2)
                out[key] = out.get(key, Fraction(0)) + c * c1 * c2
    return BCSymFunc(f.degree, "H", out)


def h_to_s(f: BCSymFunc) -> BCSymFunc:
    """Double-Kostka expansion h_lam(x) h_mu(y) = sum K K s_gamma(x) s_nu(y)."""
    if f.basis != "H":
        raise ValueError("expected an H-basis element")
    out: dict[Key, Fraction] = {}
    for (lam, mu), c in f.coeffs.items():
        for gamma in partitions(sum(lam)):
            k1 = kostka(gamma, lam)
            if not k1:
                continue
            for nu in partitions(sum(mu)):
                k2 = kostka(nu, mu)
                if not k2:
                    continue
                key = (gamma, nu)
                out[key] = out.get(key, Fraction(0)) + c * k1 * k2
    return BCSymFunc(f.degree, "S", out)


def scatter_label_matrix(n: int, root: Root) -> np.ndarray:
    """act(w, root) for every w of the group table, stacked as an int8 matrix.

    Its entries lie in [-2, 2], so a product of two labels is exact in int8.
    """
    table = group_table(n)
    win = table.windows_array
    rows = np.arange(table.size)
    out = np.zeros((table.size, n), dtype=np.int8)
    for pos, c in enumerate(root.evector()):
        if c:
            col = win[:, pos]
            out[rows, np.abs(col) - 1] += c * np.sign(col)
    out.setflags(write=False)
    return out


def rows_proportional(d: np.ndarray, lab: np.ndarray) -> np.ndarray:
    """Rowwise test that d is a scalar multiple of lab (lab rows nonzero).

    With p a coordinate where the label row is nonzero, d is a multiple of
    it exactly when d_k lab_p = d_p lab_k for every k.  The last axis holds
    the coordinates, and lab broadcasts against d over the others.  The
    products must fit the dtype.
    """
    piv = np.argmax(lab != 0, axis=-1)[..., None]
    lab_p = np.take_along_axis(lab, piv, axis=-1)
    d_p = np.take_along_axis(d, np.broadcast_to(piv, d.shape[:-1] + (1,)), axis=-1)
    return np.all(d * lab_p == d_p * lab, axis=-1)


@lru_cache(maxsize=None)
def scan_labels_pairwise_independent(lie_type, n: int) -> bool:
    """No two distinct positive roots have proportional labels at any w.

    This is what makes a value at a support-minimal element with two or
    more H-inversions vanish, which in turn bounds the dimension of the
    degree-one spline space by n plus the number of elements with exactly
    one H-inversion.
    """
    labs = [scatter_label_matrix(n, root) for root in positive_roots(lie_type, n)]
    # label rows are nonzero, as `rows_proportional` needs
    return not any(
        rows_proportional(np.stack(labs[k + 1 :]), lab).any() for k, lab in enumerate(labs[:-1])
    )


@lru_cache(maxsize=None)
def scan_labels_equivariant(lie_type: LieType, n: int) -> bool:
    """At every simple reflection g, g applied to the label at g^{-1}v is
    proportional to the label at v, for every root and vertex v: the dot
    action preserves the edge ideals.

    Testing the generators suffices.  If g and h pass, then for every v,
    g h label((gh)^{-1} v) = g (h label(h^{-1} u)) with u = g^{-1} v, which
    is g applied to a nonzero multiple of label(u), hence a nonzero multiple
    of label(v): g acts invertibly and labels are nonzero.  So the elements
    that pass are closed under products, and s_1, ..., s_n generate W_n.
    """
    labs = np.stack([scatter_label_matrix(n, root) for root in positive_roots(lie_type, n)])
    for i in range(1, n + 1):
        if not rows_proportional(paper_dot_action(SignedPerm.simple(i, n), labs), labs).all():
            return False
    return True
