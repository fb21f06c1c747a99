"""
Degree-one splines on W_n.

A spline assigns to every group element a homogeneous linear polynomial
so that along each edge (w, w s_alpha) with alpha in H the difference of
values is a scalar multiple of the edge label w(alpha).  Every spline
built here has integer coefficients, so a spline is an integer array
(N, n), row w the coefficients of its value at the w-th element of the
group table; the identification x_{-i} = -x_i is applied when polynomials
are built, never stored.

The named families:

    t_i(w) = x_i                      r_i(w) = x_{w(i)}

    f_i^A(w) = x_{w(i)} - x_{w(i+1)}  on the coset w([i]) = A  (x_{w(n)} if i = n)
    y_{i,k}(w) = x_k - x_{w(i+1)}     when w^{-1}(k) in [i]
    g_k(w) = x_k                      when w^{-1}(k) < 0
    h(w) = x_{w(n)}                   when |Neg(w)| is odd
    phi^B(w) = x_{w(n-1)} + x_b       when w([n-1]) ⊂ B, b the rest of B

with A ranging over unbalanced subsets (no pair {a, -a}) of size i and B
over those of size n.

Each family has one writer over `GroupTable.windows_array` (`t_family` ...
`phi_family`) that returns the int8 values (M, N, n) of the members the
caller names, in that order; `t_spline` ... `h_spline` check their input
and return one member (N, n).  A bundle (a generating set, a basis) is one
read-only int8 array (m, N, n), row j the values of the j-th spline in the
documented build order, sliced, concatenated and added from family stacks
(`_combine`, the one checked sum).  Every certificate reads that
layout: `edges_ok`, `bundle_rank`, `witness_pivots` and the traces.  A
spline of H is determined by its values at E, the elements with at most one
H-inversion (`hessenberg.determining_elements`), so the certificates read E.
The edge label w(alpha) is a spline too: the window family weighted by the
root, sum_k alpha_k r_k(w) (`label_matrix`).
Everything here is integer or modular; the exact references the tests
compare against (the kernel basis from the edge conditions, expansion in a
basis, the per-spline predicate, the family relations) are in
`tests/reference.py`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .group import group_table, unbalanced_sets
from .hessenberg import (
    HessenbergSpace,
    classify,
    descent_cases,
    determining_elements,
    dim_degree_one,
    on_divergent_branch,
    t_set,
)
from .linalg import RankDeficientError, pivots
from .roots import Root, positive_roots, root_to_reflection


def _peak(num: np.ndarray) -> int:
    """Largest absolute entry as a Python int (0 for an empty array)."""
    return max(int(num.max(initial=0)), -int(num.min(initial=0)))


def dump(values: np.ndarray) -> str:
    """One line per group element of the values (N, n): "window TAB polynomial",
    the polynomial written like "2*x1 - 1*x3" ("0" when it vanishes)."""
    lines = []
    for win, row in zip(group_table(values.shape[-1]).windows_array.tolist(), values.tolist()):
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
def label_matrix(n: int, root: Root) -> np.ndarray:
    """The edge label w(alpha) at every element w of the group table: the
    window family weighted by the root, sum_k alpha_k r_k(w), as one read-only
    int8 matrix (N, n).

    Its entries lie in [-2, 2], since sum_k |alpha_k| <= 2, so a product of
    two labels is exact in int8.  Only the r_k with alpha_k != 0 are built.
    """
    alpha = np.array(root.evector())
    ks = np.flatnonzero(alpha)
    out = _combine([alpha[ks]], r_family(ks + 1, n))[0]
    out.setflags(write=False)
    return out


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


def labels_pairwise_independent(lie_type, n: int) -> bool:
    """No two distinct positive roots have proportional labels at any w.

    This is what makes a value at a support-minimal element with two or
    more H-inversions vanish, which in turn bounds the dimension of the
    degree-one spline space by n plus the number of elements with exactly
    one H-inversion.

    The label at w is psi(w) alpha, psi(w) the invertible matrix with columns
    r_1(w)..r_n(w) (`label_matrix`), so this is a test on the n^2 roots.
    """
    vecs = np.array([root.evector() for root in positive_roots(lie_type, n)])
    # root vectors are nonzero, as `_rows_proportional` needs
    return not any(_rows_proportional(vecs[k + 1 :], vec).any() for k, vec in enumerate(vecs[:-1]))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def _hits(members, entries: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(member, row) for each row of `entries` whose set is one of `members`
    (unbalanced sets of the row length): one searchsorted on the sorted set
    codes, as `GroupTable.indices_of` finds windows.  A set's code has one
    bit per entry, at its order_key."""

    def codes(sets):
        # the bits reach 2^(2n-1): widen the (int8) entries before the shift
        sets = np.asarray(sets, dtype=np.int64)
        return (1 << np.where(sets < 0, sets + n, sets + n - 1)).sum(axis=-1)

    want = codes(np.asarray(members, dtype=np.int64).reshape(len(members), entries.shape[-1]))
    order = np.argsort(want)
    ranked = np.append(want[order], 1 << 2 * n)  # a sentinel above every code
    got = codes(entries)
    pos = np.searchsorted(ranked, got)
    rows = np.flatnonzero(ranked[pos] == got)
    return order[pos[rows]], rows


def _scatter(members, n: int, passes) -> np.ndarray:
    """The int8 values (M, N, n) of the members, unbalanced sets of one size.
    Each pass is one scatter: the set (N, s) each element writes into, then
    arrays over the elements of the signed indices e of its terms x_e."""
    out = np.zeros((len(members), group_table(n).size, n), dtype=np.int8)
    for keys, *terms in passes:
        member, rows = _hits(members, keys, n)
        for e in terms:
            out[member, rows, np.abs(e[rows]) - 1] = np.sign(e[rows])
    return out


def t_family(ks, n: int) -> np.ndarray:
    """t_k(w) = x_k for the members k (value indices, possibly negative)."""
    ks = np.asarray(ks, dtype=np.int64)
    out = np.zeros((len(ks), group_table(n).size, n), dtype=np.int8)
    out[np.arange(len(ks)), :, np.abs(ks) - 1] = np.sign(ks)[:, None]
    return out


def r_family(indices, n: int) -> np.ndarray:
    """r_i(w) = x_{w(i)} for the members i."""
    win = group_table(n).windows_array[:, np.asarray(indices, dtype=np.int64) - 1].T
    out = np.zeros(win.shape + (n,), dtype=np.int8)
    member, rows = np.indices(win.shape)
    out[member, rows, np.abs(win) - 1] = np.sign(win)
    return out


def f_family(i: int, sets, n: int) -> np.ndarray:
    """f_i^A for the members A: x_{w(i)} - x_{w(i+1)} (x_{w(n)} if i = n)
    where w([i]) = A.  One scatter: every element writes the member of its
    set w([i]), so no element lies in the support of two members."""
    win = group_table(n).windows_array
    terms = (win[:, i - 1], -win[:, i]) if i < n else (win[:, n - 1],)
    return _scatter(sets, n, [(win[:, :i], *terms)])


def y_family(i: int, ks, n: int) -> np.ndarray:
    """y_{i,k} for the members k: x_k - x_{w(i+1)} where w^{-1}(k) lies in
    [i].  One scatter per window position p <= i, into the member w(p)."""
    win = group_table(n).windows_array
    passes = [(win[:, p : p + 1], win[:, p], -win[:, i]) for p in range(i)]
    return _scatter([(k,) for k in ks], n, passes)


def g_family(ks, n: int) -> np.ndarray:
    """g_k for the members k: x_k where w^{-1}(k) < 0.  One scatter per
    window position p, into the member -w(p)."""
    win = group_table(n).windows_array
    return _scatter([(-k,) for k in ks], n, [(win[:, p : p + 1], -win[:, p]) for p in range(n)])


def h_family(n: int) -> np.ndarray:
    """The one member h: x_{w(n)} where |Neg(w)| is odd."""
    win = group_table(n).windows_array
    rows = np.flatnonzero((win < 0).sum(axis=1) % 2 == 1)
    out = np.zeros((1, len(win), n), dtype=np.int8)
    out[0, rows, np.abs(win[rows, -1]) - 1] = np.sign(win[rows, -1])
    return out


def phi_family(sets, n: int) -> np.ndarray:
    """phi^B = 2 f_n^B + (sum of f_{n-1}^A over the (n-1)-subsets A of B)
    for the members B, unbalanced n-sets: x_{w(n-1)} + x_b where w([n-1])
    lies in B and b is the entry of B outside it.  B is w([n-1]) with
    b = w(n) or with b = -w(n): one scatter for each."""
    win = group_table(n).windows_array
    last = win[:, n - 1]
    passes = [(np.column_stack([win[:, : n - 1], b]), win[:, n - 2], b) for b in (last, -last)]
    return _scatter(sets, n, passes)


def t_spline(k: int, n: int) -> np.ndarray:
    """Constant family: every element is sent to x_k (k may be negative)."""
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    return t_family((k,), n)[0]


def r_spline(i: int, n: int) -> np.ndarray:
    """Window family: w is sent to x_{w(i)}."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range [1,{n}]")
    return r_family((i,), n)[0]


def f_spline(i: int, a, n: int) -> np.ndarray:
    """Coset family: supported where w([i]) = A."""
    a = tuple(a)
    support = {abs(x) for x in a}
    if i < 1 or len(a) != i or len(support) != i or not support <= set(range(1, n + 1)):
        raise ValueError(f"need an unbalanced set of size {i} with entries in ±1..±{n}, got {a}")
    return f_family(i, (a,), n)[0]


def y_spline(i: int, k: int, n: int) -> np.ndarray:
    """Value x_k - x_{w(i+1)} on the elements with w^{-1}(k) in [i]."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index {i} out of range [1,{n-1}]")
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    return y_family(i, (k,), n)[0]


def g_spline(k: int, n: int) -> np.ndarray:
    """Value x_k on the elements with w^{-1}(k) < 0."""
    if k == 0 or abs(k) > n:
        raise ValueError(f"value index {k} out of range")
    return g_family((k,), n)[0]


def h_spline(n: int) -> np.ndarray:
    """Value x_{w(n)} on the elements with an odd number of negative entries."""
    if n < 2:
        raise ValueError("need n >= 2")
    return h_family(n)[0]


def phi_spline(b, n: int) -> np.ndarray:
    """phi^B for an unbalanced n-set B (see `phi_family`)."""
    b = tuple(b)
    if n < 2:
        raise ValueError("need n >= 2")
    if sorted(map(abs, b)) != list(range(1, n + 1)):
        raise ValueError(f"need an unbalanced set of size {n} in ±1..±{n}, got {b}")
    return phi_family((b,), n)[0]


# ---------------------------------------------------------------------------
# Bundles: generating sets and bases, as stacked values (m, N, n)
# ---------------------------------------------------------------------------


def _combine(coeffs, members: np.ndarray) -> np.ndarray:
    """Rows sum_k coeffs[j][k] * members[k] of family members (K, N, n), as int8.

    Every family entry lies in [-1, 1], since each family writes ±1 into
    distinct coordinates, so row j is bounded by sum_k |coeffs[j][k]|; a
    bound past the int8 range raises OverflowError instead of wrapping.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    bound = int(np.abs(coeffs).sum(axis=1).max(initial=0))
    if bound > np.iinfo(np.int8).max:
        raise OverflowError(f"a sum of {bound} family members may not fit int8")
    out = np.zeros((len(coeffs),) + members.shape[1:], dtype=np.int8)
    for j, k in zip(*np.nonzero(coeffs)):
        out[j] += int(coeffs[j, k]) * members[k]
    return out


def _differences(members: np.ndarray) -> np.ndarray:
    """members[:-1] - members[1:]."""
    eye = np.eye(len(members), dtype=np.int64)
    return _combine(eye[:-1] - eye[1:], members)


def _bundle(*parts) -> np.ndarray:
    values = np.concatenate(parts)
    values.setflags(write=False)
    return values


def _families(cls, n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The F stack of each uncovered index, then the Y stack of each
    surrounded one; and G: g_1..g_n if c = 1, h if d = 1, else no member."""
    ks = [k for k in range(-n, n + 1) if k]
    f_y = [f_family(i, unbalanced_sets(i, n), n) for i in sorted(cls.uncovered)]
    f_y += [y_family(i, ks, n) for i in sorted(cls.surrounded)]
    return f_y, h_family(n) if cls.d else g_family(range(1, n + 1) if cls.c else (), n)


def generating_set(space: HessenbergSpace) -> np.ndarray:
    """T ∪ R ∪ F ∪ Y ∪ G as dictated by the t-set of H.

    On the divergent branch (see `on_divergent_branch`) these miss
    2^n - n - 2 dimensions; the splines phi^B over the unbalanced n-sets B
    supply them.
    """
    n, tset, idx = space.n, t_set(space), range(1, space.n + 1)
    f_y, g = _families(classify(tset, n), n)
    phi = phi_family(unbalanced_sets(n, n) if on_divergent_branch(tset, n) else (), n)
    return _bundle(t_family(idx, n), r_family(idx, n), *f_y, g, phi)


def left_basis(space: HessenbergSpace) -> np.ndarray:
    """T ∪ {r_i : i shaded} ∪ F ∪ Y ∪ G; needs a nonempty t-set."""
    n, tset = space.n, t_set(space)
    if not tset:
        raise ValueError("left basis needs a space strictly larger than the simples")
    cls = classify(tset, n)
    f_y, g = _families(cls, n)
    return _bundle(t_family(range(1, n + 1), n), r_family(sorted(cls.shaded), n), *f_y, g)


def right_basis(space: HessenbergSpace) -> np.ndarray:
    """T ∪ R ∪ consecutive differences of the F/Y/G families (h is kept whole)."""
    n, tset, idx = space.n, t_set(space), range(1, space.n + 1)
    if not tset:
        raise ValueError("right basis needs a space strictly larger than the simples")
    cls = classify(tset, n)
    f_y, g = _families(cls, n)
    g = _differences(g) if cls.c else g
    return _bundle(t_family(idx, n), r_family(idx, n), *map(_differences, f_y), g)


def permutohedral_basis(n: int) -> np.ndarray:
    """The full coset family F over every index; a basis when H is the simples."""
    return _bundle(*(f_family(i, unbalanced_sets(i, n), n) for i in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Certificates: rank and the triangular pivot block of the witness basis
# ---------------------------------------------------------------------------


def bundle_rank(bundle: np.ndarray, space: HessenbergSpace) -> int:
    """Certified rank of the bundle on E (`determining_elements`, all n
    coordinates each, in E's order): its pivot rows modulo a prime, which
    are independent over Q.  The search stops at the dimension.

    Dropping columns never raises a rank, so rank = dim on E proves
    rank >= dim for any rows.  For splines of the space the restriction to E
    is injective, so the rank is exact: a nonzero spline is nonzero at a
    shortest element w of its support, where its value is a multiple of the
    label of every H-inversion of w (that edge leads to a shorter element),
    and the labels of two distinct roots at w are independent, as the roots
    are (`labels_pairwise_independent`), so w has one H-inversion at most.
    """
    cols = determining_elements(space)
    return len(pivots(bundle[:, cols].reshape(len(bundle), -1), dim_degree_one(space))[0])


def witness_pivots(bundle: np.ndarray, space: HessenbergSpace) -> tuple[np.ndarray, np.ndarray]:
    """Certified pivot (elements, coordinates) of the witness basis, one per
    row: e for t_1..t_n, then the rest of E (`determining_elements`) in order,
    each at the row's first nonzero coordinate there.  A pivot block that is
    upper triangular with a nonzero diagonal proves the rows independent over
    Q, whatever chose the pivots.  Raises RankDeficientError when the row
    count is not the number of pivot elements or the block is not triangular.
    """
    e = determining_elements(space)
    elems = np.concatenate([np.repeat(e[:1], space.n), e[1:]])
    if len(bundle) != len(elems):
        raise RankDeficientError("bundle does not span for this space")
    coords = np.argmax(bundle[np.arange(len(elems)), elems] != 0, axis=1)
    block = bundle[:, elems, coords]
    if np.tril(block, -1).any() or not np.diag(block).all():
        raise RankDeficientError(
            "no triangular pivot block: it is not upper triangular with a nonzero diagonal"
        )
    return elems, coords


# ---------------------------------------------------------------------------
# The witness basis
# ---------------------------------------------------------------------------


def _witness_rows(kind: str, args, n: int) -> np.ndarray:
    """The witnesses of the `descent_cases` tags of one kind at one index,
    from their arguments (one tuple per tag); within an index every "f", "y"
    and "try" tag has the same i."""
    idx, cols = range(1, n + 1), list(zip(*args))
    if kind == "rt":  # sum_{j<=k} (r_j - t_j): running sums of R - T rows
        tri = np.tri(n, dtype=np.int64)[np.subtract(cols[0], 1)]
        members = np.concatenate([r_family(idx, n), t_family(idx, n)])
        return _combine(np.hstack([tri, -tri]), members)
    if kind == "try":  # t_j - r_i - y_{i-1,j}
        (js, i_s), eye = cols, np.eye(len(args), dtype=np.int64)
        members = np.concatenate([t_family(js, n), r_family(i_s, n), y_family(i_s[0] - 1, js, n)])
        return _combine(np.hstack([eye, -eye, -eye]), members)
    if kind == "h":  # h + g_1 + ... + g_n
        members = np.concatenate([h_family(n), g_family(idx, n)])
        return _combine(np.ones((1, n + 1), dtype=np.int64), members)
    if kind in ("f", "y"):
        return (f_family if kind == "f" else y_family)(cols[0][0], cols[1], n)
    return (g_family if kind == "g" else phi_family)(cols[0], n)


def witness_basis(space: HessenbergSpace) -> np.ndarray:
    """t_1..t_n, then for each element w of the closed-form descent sets the
    spline rho_w its `hessenberg.descent_cases` tag names, whose shortest
    support is w, by (length, table index); one int8 stack per index and
    kind of tag is written into its rows.  This is the order of the pivots
    of `witness_pivots`: the pivot of t_i is coordinate i at e, that of
    rho_w the first nonzero coordinate of rho_w(w), and rho_w vanishes at e
    and at every other element no longer than w.  Where the descent sets are
    the elements with exactly one H-inversion, the rho_w follow E.
    """
    n, table, tset = space.n, group_table(space.n), t_set(space)
    groups: dict[tuple, list] = {}  # (index, kind) -> [(window, tag arguments)]
    for i in range(1, n + 1):
        for w, (kind, *args) in descent_cases(tset, n, i).items():
            groups.setdefault((i, kind), []).append((w.window, args))
    index = table.indices_of([w for group in groups.values() for w, _ in group])
    dest = n + np.argsort(np.lexsort((index, table.lengths[index])))  # the row of each
    out = np.empty((n + len(index), table.size, n), dtype=np.int8)
    out[:n] = t_family(range(1, n + 1), n)
    for (_, kind), group in groups.items():
        out[dest[: len(group)]] = _witness_rows(kind, [args for _, args in group], n)
        dest = dest[len(group) :]
    out.setflags(write=False)
    return out
