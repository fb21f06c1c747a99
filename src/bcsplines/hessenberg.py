"""
Hessenberg spaces: lower order ideals of positive roots containing the
simple roots, and the combinatorics they induce on W_n.

For degree-one computations everything is governed by which of the
transpositions

    t_i = s_i s_{i+1} s_i = (i, i+2)          i in [n-2]
    t_{n-1} = s_{n-1} s_n s_{n-1} = (n-1, -(n-1))
    t_n = s_n s_{n-1} s_n = (n-1, -n)

lie in S(H); this module computes that "t-set", classifies indices as
uncovered / surrounded / shaded, and produces the sets D_H(i) of group
elements whose unique H-inversion is the simple root alpha_i — both by a
brute-force scan of W_n and by the closed-form case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import SignedPerm, group_table, min_coset_reps
from .roots import (
    LieType,
    Root,
    act,
    is_positive,
    parse_root,
    poset_leq,
    positive_roots,
    simple_root,
    simple_roots,
)


@lru_cache(maxsize=None)
def _root_order(lie_type: LieType, n: int) -> tuple[dict[Root, int], np.ndarray]:
    """Each positive root's position in `positive_roots`, and the root poset
    as a boolean matrix over those positions: leq[a, b] = poset_leq(a, b)."""
    pos = positive_roots(lie_type, n)
    leq = np.array([[poset_leq(a, b) for b in pos] for a in pos], dtype=bool)
    leq.setflags(write=False)
    return {r: k for k, r in enumerate(pos)}, leq


@dataclass(frozen=True)
class HessenbergSpace:
    """A lower order ideal of positive roots containing all simple roots."""

    lie_type: LieType
    n: int
    roots: frozenset[Root]

    def __post_init__(self):
        index, leq = _root_order(self.lie_type, self.n)
        for r in self.roots:
            if r not in index:
                raise ValueError(f"{r} is not a positive root of {self.lie_type}_{self.n}")
        for alpha in simple_roots(self.lie_type, self.n):
            if alpha not in self.roots:
                raise ValueError(f"missing simple root {alpha}")
        inside = np.array([r in self.roots for r in index])  # in positive_roots order
        gaps = np.argwhere((leq & ~inside[:, None] & inside).T)  # (root of H, missing root below)
        if gaps.size:
            r, below = (positive_roots(self.lie_type, self.n)[k] for k in gaps[0])
            raise ValueError(f"not downward closed: {below} < {r} is missing")

    @classmethod
    def from_generators(cls, gens, lie_type: LieType, n: int) -> "HessenbergSpace":
        """Downward closure of the given roots together with the simple roots."""
        index, leq = _root_order(lie_type, n)
        gens = frozenset(gens)  # one that is not a positive root fails __post_init__
        below = np.flatnonzero(leq[:, [index[g] for g in gens if g in index]].any(axis=1))
        pos = positive_roots(lie_type, n)
        return cls(lie_type, n, gens.union(simple_roots(lie_type, n), (pos[k] for k in below)))

    @classmethod
    def from_root_strings(cls, strings, lie_type: LieType, n: int) -> "HessenbergSpace":
        roots = frozenset(parse_root(s, lie_type) for s in strings)
        return cls(lie_type, n, roots | set(simple_roots(lie_type, n)))

    def serialize(self) -> str:
        return ";".join(str(r) for r in sorted(self.roots))

    @classmethod
    def parse(cls, s: str, lie_type: LieType, n: int) -> "HessenbergSpace":
        return cls.from_root_strings([p for p in s.split(";") if p], lie_type, n)


def enumerate_hessenberg(lie_type: LieType, n: int) -> tuple[HessenbergSpace, ...]:
    """All Hessenberg spaces of the given type and rank, each exactly once."""
    if n < 2:
        raise ValueError("need n >= 2")
    return _enumerate_cached(lie_type, n)


@lru_cache(maxsize=None)
def _enumerate_cached(lie_type: LieType, n: int) -> tuple[HessenbergSpace, ...]:
    delta = set(simple_roots(lie_type, n))
    upper = sorted(
        (r for r in positive_roots(lie_type, n) if r not in delta),
        key=lambda r: (sum(r.coords), r.coords),
    )
    index, leq = _root_order(lie_type, n)
    below = {
        r: [s for s in upper if s != r and leq[index[s], index[r]]] for r in upper
    }
    ideals: list[frozenset[Root]] = []

    def rec(idx: int, chosen: set[Root]):
        if idx == len(upper):
            ideals.append(frozenset(chosen))
            return
        rec(idx + 1, chosen)
        r = upper[idx]
        if all(b in chosen for b in below[r]):
            chosen.add(r)
            rec(idx + 1, chosen)
            chosen.remove(r)

    rec(0, set())
    ideals.sort(key=lambda s: (len(s), sorted(r.coords for r in s)))
    return tuple(HessenbergSpace(lie_type, n, ideal | delta) for ideal in ideals)


def t_root(i: int, n: int, lie_type: LieType) -> Root:
    """The root corresponding to t_i in the given type (n >= 2)."""
    if n < 2 or not 1 <= i <= n:
        raise ValueError(f"t-index {i} out of range for n={n}")
    coords = [0] * n
    if i <= n - 2:
        coords[i - 1] = coords[i] = 1
    elif i == n - 1:
        coords[n - 2] = 1 if lie_type is LieType.B else 2
        coords[n - 1] = 1
    else:
        coords[n - 2] = 1
        coords[n - 1] = 2 if lie_type is LieType.B else 1
    return Root(tuple(coords), lie_type)


def t_set(space: HessenbergSpace) -> frozenset[int]:
    """{i : t_i in S(H)}, read off from the type-correct roots."""
    return frozenset(
        i
        for i in range(1, space.n + 1)
        if t_root(i, space.n, space.lie_type) in space.roots
    )


def tset_str(tset) -> str:
    return ",".join(f"t{i}" for i in sorted(tset))


def parse_tset(s: str) -> frozenset[int]:
    out = set()
    for part in s.split(","):
        part = part.strip()
        if not part:
            continue
        if not part.startswith("t") or not part[1:].isdigit():
            raise ValueError(f"malformed t-set entry {part!r}; expected e.g. \"t1,t4\"")
        out.add(int(part[1:]))
    return frozenset(out)


def realizable_tsets(lie_type: LieType, n: int) -> frozenset[frozenset[int]]:
    """The t-subsets of [n] realizable by an ideal of the given type.

    In type B any ideal containing the t_n root contains the t_{n-1} root;
    in type C the implication is reversed.  All other t-roots are pairwise
    incomparable, so these implications are the only constraints.
    """
    out = []
    for mask in range(2 ** n):
        sub = frozenset(i + 1 for i in range(n) if mask >> i & 1)
        if lie_type is LieType.B and n in sub and n - 1 not in sub:
            continue
        if lie_type is LieType.C and n - 1 in sub and n not in sub:
            continue
        out.append(sub)
    return frozenset(out)


def from_tset(tset, n: int, lie_type: LieType) -> HessenbergSpace:
    """Smallest ideal of the given type whose t-set is exactly `tset`."""
    tset = frozenset(tset)
    space = HessenbergSpace.from_generators(
        [t_root(i, n, lie_type) for i in sorted(tset)], lie_type, n
    )
    if t_set(space) != tset:
        raise ValueError(
            f"t-set {{{tset_str(tset)}}} is not realizable in type {lie_type} at n={n}"
        )
    return space


def realize_tset(tset, n: int, preferred: LieType = LieType.B) -> HessenbergSpace:
    """Realize a t-set as an ideal, preferring the given type.

    Every subset of {t_1,...,t_n} is realizable in at least one of the two
    types.
    """
    other = LieType.C if preferred is LieType.B else LieType.B
    try:
        return from_tset(tset, n, preferred)
    except ValueError:
        return from_tset(tset, n, other)


# ---------------------------------------------------------------------------
# H-inversions and the brute-force descent oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _root_negativity(lie_type: LieType, n: int) -> dict[Root, np.ndarray]:
    """For each positive root, the boolean vector over W_n of 'w sends it negative'.

    Read from the windows: w(e_i + c e_j) = sign(w(i)) e_|w(i)| + c sign(w(j)) e_|w(j)|
    for i < j, whose first nonzero entry sits at min(|w(i)|, |w(j)|).  So
    the root goes negative iff w(i) < 0 when |w(i)| < |w(j)|, and iff
    (w(j) < 0) xor (c < 0) otherwise; e_i and 2e_i go negative iff w(i) < 0.
    """
    win = np.ascontiguousarray(group_table(n).windows_array.T)  # row i: w(i)
    mag = np.abs(win)
    neg = win < 0
    out = {}
    for root in positive_roots(lie_type, n):
        vec = root.evector()
        i, *rest = np.flatnonzero(vec)
        if rest:
            j = rest[0]
            flip = neg[j] if vec[j] > 0 else ~neg[j]
            sends = np.where(mag[i] < mag[j], neg[i], flip)
        else:
            sends = neg[i].copy()
        sends.setflags(write=False)
        out[root] = sends
    return out


def _inversion_counts(space: HessenbergSpace) -> np.ndarray:
    """|H-inversions of w| for every w in the group table.

    A count is at most the number of positive roots, n^2 <= 36 through
    rank 6, so uint8 holds it: 46 KB at rank 6.  It takes one pass of adds
    over the cached root vectors, so it is recomputed on each call rather
    than kept per space.
    """
    neg = _root_negativity(space.lie_type, space.n)
    counts = np.zeros(group_table(space.n).size, dtype=np.uint8)
    for r in space.roots:
        counts += neg[r].view(np.uint8)  # uint8 + uint8 needs no cast
    return counts


def determining_elements(space: HessenbergSpace) -> np.ndarray:
    """E: the table indices of the elements with at most one H-inversion, in
    (length, table index) order, read-only; it starts at the identity, and
    the values at E determine a spline of the space (`splines.bundle_rank`)."""
    idx = np.flatnonzero(_inversion_counts(space) <= 1)
    out = idx[np.argsort(group_table(space.n).lengths[idx], kind="stable")]
    out.setflags(write=False)
    return out


def h_descent_indices(space: HessenbergSpace) -> tuple[np.ndarray, ...]:
    """Brute-force scan: for i = 1..n, the sorted table indices of the
    elements whose unique H-inversion is alpha_i (one count for all i)."""
    neg = _root_negativity(space.lie_type, space.n)
    once = _inversion_counts(space) == 1
    return tuple(
        np.flatnonzero(once & neg[simple_root(i, space.lie_type, space.n)])
        for i in range(1, space.n + 1)
    )


def dim_degree_one(space: HessenbergSpace) -> int:
    """n plus the number of elements with exactly one H-inversion."""
    return space.n + int(np.count_nonzero(_inversion_counts(space) == 1))


# ---------------------------------------------------------------------------
# Closed-form descent sets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _coset_cases(n: int, i: int) -> dict[SignedPerm, tuple]:
    """The ("f", i, A) tags of the shortest coset representatives but the identity."""
    e = SignedPerm.identity(n)
    return {w: ("f", i, w.window[:i]) for w in min_coset_reps(n, i) if w != e}


def descent_cases(tset, n: int, i: int) -> dict[SignedPerm, tuple]:
    """The case-split value of D_H(i) from the t-set alone, with witness tags.

    Each element maps to the tag of a spline whose shortest support is that
    element (`splines.witness_basis` builds one row per tag):

        ("rt", k)        sum_{j<=k} (r_j - t_j)
        ("try", j, i)    t_j - r_i - y_{i-1,j}
        ("y", i, k)      y_{i,k}
        ("f", i, A)      f_i^A
        ("g", k)         g_k
        ("phi", B)       phi^B
        ("h",)           h + g_1 + ... + g_n

    t_0 is treated as absent from every t-set.
    """
    if n < 2 or not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    tset = frozenset(tset)

    def word(*letters) -> SignedPerm:
        return SignedPerm.from_word(letters, n)

    coset_reps = _coset_cases(n, i)  # shared: returned as copies

    if i == n:
        if n in tset:
            return {SignedPerm.simple(n, n): ("rt", n)}
        if n - 1 in tset:
            return {word(*range(j, n + 1)): ("g", j) for j in range(1, n + 1)}
        return dict(coset_reps)

    pair = tset & {i - 1, i}
    if pair == {i - 1, i}:
        return {SignedPerm.simple(i, n): ("rt", i)}
    if pair == {i}:
        # s_j ... s_i
        return {
            word(*range(j, i + 1)): ("try", j, i) if j < i else ("rt", i)
            for j in range(1, i + 1)
        }
    if i <= n - 2:
        if pair == {i - 1}:
            # s_j ... s_i descending, then s_j ... s_n s_{n-1} ... s_i
            down = {word(*range(j, i - 1, -1)): ("y", i, j + 1) for j in range(i, n)}
            down[word(*range(n, i - 1, -1))] = ("y", i, -n)
            over = {
                word(*range(j, n + 1), *range(n - 1, i - 1, -1)): ("y", i, -j)
                for j in range(1, n)
            }
            return down | over
        return dict(coset_reps)

    # i == n - 1
    trip = tset & {n - 2, n - 1, n}
    if trip == {n - 2, n}:
        return {SignedPerm.simple(n - 1, n): ("rt", n - 1), word(n, n - 1): ("h",)}
    if trip == {n - 2}:
        ups = {word(*range(j, n + 1), n - 1): ("y", n - 1, -j) for j in range(1, n + 1)}
        return {SignedPerm.simple(n - 1, n): ("rt", n - 1)} | ups
    if trip == {n}:
        # the coset representatives that keep the t_n root positive; phi^B
        # with w([n-1]) inside B and w(n) outside has value x_{w(n-1)} - x_{w(n)}
        t_n = t_root(n, n, LieType.C)
        return {
            w: ("phi", w.window[: n - 1] + (-w.window[-1],))
            for w in coset_reps
            if is_positive(act(w, t_n))
        }
    return dict(coset_reps)


def h_descent_formula(tset, n: int, i: int) -> frozenset[SignedPerm]:
    """The case-split value of D_H(i) as a function of the t-set alone."""
    return frozenset(descent_cases(tset, n, i))


def on_divergent_branch(tset, n: int) -> bool:
    """Whether the t-set meets {t_{n-2}, t_{n-1}, t_n} in {t_n} alone.

    Only type C realizes such a t-set.  On this branch, at index n-1, the
    published case analysis lists n elements of D_H(n-1) where the scan
    finds 2^n - 2; `published_descent_formula` keeps that list.
    """
    return frozenset(tset) & {n - 2, n - 1, n} == {n}


def published_descent_formula(tset, n: int, i: int) -> frozenset[SignedPerm]:
    """`h_descent_formula` with the paper's case on the divergent branch.

    There the paper lists s_j ... s_{n-1} (1 <= j <= n-1) and s_n s_{n-1}: a
    subset of D_H(n-1) that misses 2^n - n - 2 elements (none at n = 2).
    Everywhere else the two agree.
    """
    if n >= 2 and i == n - 1 and on_divergent_branch(tset, n):
        asc = {SignedPerm.from_word(range(j, n), n) for j in range(1, n)}
        return frozenset(asc | {SignedPerm.from_word([n, n - 1], n)})
    return h_descent_formula(tset, n, i)


# ---------------------------------------------------------------------------
# Index classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexClassification:
    """Uncovered / surrounded / shaded indices of a t-set, plus the two flags.

    c = 1 iff t_n is absent (the standard-coset family contributes);
    d = 1 iff the t-set meets {t_{n-1}, t_n} in exactly {t_n} (the signed
    one-dimensional family contributes).  Never both.
    """

    n: int
    uncovered: frozenset[int]
    surrounded: frozenset[int]
    shaded: frozenset[int]
    c: int
    d: int


def classify(tset, n: int) -> IndexClassification:
    if n < 2:
        raise ValueError("need n >= 2")
    tset = frozenset(tset)
    if not tset <= set(range(1, n + 1)):
        raise ValueError(f"t-set entries out of range: {sorted(tset)}")
    uncovered, surrounded, shaded = set(), set(), set()
    for i in range(1, n + 1):
        if i == n - 1:
            if not tset & {n - 2, n - 1, n}:
                uncovered.add(i)
        elif not tset & {i - 1, i}:
            uncovered.add(i)
        if i <= n - 2 and tset & {i - 1, i} == {i - 1} and any(m > i for m in tset):
            surrounded.add(i)
        if i in tset or (i == n - 1 and n in tset):
            shaded.add(i)
    c = 1 if n not in tset else 0
    d = 1 if tset & {n - 1, n} == {n} else 0
    return IndexClassification(
        n, frozenset(uncovered), frozenset(surrounded), frozenset(shaded), c, d
    )
