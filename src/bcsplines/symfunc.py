"""
Type B/C symmetric functions and the two-variable Frobenius characteristic.

Class functions on W_n map isometrically onto degree-n elements of
Lambda(x, y) = sum_k Lambda_k(x) (x) Lambda_{n-k}(y) via

    frob(f) = 1/(2^n n!) * sum_w f(w) p_{lam(w)}(x+y) p_{mu(w)}(x-y),

where (lam(w), mu(w)) is the signed cycle type and p_r(x+y) = p_r(x) + p_r(y),
p_r(x-y) = p_r(x) - p_r(y).  The image of an irreducible character of W_n is
s_lam(x) s_mu(y), and h_lam(x) h_mu(y) is the image of a permutation
character, so the image of a virtual character has integer coefficients in
both bases: the denominator 2^n n! always divides out.

An element is therefore an int64 array over the pairs (lam, mu) of
partitions with |lam| + |mu| = n, in `conjugacy_classes(n)` order (the
order of the signed cycle types, sorted by (lam, mu)); the array holds its
H coefficients (h_lam(x) h_mu(y)) or its S coefficients (s_lam(x) s_mu(y)).
`h_basis` is one product with a cached integer matrix followed by one exact
division, which raises `ValueError` if the class function is not a virtual
character; `h_to_s` is one product with the double Kostka matrix.

The P -> H transition within one variable family is the Newton recurrence
r h_r = sum_k p_k h_{r-k}, solved for p_r and multiplied out over the parts
of a partition; its coefficients are integers.  The tests check it against
an independent route through the monomial basis.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

import numpy as np

from .group import Partition, conjugacy_classes


def _merge(lam: Partition, mu: Partition) -> Partition:
    return tuple(sorted(lam + mu, reverse=True))


def _matmul(a, b) -> np.ndarray:
    """a @ b in int64; sizes whose sums of products could leave int64 raise
    OverflowError."""
    a, b = np.asarray(a), np.asarray(b)
    peak = [max(int(m.max(initial=0)), -int(m.min(initial=0))) for m in (a, b)]
    if peak[0] * peak[1] * b.shape[0] >= 2**63:
        raise OverflowError(f"products of {peak[0]} and {peak[1]} may overflow int64")
    return a @ b


# ---------------------------------------------------------------------------
# Kostka numbers
# ---------------------------------------------------------------------------


def kostka(gamma: Partition, lam: Partition) -> int:
    """Number of semistandard tableaux of shape gamma and content lam.

    Counted by peeling horizontal strips: fillings by 1..len(lam) where the
    cells holding values <= j always form a partition shape and each value
    occupies a horizontal strip.
    """
    gamma, lam = tuple(gamma), tuple(lam)
    if sum(gamma) != sum(lam):
        raise ValueError("shape and content have different sizes")
    return _kostka_rec(gamma, lam)


@lru_cache(maxsize=None)
def _kostka_rec(gamma: Partition, lam: Partition) -> int:
    if not lam:
        return 1 if not gamma else 0
    *init, last = lam
    total = 0
    for smaller in _strip_removals(gamma, last):
        total += _kostka_rec(smaller, tuple(init))
    return total


def _strip_removals(gamma: Partition, size: int):
    """Shapes obtained from gamma by removing a horizontal strip of the size."""
    rows = len(gamma)
    choices = []
    for r in range(rows):
        lo = gamma[r + 1] if r + 1 < rows else 0
        choices.append(range(lo, gamma[r] + 1))
    for pick in product(*choices):
        if sum(gamma) - sum(pick) != size:
            continue
        # horizontal strip: new row r must be >= old row r+1
        if all(pick[r] >= gamma[r + 1] for r in range(rows - 1)):
            yield tuple(p for p in pick if p)


# ---------------------------------------------------------------------------
# P -> H within one variable family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def p_in_h_newton(r: int) -> dict[Partition, int]:
    """p_r in the h basis via the Newton recurrence r h_r = sum p_k h_{r-k}."""
    if r == 0:
        return {(): 1}
    out = {(r,): r}
    for k in range(1, r):
        for mu, c in p_in_h_newton(k).items():
            key = _merge(mu, (r - k,))
            out[key] = out.get(key, 0) - c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def p_in_h(lam: Partition) -> dict[Partition, int]:
    """Expansion of p_lam in the complete homogeneous basis: the product of
    the Newton expansions of its parts."""
    out = {(): 1}
    for part in lam:
        nxt: dict[Partition, int] = {}
        for mu, c in out.items():
            for nu, d in p_in_h_newton(part).items():
                key = _merge(mu, nu)
                nxt[key] = nxt.get(key, 0) + c * d
        out = nxt
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Two-variable symmetric functions as arrays over conjugacy_classes(n)
# ---------------------------------------------------------------------------

Key = tuple[Partition, Partition]


@lru_cache(maxsize=None)
def _frobenius_matrix(n: int) -> np.ndarray:
    """Read-only int64 (classes, classes) matrix whose row for the class of
    signed cycle type (lam, mu) is |class| times the H coefficients of
    p_lam(x+y) p_mu(x-y).

    The product is first expanded into P keys through p_r(x+y) = p_r(x) +
    p_r(y), p_r(x-y) = p_r(x) - p_r(y), with j of the m equal parts r sent
    to y in binomial(m, j) ways; one P -> H matrix then expands every P key
    at once.
    """
    classes = conjugacy_classes(n)
    index = {(cl.lam, cl.mu): i for i, cl in enumerate(classes)}
    to_p = [[0] * len(classes) for _ in classes]
    to_h = [[0] * len(classes) for _ in classes]
    for i, cl in enumerate(classes):
        runs = [(r, 1, cl.lam.count(r)) for r in sorted(set(cl.lam), reverse=True)]
        runs += [(r, -1, cl.mu.count(r)) for r in sorted(set(cl.mu), reverse=True)]
        for split in product(*(range(m + 1) for _, _, m in runs)):
            xs, ys, weight = [], [], cl.size
            for (r, sign, m), j in zip(runs, split):
                xs += [r] * (m - j)
                ys += [r] * j
                weight *= math.comb(m, j) * sign**j
            key = (tuple(sorted(xs, reverse=True)), tuple(sorted(ys, reverse=True)))
            to_p[i][index[key]] += weight
        for lam, c1 in p_in_h(cl.lam).items():
            for mu, c2 in p_in_h(cl.mu).items():
                to_h[i][index[lam, mu]] = c1 * c2
    out = _matmul(*(np.array(m, dtype=np.int64) for m in (to_p, to_h)))
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _kostka_matrix(n: int) -> np.ndarray:
    """Read-only int64 (classes, classes) matrix of the double Kostka
    expansion h_lam(x) h_mu(y) = sum K_{gamma,lam} K_{nu,mu} s_gamma(x) s_nu(y),
    read from one table of Kostka numbers over the partitions of 0..n."""
    classes = conjugacy_classes(n)
    shapes = sorted({cl.lam for cl in classes})
    table = np.array(
        [[kostka(g, c) if sum(g) == sum(c) else 0 for g in shapes] for c in shapes],
        dtype=np.int64,
    )
    where = {shape: k for k, shape in enumerate(shapes)}
    lam = np.array([where[cl.lam] for cl in classes])
    mu = np.array([where[cl.mu] for cl in classes])
    out = table[np.ix_(lam, lam)] * table[np.ix_(mu, mu)]
    out.setflags(write=False)
    return out


def h_basis(values, n: int) -> np.ndarray:
    """H coefficients of the Frobenius image of the class function with the
    given integer values over `conjugacy_classes(n)`.

    Raises ValueError if the values do not cover every class once, or if a
    coefficient is not an integer (the class function is then not a virtual
    character).
    """
    coeffs, rest = np.divmod(_matmul(values, _frobenius_matrix(n)), 2**n * math.factorial(n))
    if rest.any():
        raise ValueError("not a virtual character: its H coefficients are not integers")
    return coeffs


def h_to_s(coeffs, n: int) -> np.ndarray:
    """S coefficients of the element with the given H coefficients."""
    return _matmul(coeffs, _kostka_matrix(n))


def pretty(coeffs, n: int, letter: str) -> str:
    """The nonzero terms, e.g. "2 h[1|1,1] + h[2,1|∅]"."""
    parts = []
    for cl, c in zip(conjugacy_classes(n), coeffs.tolist(), strict=True):
        if not c:
            continue
        lam_s = ",".join(map(str, cl.lam)) if cl.lam else "∅"
        mu_s = ",".join(map(str, cl.mu)) if cl.mu else "∅"
        term = f"{letter}[{lam_s}|{mu_s}]"
        if c == 1:
            parts.append(term)
        elif c == -1:
            parts.append(f"-{term}")
        else:
            parts.append(f"{c} {term}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def h_positivity(coeffs, n: int) -> tuple[bool, list[tuple[Key, int]]]:
    """Whether all H coefficients are nonnegative; witnesses otherwise."""
    witness = [
        ((cl.lam, cl.mu), c)
        for cl, c in zip(conjugacy_classes(n), coeffs.tolist(), strict=True)
        if c < 0
    ]
    return (not witness, witness)


def _terms(n: int, *keys: Key) -> np.ndarray:
    """The sum of the basis elements at the given keys."""
    return np.array([keys.count((cl.lam, cl.mu)) for cl in conjugacy_classes(n)], dtype=np.int64)


def coset_action_h_expansion(k: int, n: int) -> np.ndarray:
    """Stated H-expansion of the action on cosets of S_k x W_{n-k}:
    h_{(n-k)}(x) * sum_{j=0..k} h_{(j)}(x) h_{(k-j)}(y)."""
    keys = []
    for j in range(k + 1):
        lam = tuple(sorted((p for p in (n - k, j) if p), reverse=True))
        keys.append((lam, (k - j,) if k - j else ()))
    return _terms(n, *keys)


def verify_table_rows(n: int) -> dict[str, bool]:
    """Check the stated H-basis images of the named characters.

    trivial -> h_{(n),()};  delta -> h_{(),(n)};  defining -> h_{(n-1),(1)};
    s -> h_{(n-1,1),()};  h_k -> h_{(n-k)} * sum_j h_{(j),(k-j)}.
    """
    from .characters import named_char

    stated = {
        "trivial": _terms(n, ((n,), ())),
        "delta": _terms(n, ((), (n,))),
        "defining": _terms(n, ((n - 1,), (1,))),
        "s": _terms(n, ((n - 1, 1), ())),
    }
    report = {}
    for kind, want in stated.items():
        report[kind] = np.array_equal(h_basis(named_char(kind, n), n), want)
    for k in range(1, n + 1):
        got = h_basis(named_char("h_i", n, i=k), n)
        report[f"h_{k}"] = np.array_equal(got, coset_action_h_expansion(k, n))
    return report
