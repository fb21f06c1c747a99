"""
Type B/C symmetric functions and the two-variable Frobenius characteristic.

Class functions on W_n map isometrically onto degree-n elements of
Lambda(x, y) = sum_k Lambda_k(x) (x) Lambda_{n-k}(y) via

    frob(f) = 1/(2^n n!) * sum_w f(w) p_{lam(w)}(x+y) p_{mu(w)}(x-y),

where (lam(w), mu(w)) is the signed cycle type and p_r(x+y) = p_r(x) + p_r(y),
p_r(x-y) = p_r(x) - p_r(y).  Supported bases: P (p_lam(x) p_mu(y)),
H (h_lam(x) h_mu(y)) and S (s_lam(x) s_mu(y)); conversions are exact.

The P -> H transition within one variable family is the Newton recurrence
r h_r = sum_k p_k h_{r-k}, solved for p_r and multiplied out over the parts
of a partition; the tests check it against an independent route through
the monomial basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .group import Partition, conjugacy_classes, cycle_type_str


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


def _merge(lam: Partition, mu: Partition) -> Partition:
    return tuple(sorted(lam + mu, reverse=True))


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
def p_in_h_newton(r: int) -> dict[Partition, Fraction]:
    """p_r in the h basis via the Newton recurrence r h_r = sum p_k h_{r-k}."""
    if r == 0:
        return {(): Fraction(1)}
    out = {(r,): Fraction(r)}
    for k in range(1, r):
        for mu, c in p_in_h_newton(k).items():
            key = _merge(mu, (r - k,))
            out[key] = out.get(key, Fraction(0)) - c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def p_in_h(lam: Partition) -> dict[Partition, Fraction]:
    """Expansion of p_lam in the complete homogeneous basis: the product of
    the Newton expansions of its parts."""
    out = {(): Fraction(1)}
    for part in lam:
        nxt: dict[Partition, Fraction] = {}
        for mu, c in out.items():
            for nu, d in p_in_h_newton(part).items():
                key = _merge(mu, nu)
                nxt[key] = nxt.get(key, Fraction(0)) + c * d
        out = nxt
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# Two-variable symmetric functions
# ---------------------------------------------------------------------------

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

    def __eq__(self, other):
        return (
            isinstance(other, BCSymFunc)
            and self.degree == other.degree
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if self.basis != other.basis or self.degree != other.degree:
            raise ValueError("basis or degree mismatch")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BCSymFunc(self.degree, self.basis, out)

    def scale(self, c) -> "BCSymFunc":
        c = Fraction(c)
        return BCSymFunc(self.degree, self.basis, {k: c * v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + other.scale(-1)

    def items_sorted(self):
        return sorted(self.coeffs.items())

    def pretty(self) -> str:
        letter = self.basis.lower()
        if not self.coeffs:
            return "0"
        parts = []
        for (lam, mu), c in self.items_sorted():
            lam_s = ",".join(map(str, lam)) if lam else "∅"
            mu_s = ",".join(map(str, mu)) if mu else "∅"
            term = f"{letter}[{lam_s}|{mu_s}]"
            if c == 1:
                parts.append(term)
            elif c == -1:
                parts.append(f"-{term}")
            else:
                parts.append(f"{c} {term}")
        return " + ".join(parts).replace("+ -", "- ")


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


def h_basis(values, n: int) -> BCSymFunc:
    return p_to_h(frobenius_bc(values, n))


def h_positivity(f: BCSymFunc) -> tuple[bool, list[tuple[Key, Fraction]]]:
    """Whether all H-basis coefficients are nonnegative; witnesses otherwise."""
    if f.basis != "H":
        raise ValueError("expected an H-basis element")
    witness = [(k, c) for k, c in f.items_sorted() if c < 0]
    return (not witness, witness)


def h_elem(lam: Partition, mu: Partition) -> BCSymFunc:
    return BCSymFunc(sum(lam) + sum(mu), "H", {(tuple(lam), tuple(mu)): Fraction(1)})


def coset_action_h_expansion(k: int, n: int) -> BCSymFunc:
    """Stated H-expansion of the action on cosets of S_k x W_{n-k}:
    h_{(n-k)}(x) * sum_{j=0..k} h_{(j)}(x) h_{(k-j)}(y)."""
    total = BCSymFunc(n, "H", {})
    for j in range(k + 1):
        lam = tuple(p for p in ((n - k), j) if p)
        mu = (k - j,) if k - j else ()
        total = total + h_elem(tuple(sorted(lam, reverse=True)), mu)
    return total


def verify_table_rows(n: int) -> dict[str, bool]:
    """Check the stated H-basis images of the named characters.

    trivial -> h_{(n),()};  delta -> h_{(),(n)};  defining -> h_{(n-1),(1)};
    s -> h_{(n-1,1),()};  h_k -> h_{(n-k)} * sum_j h_{(j),(k-j)}.
    """
    from .characters import named_char

    report: dict[str, bool] = {}
    report["trivial"] = h_basis(named_char("trivial", n), n) == h_elem((n,), ())
    report["delta"] = h_basis(named_char("delta", n), n) == h_elem((), (n,))
    report["defining"] = h_basis(named_char("defining", n), n) == h_elem((n - 1,), (1,))
    report["s"] = h_basis(named_char("s", n), n) == h_elem((n - 1, 1), ())
    for k in range(1, n + 1):
        report[f"h_{k}"] = h_basis(named_char("h_i", n, i=k), n) == coset_action_h_expansion(k, n)
    return report
