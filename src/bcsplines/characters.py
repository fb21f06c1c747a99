"""
The dot action on splines and the degree-one characters.

The group acts on a spline by (w . rho)(v) = w(rho(w^{-1} v)), where w
acts on polynomials by permuting and signing the variables, so the image
is one signed gather of rho's coefficients at the rows w^{-1} v
(`dot_action`; the traces gather only the pivot coordinates).  Quotienting
the degree-one spline space by the span of the constant family t_1..t_n
(left) or of the window family r_1..r_n (right) yields two W_n-modules.
One check per rank on those two families certifies that the dot action
keeps the edge labels and both spans.  The characters are computed two ways:

  * computed_char: exact traces of the dot action on a certified basis,
    one trace per conjugacy class representative;
  * formula_char:  the closed-form expression read off the classification
    of the t-set, a combination of the named characters

        1 (trivial),  delta(w) = (-1)^{|Neg(w)|},
        chi(w) = #{w(i)=i} - #{w(i)=-i}   (the defining character),
        h_i(w) = #{unbalanced A, |A| = i, w(A) = A},
        s(w)   = #{k in [n] : |w(k)| = k}.

A class function is an int64 array of values in `conjugacy_classes(n)`
order.  The named characters and the traces read one stack of the class
representatives' windows (`_class_windows`); each named character is one
vectorised expression over it, and the traces compute g^{-1} v only at the
pivot elements v.  Cached arrays are read-only.

The two routes are cross-checked; disagreements are reported by the
verification suites, never silently resolved.  Only the trace route
imports `splines` and `linalg`, when it first runs, so a process that
needs the closed forms alone never loads them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .group import SignedPerm, compose, conjugacy_classes, group_table, invert, unbalanced_sets
from .hessenberg import HessenbergSpace, classify, on_divergent_branch


def _signed_columns(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(col, sign) with (w p)[r] = sign[r] * p[col[r]] for a coefficient row p,
    for each window w of the stack (..., n): w sends x_i to sign(w(i)) x_{|w(i)|},
    so col[r] is the i with |w(i)| = r + 1.  The signs are int8, so they keep
    a signed integer dtype when multiplied."""
    col = np.argsort(np.abs(windows), axis=-1)
    return col, np.sign(np.take_along_axis(windows, col, axis=-1)).astype(np.int8)


def dot_action(w: SignedPerm, values: np.ndarray) -> np.ndarray:
    """(w . rho)(v) = w(rho(w^{-1} v)) for each spline of the stack (..., N, n):
    one signed gather.  Negating the dtype's minimum wraps, so an entry there
    raises OverflowError."""
    if w.n != values.shape[-1]:
        window, n = ",".join(map(str, w.window)), values.shape[-1]
        raise ValueError(f"rank mismatch: window {window} has rank {w.n}, the splines need rank {n}")
    if values.dtype.kind == "i" and (values == np.iinfo(values.dtype).min).any():
        raise OverflowError(f"negating {np.iinfo(values.dtype).min} does not fit {values.dtype}")
    src = group_table(w.n).left_mult_indices(w.inverse())
    col, sign = _signed_columns(np.array(w.window))
    return values[..., src[:, None], col] * sign


# ---------------------------------------------------------------------------
# Named characters
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _class_windows(n: int) -> np.ndarray:
    """The windows of the class representatives, one row per class in
    `conjugacy_classes(n)` order: a read-only int8 (classes, n) stack."""
    reps = np.array([c.rep.window for c in conjugacy_classes(n)], dtype=np.int8)
    reps.setflags(write=False)
    return reps


@lru_cache(maxsize=None)
def named_char(kind: str, n: int, i: int | None = None) -> np.ndarray:
    """One of the building blocks (trivial, delta, defining, h_i, s) as a
    read-only int64 array over `conjugacy_classes(n)`, read off the stacked
    class representatives."""
    reps = _class_windows(n)
    if kind == "h_i":
        if i is None:
            raise ValueError("h_i needs an index")
        # w fixes a set iff its sorted image equals the set's (sorted) row
        sets = np.array(unbalanced_sets(i, n), dtype=np.int64).reshape(-1, i)
        images = np.sort(np.sign(sets) * reps[:, np.abs(sets) - 1], axis=-1)  # (classes, sets, i)
        values = (images == sets).all(axis=-1).sum(axis=1)
    elif i is not None:
        raise ValueError(f"{kind} takes no index")
    elif kind == "trivial":
        values = np.ones(len(reps))
    elif kind == "delta":
        values = 1 - 2 * ((reps < 0).sum(axis=1) % 2)
    elif kind in ("defining", "s"):
        pos = np.arange(1, n + 1)
        fixed, negated = (reps == pos).sum(axis=1), (reps == -pos).sum(axis=1)
        values = fixed - negated if kind == "defining" else fixed + negated
    else:
        raise ValueError(f"unknown character {kind!r}")
    values = values.astype(np.int64)
    values.setflags(write=False)
    return values


# ---------------------------------------------------------------------------
# Closed-form character expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CharacterExpression:
    """a*1 + sum_{i in I} h_i + c*s + d*delta + chi*defining - offset*1.

    I is a multiset, so an uncovered index 1 and the copies of h_1 for the
    surrounded indices coexist without collapsing.
    """

    n: int
    a: int = 0
    h_indices: tuple[int, ...] = ()
    c: int = 0
    d: int = 0
    chi: int = 0
    one_offset: int = 0

    def __post_init__(self):
        if self.a < 0 or self.c not in (0, 1) or self.d not in (0, 1):
            raise ValueError("coefficients out of range")
        if self.c and self.d:
            raise ValueError("c and d are never simultaneously 1")

    def dimension(self) -> int:
        n = self.n
        total = self.a - self.one_offset + self.chi * n + self.c * n + self.d
        return total + sum(2**i * math.comb(n, i) for i in self.h_indices)

    def evaluate(self) -> np.ndarray:
        """The values over `conjugacy_classes(n)`, an int64 array."""
        n = self.n
        terms = [
            (self.a - self.one_offset) * named_char("trivial", n),
            self.chi * named_char("defining", n),
            self.c * named_char("s", n),
            self.d * named_char("delta", n),
        ]
        return sum(terms + [named_char("h_i", n, i) for i in self.h_indices])

    def canonical_str(self) -> str:
        terms: list[str] = []

        def coeff(mult: int, name: str) -> str:
            return name if mult == 1 else f"{mult}*{name}"

        if self.chi > 0:
            terms.append(coeff(self.chi, "chi"))
        if self.a:
            terms.append(coeff(self.a, "1"))
        counts = Counter(self.h_indices)
        for i in sorted(counts):
            terms.append(coeff(counts[i], f"h{i}"))
        if self.c:
            terms.append("s")
        if self.d:
            terms.append("delta")
        expr = " + ".join(terms) if terms else "0"
        if self.one_offset:
            expr += f" - {coeff(self.one_offset, '1')}"
        if self.chi < 0:
            expr += f" - {coeff(-self.chi, 'chi')}"
        return expr


def formula_char(tset, n: int, side: str) -> CharacterExpression:
    """The closed-form degree-one character of the left or right quotient.

    The empty t-set is the standard-parabolic case with its own formula
    (sum of all h_i minus the defining character on the left, minus n
    trivial on the right); every other t-set goes through the index
    classification.  On the divergent branch (n >= 3) the signed
    one-dimensional family gives way to h_n - 1 - chi: the left side is
    (a-1)*1 + sum h_i + h_n - chi and the right side
    sum h_i + h_n - (|I| + 1)*1, with I the multiset of `_classified_char`.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    tset = frozenset(tset)
    if not tset:
        allh = tuple(range(1, n + 1))
        if side == "left":
            return CharacterExpression(n, h_indices=allh, chi=-1)
        return CharacterExpression(n, h_indices=allh, one_offset=n)
    cls = classify(tset, n)
    if not (n >= 3 and on_divergent_branch(tset, n)):
        return _classified_char(cls, side)
    # h_n - 1 - chi in place of delta (c = 0 here since t_n is present)
    hs = tuple(sorted(cls.uncovered)) + (1,) * len(cls.surrounded) + (n,)
    if side == "left":
        return CharacterExpression(n, a=len(cls.shaded) - 1, h_indices=hs, chi=-1)
    return CharacterExpression(n, h_indices=hs, one_offset=len(hs))


def _classified_char(cls, side: str) -> CharacterExpression:
    """The paper's expression read off the index classification."""
    # the uncovered indices, then one h_1 per surrounded index
    n, hs = cls.n, tuple(sorted(cls.uncovered)) + (1,) * len(cls.surrounded)
    if side == "left":
        return CharacterExpression(n, a=len(cls.shaded), h_indices=hs, c=cls.c, d=cls.d)
    return CharacterExpression(
        n, h_indices=hs, c=cls.c, d=cls.d, chi=1, one_offset=len(hs) + cls.c
    )


def published_formula_char(tset, n: int, side: str) -> CharacterExpression:
    """`formula_char` with the paper's case on the divergent branch.

    For n >= 3 on that branch the paper's expression falls short of the
    trace character by h_n - 1 - delta - chi (dimension 2^n - n - 2); at
    n = 2 that difference vanishes and everywhere else the two agree.
    """
    tset = frozenset(tset)
    if side in ("left", "right") and n >= 3 and on_divergent_branch(tset, n):
        return _classified_char(classify(tset, n), side)
    return formula_char(tset, n, side)


# ---------------------------------------------------------------------------
# Trace-based characters
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _simples_fix_r_and_permute_t(n: int) -> bool:
    """Under the dot action every simple s fixes r_1..r_n and sends t_k to
    t_{s(k)}; as the dot action is an action, every w does the same.  So w
    fixes each label sum_k alpha_k r_k (`splines.label_matrix`) of either
    type, and maps edge conditions to edge conditions, and the spans of
    t_1..t_n and r_1..r_n carry chi and the n-fold trivial character.
    """
    from .splines import r_family, t_family

    idx = range(1, n + 1)
    r = r_family(idx, n)
    r_t = np.concatenate([r, t_family(idx, n)])
    for i in idx:
        s = SignedPerm.simple(i, n)
        if not np.array_equal(dot_action(s, r_t), np.concatenate([r, t_family(s.window, n)])):
            return False
    return True


@lru_cache(maxsize=None)
def _trace_data(space: HessenbergSpace) -> tuple[int, ...]:
    """Build, certify and trace the witness basis of the space; keep only the
    per-class traces on the full degree-one space.

    The certificate: `splines.witness_pivots` reads the pivots off E, the
    elements with at most one H-inversion, checks that the count equals
    their number (the scan dimension) and that the pivot block is upper
    triangular with a nonzero diagonal (an exact integer test, so the
    elements are independent), and every element meets the edge conditions
    (one `edges_ok` call for the whole basis).  The dot action is defined on
    the space: its labels are pairwise independent and equivariant
    (`splines.labels_pairwise_independent`, `_simples_fix_r_and_permute_t`).

    Each trace is tr(pv P^{-1}) modulo PRIMES[0], where P is the pivot block
    and pv holds the images of the basis at the pivot coordinates (the
    signed gather of `dot_action`, at those coordinates only, from sources
    g^{-1} v found for the m pivot elements v alone), both with the rows in
    bundle order, the build order of `witness_basis`.
    On a W_n-stable space of dimension m a trace is an integer of absolute
    value at most m < p/2, so its symmetric residue is exact.
    """
    from .linalg import PRIMES, inverse_mod_p, symmetric_lift, trace_product_mod_p
    from .splines import edges_ok, labels_pairwise_independent, witness_basis, witness_pivots

    n = space.n
    bundle = witness_basis(space)  # (m, N, n)
    m, p = len(bundle), PRIMES[0]
    elems, coords = witness_pivots(bundle, space)
    if not edges_ok(bundle, space.roots).all():
        raise AssertionError("bundle element violates an edge condition")
    if not labels_pairwise_independent(space.lie_type, n):
        raise AssertionError("edge labels are not pairwise independent")
    if not _simples_fix_r_and_permute_t(n):
        raise AssertionError("dot action does not preserve the edge ideals")
    inv = inverse_mod_p(bundle[:, elems, coords], p)
    reps, table = _class_windows(n), group_table(n)
    # (classes, m): the index of g^{-1} v for each representative g and pivot element v
    inverses = np.repeat(invert(reps), m, axis=0)
    pivots = np.tile(table.windows_array[elems], (len(reps), 1))
    sources = table.indices_of(compose(inverses, pivots)).reshape(len(reps), m)
    col, sign = _signed_columns(reps)
    # (m, classes, m): the dot images of the basis at the pivot coordinates
    pv = bundle[:, sources, col[:, coords]] * sign[:, coords]
    traces = trace_product_mod_p(pv.transpose(1, 0, 2), inv, p)
    return tuple(symmetric_lift(int(t), p, m) for t in traces)


def computed_char(space: HessenbergSpace, side: str) -> np.ndarray:
    """Trace of the dot action on a certified basis, minus the invariant part,
    as an int64 array over `conjugacy_classes(n)`.

    The span of t_1..t_n carries the defining character and the span of
    r_1..r_n the n-fold trivial character, so the quotient characters are
    trace - chi and trace - n respectively, as `_trace_data` certifies
    (`_simples_fix_r_and_permute_t`).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    traces = np.array(_trace_data(space), dtype=np.int64)
    return traces - (named_char("defining", space.n) if side == "left" else space.n)
