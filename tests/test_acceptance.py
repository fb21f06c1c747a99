"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -rA` to see every line.

Criteria 2, 3 and 6 check the program's closed forms against the
definition.  On the divergent branch (type C, t-sets {t3} at rank 3 and
{t4}, {t1,t4} at rank 4, at index n-1) the paper's published case
disagrees with the definition-level scan, which an independent exact
kernel computation of the edge-condition system confirms; the program
carries a corrected case there.  The published case stays callable
(published_descent_formula, published_formula_char); criterion 1 checks
its reference rows, and tests/test_hessenberg.py::TestDescentSets and the
README document the divergence.
"""

import itertools
import random
import time

import numpy as np
import pytest

from bcsplines.characters import (
    computed_char,
    dot_action,
    formula_char,
    named_char,
    published_formula_char,
)
from bcsplines.group import (
    SignedPerm,
    group_table,
    min_coset_reps,
)
from bcsplines.hessenberg import (
    dim_degree_one,
    enumerate_hessenberg,
    h_descent_formula,
    h_descent_indices,
    realize_tset,
    t_set,
    tset_str,
)
from bcsplines.roots import LieType, positive_roots, root_to_reflection
from bcsplines.splines import (
    bundle_rank,
    f_spline,
    g_spline,
    generating_set,
    h_spline,
    r_spline,
    t_spline,
    unbalanced_sets,
    y_spline,
)
from bcsplines.symfunc import (
    h_basis,
    h_positivity,
    h_to_s,
    pretty,
    verify_table_rows,
)

from reference import (
    length, named_char_value, spline_space_basis, telescoping_identity, y_f_g_identity
)

B, C = LieType.B, LieType.C


def h_descent_oracle(space, i) -> frozenset[SignedPerm]:
    """The scan's hits as elements, to compare with the closed forms."""
    if not 1 <= i <= space.n:
        raise ValueError(f"index {i} out of range")
    rows = group_table(space.n).windows_array[h_descent_indices(space)[i - 1]]
    return frozenset(SignedPerm(w) for w in rows.tolist())


def elements(table) -> list[SignedPerm]:
    """Every element of the table, in table order."""
    return [SignedPerm(w) for w in table.windows_array.tolist()]


def report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status}{' — ' + detail if detail else ''}")


def all_tsets(n):
    return [
        frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(2**n)
    ]


# reference degree-one characters for rank four as published, one row per
# t-subset (rows {t4} and {t1,t4} are the paper's case on the divergent
# branch):
# (shaded count a, uncovered h-indices, surrounded count b, c, d, dim);
# the left side is a*1 + sum h_i + b*h1 + c*s + d*delta, the right side is
# chi + sum(h_i - 1) + b(h1 - 1) + c(s - 1) + d*delta; the empty t-subset
# is sum of all h_i minus chi (left) / minus 4*1 (right) with dim 76.
REFERENCE_ROWS_RANK_FOUR = {
    frozenset({1}): (1, (3, 4), 0, 1, 0, 53),
    frozenset({2}): (1, (1, 4), 0, 1, 0, 29),
    frozenset({3}): (1, (1, 2), 0, 1, 0, 37),
    frozenset({4}): (2, (1, 2), 0, 0, 1, 35),
    frozenset({1, 2}): (2, (4,), 0, 1, 0, 22),
    frozenset({1, 3}): (2, (), 1, 1, 0, 14),
    frozenset({1, 4}): (3, (1,), 0, 0, 1, 12),
    frozenset({2, 3}): (2, (1,), 0, 1, 0, 14),
    frozenset({2, 4}): (3, (1,), 0, 0, 1, 12),
    frozenset({3, 4}): (2, (1, 2), 0, 0, 0, 34),
    frozenset({1, 2, 3}): (3, (), 0, 1, 0, 7),
    frozenset({1, 2, 4}): (4, (), 0, 0, 1, 5),
    frozenset({1, 3, 4}): (3, (), 1, 0, 0, 11),
    frozenset({2, 3, 4}): (3, (1,), 0, 0, 0, 11),
    frozenset({1, 2, 3, 4}): (4, (), 0, 0, 0, 4),
}


def reference_class_function(tset, n, side) -> tuple[np.ndarray, int]:
    one = named_char("trivial", n)
    chi = named_char("defining", n)
    if not tset:
        total = 0 * one
        for i in range(1, n + 1):
            total = total + named_char("h_i", n, i)
        total = total - (chi if side == "left" else n * one)
        return total, 76
    a, hs, b, c, d, dim = REFERENCE_ROWS_RANK_FOUR[tset]
    hs = tuple(hs) + (1,) * b
    offset = 0 if side == "left" else len(hs) + c
    total = (a - offset) * one if side == "left" else chi + (-offset) * one
    for i in hs:
        total = total + named_char("h_i", n, i)
    if c:
        total = total + named_char("s", n)
    if d:
        total = total + named_char("delta", n)
    return total, dim


def test_criterion_01_reference_table_rank_four():
    """All 16 t-subsets reproduce the reference characters and dimensions,
    and the full-oracle verification pass over W_4 runs inside 60 seconds."""
    n = 4
    bad = []
    for ts in all_tsets(n):
        for side in ("left", "right"):
            expr = published_formula_char(ts, n, side)
            ref, dim = reference_class_function(ts, n, side)
            if not np.array_equal(expr.evaluate(), ref) or expr.dimension() != dim:
                bad.append((tset_str(ts), side))
    # full-oracle pass, timed from cold character caches
    import bcsplines.characters as chars

    chars._trace_data.cache_clear()
    spline_space_basis.cache_clear()
    start = time.monotonic()
    unverified = []
    for ts in all_tsets(n):
        space = realize_tset(ts, n, B)
        for side in ("left", "right"):
            if not np.array_equal(computed_char(space, side), formula_char(ts, n, side).evaluate()):
                unverified.append((tset_str(ts), side))
    elapsed = time.monotonic() - start
    detail = (
        f"16 rows exact, oracle pass in {elapsed:.1f}s; "
        f"oracle contradicts the closed form at {sorted(set(t for t, _ in unverified))}"
        if unverified
        else f"16 rows exact, oracle pass in {elapsed:.1f}s, all verified"
    )
    ok = not bad and elapsed < 60
    report(1, "reference-table-rank-four", ok, detail)
    assert not bad, f"table rows off: {bad}"
    assert elapsed < 60


def test_criterion_02_descent_oracle_formula_agreement():
    """Closed-form descent sets equal the scan for every space of rank 2-4."""
    start = time.monotonic()
    bad = []
    for n in (2, 3, 4):
        for lt in (B, C):
            for space in enumerate_hessenberg(lt, n):
                ts = t_set(space)
                for i in range(1, n + 1):
                    if h_descent_oracle(space, i) != h_descent_formula(ts, n, i):
                        bad.append((str(lt), n, tset_str(ts), i))
    elapsed = time.monotonic() - start
    bad = sorted(set(bad))
    ok = not bad and elapsed < 30
    report(
        2,
        "descent-oracle-formula-agreement",
        ok,
        f"{elapsed:.1f}s"
        + ("" if not bad else f"; disagreement at {bad}"),
    )
    assert elapsed < 30
    assert not bad, (
        "closed-form descent sets disagree with the definition-level scan at "
        f"{bad}; the scan is confirmed by an exact kernel computation "
        "(see tests/test_hessenberg.py)"
    )


def test_criterion_03_dimension_law():
    """Certified rank of the generating set equals n plus the scan count."""
    bad = []
    for n in (2, 3, 4):
        for lt in (B, C):
            for space in enumerate_hessenberg(lt, n):
                rank = bundle_rank(generating_set(space), space)
                if rank != dim_degree_one(space):
                    bad.append((str(lt), n, tset_str(t_set(space)), rank, dim_degree_one(space)))
    bad = sorted(set(bad))
    report(
        3,
        "dimension-law",
        not bad,
        "" if not bad else f"rank < scan dimension at {bad}",
    )
    assert not bad, (
        f"generating-set rank does not reach the scan dimension at {bad}; "
        "the families do not span on these cells"
    )


def test_criterion_04_relation_identities():
    """The five relation groups hold exactly at every element for n in 2..4."""
    for n in (2, 3, 4):
        ks = [x for x in range(-n, n + 1) if x]
        for i in range(1, n + 1):
            total = np.sum([f_spline(i, a, n) for a in unbalanced_sets(i, n)], axis=0)
            expected = (
                r_spline(i, n) - r_spline(i + 1, n) if i < n else r_spline(n, n)
            )
            assert np.array_equal(total, expected), f"coset sum fails at n={n}, i={i}"
        for i in range(1, n):
            total = np.sum([y_spline(i, k, n) for k in ks], axis=0)
            expected = np.sum([r_spline(j, n) for j in range(1, i + 1)], axis=0)
            expected = expected - i * r_spline(i + 1, n)
            assert np.array_equal(total, expected), f"interval sum fails at n={n}, i={i}"
        for p in range(0, n - 1):
            for m in range(p + 1, n):
                for k in ks:
                    assert telescoping_identity(p, m, k, n)
        for p in range(0, n):
            for k in ks:
                assert y_f_g_identity(p, k, n)
        for i in range(1, n + 1):
            assert np.array_equal(g_spline(i, n) - g_spline(-i, n), t_spline(i, n))
        lhs = np.sum([g_spline(j, n) for j in range(1, n + 1)], axis=0)
        rhs = np.sum([t_spline(j, n) - r_spline(j, n) for j in range(1, n + 1)], axis=0)
        assert np.array_equal(2 * lhs, rhs)
    report(4, "relation-identities", True, "n = 2, 3, 4 exact")


def _family_items(n):
    items = [("t", i) for i in range(1, n + 1)]
    items += [("r", i) for i in range(1, n + 1)]
    items += [
        ("f", (i, a)) for i in range(1, n + 1) for a in unbalanced_sets(i, n)
    ]
    items += [
        ("y", (i, k))
        for i in range(1, n)
        for k in range(-n, n + 1)
        if k
    ]
    items += [("g", i) for i in range(1, n + 1)]
    return items


def _check_family_action(kind, param, w, n):
    if kind == "t":
        img = w(param)
        expected = t_spline(abs(img), n) * (1 if img > 0 else -1)
        return np.array_equal(dot_action(w, t_spline(param, n)), expected)
    if kind == "r":
        return np.array_equal(dot_action(w, r_spline(param, n)), r_spline(param, n))
    if kind == "f":
        i, a = param
        return np.array_equal(
            dot_action(w, f_spline(i, a, n)), f_spline(i, tuple(sorted(w(k) for k in a)), n)
        )
    if kind == "y":
        i, k = param
        return np.array_equal(dot_action(w, y_spline(i, k, n)), y_spline(i, w(k), n))
    i = param
    return np.array_equal(dot_action(w, g_spline(i, n)), g_spline(w(i), n))


def test_criterion_05_dot_action_lemmas():
    """Family transport under the dot action and the parity sign law:
    exhaustive for n <= 3, a thousand random samples at n = 4."""
    for n in (2, 3):
        table = group_table(n)
        items = _family_items(n)
        for w in elements(table):
            for kind, param in items:
                assert _check_family_action(kind, param, w, n)
            h = h_spline(n)
            rn = r_spline(n, n)
            odd = named_char_value("delta", w) == -1
            assert np.array_equal(dot_action(w, h), rn - h if odd else h)
            combo = rn - 2 * h
            assert np.array_equal(dot_action(w, combo), -combo if odd else combo)
    n = 4
    rng = random.Random(1234)
    table = group_table(n)
    items = _family_items(n)
    h = h_spline(n)
    rn = r_spline(n, n)
    combo = rn - 2 * h
    for _ in range(1000):
        w = rng.choice(elements(table))
        kind, param = rng.choice(items)
        assert _check_family_action(kind, param, w, n)
        odd = named_char_value("delta", w) == -1
        assert np.array_equal(dot_action(w, combo), -combo if odd else combo)
    report(5, "dot-action-lemmas", True, "exhaustive n<=3, 1000 samples n=4")


def test_criterion_06_character_closed_form():
    """Trace characters equal the closed-form characters for every space of
    rank 2-4, both types, both sides (the central cross-check)."""
    bad = []
    for n in (2, 3, 4):
        for lt in (B, C):
            for space in enumerate_hessenberg(lt, n):
                ts = t_set(space)
                for side in ("left", "right"):
                    if not np.array_equal(
                        computed_char(space, side), formula_char(ts, n, side).evaluate()
                    ):
                        bad.append((str(lt), n, tset_str(ts), side))
    bad = sorted(set(bad))
    report(
        6,
        "character-closed-form",
        not bad,
        "" if not bad else f"trace disagrees with closed form at {bad}",
    )
    assert not bad, (
        f"computed and closed-form characters differ at {bad}; the computed "
        "side uses a certified basis of the full edge-condition kernel "
        "(see tests/test_characters.py::TestComputedCharacters)"
    )


def test_criterion_07_large_rank_formula_only():
    """Rank-eight formula-only check in under a second."""
    start = time.monotonic()
    left = formula_char({2, 5, 6, 8}, 8, "left")
    ok = (
        left.a == 5
        and sorted(left.h_indices) == [1, 1, 4]
        and left.c == 0
        and left.d == 1
        and left.dimension() == 1158
        and formula_char({2, 5, 6, 8}, 8, "right").dimension() == 1158
    )
    elapsed = time.monotonic() - start
    report(7, "large-rank-formula-only", ok and elapsed < 1, f"{elapsed:.3f}s")
    assert ok
    assert elapsed < 1


def test_criterion_08_frobenius():
    """The two-variable Frobenius images of the named characters."""
    assert pretty(h_basis(named_char("defining", 3), 3), 3, "h") == "h[2|1]"
    for n in (2, 3, 4):
        rep = verify_table_rows(n)
        assert all(rep.values()), f"failed rows at n={n}: {rep}"
    report(8, "frobenius-images", True, "defining at n=3 plus all rows n<=4")


def test_criterion_09_h_positivity():
    """The left character has nonnegative H-coefficients for every space of
    rank 2-4 (checked on the trace side, one computation per t-set)."""
    bad = []
    for n in (2, 3, 4):
        for ts in all_tsets(n):
            space = realize_tset(ts, n, B)
            hh = h_basis(computed_char(space, "left"), n)
            ok, witness = h_positivity(hh, n)
            if not ok:
                bad.append((n, tset_str(ts), witness))
            else:
                # Schur positivity follows; assert the consequence too
                assert (h_to_s(hh, n) >= 0).all()
    report(
        9,
        "h-positivity",
        not bad,
        "all left characters H-positive (Schur positivity follows)"
        if not bad
        else f"negative coefficients at {bad}",
    )
    assert not bad


def test_criterion_10_property_suites():
    """Group laws, root-reflection bijection, length agreement, coset counts."""
    from collections import deque

    # group laws: exhaustive through rank 3, sampled at rank 4
    for n in (2, 3):
        els = elements(group_table(n))
        e = SignedPerm.identity(n)
        for w in els:
            assert w * w.inverse() == e
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)
    rng = random.Random(99)
    els4 = elements(group_table(4))
    for _ in range(2000):
        a, b, c = (rng.choice(els4) for _ in range(3))
        assert (a * b) * c == a * (b * c)

    # root-reflection bijection, both types, ranks 2-4
    for lt in (B, C):
        for n in (2, 3, 4):
            roots = positive_roots(lt, n)
            assert len({root_to_reflection(r) for r in roots}) == n * n

    # length by root counting equals word length from the generators
    for n in (2, 3, 4):
        gens = [SignedPerm.simple(i, n) for i in range(1, n + 1)]
        dist = {SignedPerm.identity(n).window: 0}
        queue = deque([SignedPerm.identity(n)])
        while queue:
            w = queue.popleft()
            for s in gens:
                ws = w * s
                if ws.window not in dist:
                    dist[ws.window] = dist[w.window] + 1
                    queue.append(ws)
        for w in elements(group_table(n)):
            assert length(w) == dist[w.window]

    # coset representative counts
    for n in (2, 3, 4, 5):
        for i in range(1, n + 1):
            expected = 2**i * len(list(itertools.combinations(range(n), i)))
            assert len(min_coset_reps(n, i)) == expected
    report(10, "property-suites", True, "laws, bijection, lengths, coset counts")
