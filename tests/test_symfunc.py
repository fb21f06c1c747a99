"""Type B/C symmetric functions, Kostka numbers, Frobenius images."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import reference
from bcsplines.characters import computed_char, formula_char, named_char
from bcsplines.group import conjugacy_classes, cycle_type_str
from bcsplines.hessenberg import from_tset, realizable_tsets
from bcsplines.roots import LieType
from bcsplines.symfunc import (
    coset_action_h_expansion,
    h_basis,
    h_positivity,
    h_to_s,
    kostka,
    p_in_h,
    pretty,
    verify_table_rows,
)
from reference import partitions


def term(n, lam, mu):
    """The basis element at (lam, mu), as an array over conjugacy_classes(n)."""
    keys = [(cl.lam, cl.mu) for cl in conjugacy_classes(n)]
    return np.array([key == (lam, mu) for key in keys], dtype=np.int64)


def as_dict(coeffs, n):
    """The nonzero coefficients of an array, by key (lam, mu)."""
    keys = [(cl.lam, cl.mu) for cl in conjugacy_classes(n)]
    return {key: c for key, c in zip(keys, coeffs.tolist(), strict=True) if c}


def ssyt_count_brute_force(shape, content):
    """Independent oracle: enumerate all fillings cell by cell.

    Rows weakly increase, columns strictly increase, value v appears
    content[v-1] times.
    """
    cells = [(r, c) for r, row_len in enumerate(shape) for c in range(row_len)]
    nvals = len(content)
    count = 0

    def rec(idx, grid, used):
        nonlocal count
        if idx == len(cells):
            count += 1
            return
        r, c = cells[idx]
        for v in range(1, nvals + 1):
            if used[v - 1] == content[v - 1]:
                continue
            if c > 0 and grid[(r, c - 1)] > v:
                continue
            if r > 0 and grid[(r - 1, c)] >= v:
                continue
            grid[(r, c)] = v
            used[v - 1] += 1
            rec(idx + 1, grid, used)
            used[v - 1] -= 1
            del grid[(r, c)]

    rec(0, {}, [0] * nvals)
    return count


def dominates(gamma, lam):
    """gamma >= lam in dominance order (equal sizes)."""
    tg = list(itertools.accumulate(gamma)) + [sum(gamma)] * len(lam)
    tl = list(itertools.accumulate(lam)) + [sum(lam)] * len(gamma)
    return all(a >= b for a, b in zip(tg, tl))


class TestPartitions:
    def test_counts(self):
        assert [len(partitions(k)) for k in range(7)] == [1, 1, 2, 3, 5, 7, 11]

    def test_canonical(self):
        for lam in partitions(5):
            assert all(a >= b for a, b in zip(lam, lam[1:]))
            assert all(p > 0 for p in lam)


class TestKostka:
    def test_diagonal(self):
        for lam in partitions(4):
            assert kostka(lam, lam) == 1

    def test_named_value(self):
        assert kostka((2, 1), (1, 1, 1)) == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_against_brute_force(self, k):
        for gamma in partitions(k):
            for lam in partitions(k):
                assert kostka(gamma, lam) == ssyt_count_brute_force(gamma, lam)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_dominance_vanishing(self, k):
        for gamma in partitions(k):
            for lam in partitions(k):
                if not dominates(gamma, lam):
                    assert kostka(gamma, lam) == 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka((2,), (1, 1, 1))


# p -> h through the monomial basis: an independent oracle for the Newton
# recurrence of `p_in_h`.  Polynomials in deg-many variables are dicts from
# exponent vectors to integer coefficients.


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def _h_poly(k: int, nvars: int) -> dict:
    out: dict = {}
    for combo in itertools.combinations_with_replacement(range(nvars), k):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        key = tuple(e)
        out[key] = out.get(key, 0) + 1
    return out


def _p_poly(r: int, nvars: int) -> dict:
    out: dict = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = r
        out[tuple(e)] = 1
    return out


def _m_coeffs(poly: dict, deg: int) -> dict:
    """Coefficients on the monomial basis, read off sorted exponent vectors."""
    out: dict = {}
    for e, c in poly.items():
        key = tuple(sorted((x for x in e if x), reverse=True))
        if sorted(e, reverse=True) == list(e):
            out[key] = c
    return out


def _solve_exact(mat, vec):
    """Solve an overdetermined consistent exact system by elimination."""
    m = len(mat[0])
    rows = [list(r) + [v] for r, v in zip(mat, vec)]
    piv = []
    r = 0
    for c in range(m):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            raise ValueError("transition matrix is singular")
        rows[r], rows[k] = rows[k], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][m]:
            raise ValueError("inconsistent system")
    return [rows[i][m] for i in range(m)]


def p_in_h_monomial(lam):
    """Expansion of p_lam in the complete homogeneous basis (monomial route)."""
    deg = sum(lam)
    if deg == 0:
        return {(): Fraction(1)}
    nvars = deg
    mus = partitions(deg)
    h_rows = {}
    for mu in mus:
        poly = {(0,) * nvars: 1}
        for part in mu:
            poly = _poly_mul(poly, _h_poly(part, nvars))
        h_rows[mu] = _m_coeffs(poly, deg)
    target_poly = {(0,) * nvars: 1}
    for part in lam:
        target_poly = _poly_mul(target_poly, _p_poly(part, nvars))
    target = _m_coeffs(target_poly, deg)
    # solve sum_mu c_mu h_mu = p_lam on the monomial coordinates
    keys = sorted({k for row in h_rows.values() for k in row} | set(target))
    mat = [[Fraction(h_rows[mu].get(k, 0)) for mu in mus] for k in keys]
    vec = [Fraction(target.get(k, 0)) for k in keys]
    coeffs = _solve_exact(mat, vec)
    return {mu: c for mu, c in zip(mus, coeffs) if c}


class TestPowerToHomogeneous:
    def test_degree_one(self):
        assert p_in_h((1,)) == {(1,): 1}

    def test_degree_two(self):
        assert p_in_h((2,)) == {(2,): 2, (1, 1): -1}

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_monomial_route_equals_newton_route(self, k):
        for lam in partitions(k):
            assert p_in_h_monomial(lam) == p_in_h(lam)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_transition_is_invertible(self, k):
        # h -> p -> h round trip through the p-expansion of h via Newton:
        # reconstruct h_(k) from sum over partitions of p_lam / z_lam
        def z(lam):
            out = 1
            for part in set(lam):
                m = lam.count(part)
                out *= part**m
                for j in range(2, m + 1):
                    out *= j
            return out

        total: dict = {}
        for lam in partitions(k):
            for mu, c in p_in_h(lam).items():
                total[mu] = total.get(mu, Fraction(0)) + Fraction(1, z(lam)) * c
        total = {k2: v for k2, v in total.items() if v}
        assert total == {(k,): 1}


class TestFrobenius:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trivial_and_sign(self, n):
        assert pretty(h_basis(named_char("trivial", n), n), n, "h") == f"h[{n}|∅]"
        assert pretty(h_basis(named_char("delta", n), n), n, "h") == f"h[∅|{n}]"

    def test_defining_rank_three(self):
        assert pretty(h_basis(named_char("defining", 3), 3), 3, "h") == "h[2|1]"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linearity(self, n):
        rng = random.Random(50 + n)
        f = named_char("s", n)
        g = named_char("delta", n)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        lhs = h_basis(a * f + b * g, n)
        assert np.array_equal(lhs, a * h_basis(f, n) + b * h_basis(g, n))

    def test_values_must_cover_every_class(self):
        values = named_char("trivial", 3)
        for wrong in (values[:-1], np.append(values, 1)):
            with pytest.raises(ValueError):
                h_basis(wrong, 3)

    def test_a_class_function_that_is_no_virtual_character_raises(self):
        # the indicator of the identity class has H coefficients -1/48, 1/16, ...
        indicator = term(3, (1, 1, 1), ())
        assert conjugacy_classes(3)[indicator.argmax()].rep.window == (1, 2, 3)
        with pytest.raises(ValueError, match="not a virtual character"):
            h_basis(indicator, 3)

    def test_overflow_raises(self):
        # int64 products of these values would wrap around silently
        values = np.full(len(conjugacy_classes(3)), 2**60, dtype=np.int64)
        with pytest.raises(OverflowError):
            h_basis(values, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_rows(self, n):
        assert all(verify_table_rows(n).values())

    def test_coset_action_expansion_rank_three(self):
        got = h_basis(named_char("h_i", 3, i=1), 3)
        assert pretty(got, 3, "h") == "h[2|1] + h[2,1|∅]"
        assert np.array_equal(got, coset_action_h_expansion(1, 3))

    def test_s_rank_three(self):
        assert pretty(h_basis(named_char("s", 3), 3), 3, "h") == "h[2,1|∅]"

    def test_class_sizes_consistency(self):
        # the Frobenius image of the trivial character forces the class sizes
        # to sum correctly; also check against the group order directly
        for n in (2, 3, 4):
            total = sum(c.size for c in conjugacy_classes(n))
            order = 2**n
            for j in range(2, n + 1):
                order *= j
            assert total == order


def reference_agrees(values, n):
    """Whether h_basis and h_to_s equal the Fraction route of `reference`."""
    hh = reference.p_to_h(reference.frobenius_bc(values, n))
    got = h_basis(values, n)
    return as_dict(got, n) == hh.coeffs and as_dict(h_to_s(got, n), n) == reference.h_to_s(hh).coeffs


class TestAgainstFractionRoute:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_named_and_closed_form_characters(self, n):
        values = [named_char(kind, n) for kind in ("trivial", "delta", "defining", "s")]
        values += [named_char("h_i", n, i=i) for i in range(1, n + 1)]
        for mask in range(2**n):
            ts = {i + 1 for i in range(n) if mask >> i & 1}
            values += [formula_char(ts, n, side).evaluate() for side in ("left", "right")]
        for k, v in enumerate(values):
            assert reference_agrees(v, n), k

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lie_type", [LieType.B, LieType.C])
    def test_computed_characters(self, n, lie_type):
        for ts in realizable_tsets(lie_type, n):
            space = from_tset(ts, n, lie_type)
            for side in ("left", "right"):
                assert reference_agrees(computed_char(space, side), n), (ts, side)


class TestBasisChanges:
    def test_h_to_s_examples(self):
        assert pretty(h_to_s(term(3, (3,), ()), 3), 3, "s") == "s[3|∅]"
        assert pretty(h_to_s(term(2, (1, 1), ()), 2), 2, "s") == "s[1,1|∅] + s[2|∅]"

    def test_y_factor_only(self):
        got = h_to_s(term(3, (), (2, 1)), 3)
        assert pretty(got, 3, "s") == "s[∅|2,1] + s[∅|3]"


class TestHPositivity:
    def test_zero_is_positive(self):
        ok, wit = h_positivity(np.zeros(len(conjugacy_classes(3)), dtype=np.int64), 3)
        assert ok and not wit

    def test_left_single_tset_positive(self):
        left = formula_char({2}, 4, "left").evaluate()
        ok, _ = h_positivity(h_basis(left, 4), 4)
        assert ok

    def test_right_empty_tset_negative(self):
        right = formula_char(set(), 4, "right").evaluate()
        ok, wit = h_positivity(h_basis(right, 4), 4)
        assert not ok
        assert (((4,), ()), -3) in wit

    def test_schur_expansion_of_positive_is_positive(self):
        left = formula_char({3, 4}, 4, "left").evaluate()
        s = h_to_s(h_basis(left, 4), 4)
        assert s.any() and (s >= 0).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("lie_type", [LieType.B, LieType.C])
    def test_computed_characters_have_nonnegative_s_multiplicities(self, n, lie_type):
        # each quotient is a representation, so its S coefficients (the
        # multiplicities of the irreducibles) are nonnegative integers
        for ts in realizable_tsets(lie_type, n):
            space = from_tset(ts, n, lie_type)
            for side in ("left", "right"):
                s = h_to_s(h_basis(computed_char(space, side), n), n)
                assert s.dtype == np.int64 and (s >= 0).all(), (ts, side)


class TestSerialization:
    def test_key_round_trip(self):
        ok, [(key, coeff)] = h_positivity(-term(6, (2, 1), (3,)), 6)
        assert not ok and key == ((2, 1), (3,)) and coeff == -1
        assert cycle_type_str(*key) == "2,1|3"
        assert cycle_type_str((), ()) == "|"

    def test_pretty(self):
        f = term(3, (2, 1), ()) + 2 * term(3, (1,), (1, 1))
        assert pretty(f, 3, "h") == "2 h[1|1,1] + h[2,1|∅]"
        assert pretty(-f, 3, "s") == "-2 s[1|1,1] - s[2,1|∅]"
        assert pretty(0 * f, 3, "h") == "0"
