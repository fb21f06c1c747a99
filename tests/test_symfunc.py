"""Type B/C symmetric functions, Kostka numbers, Frobenius images."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from bcsplines.characters import named_char
from bcsplines.group import conjugacy_classes, cycle_type_str
from bcsplines.symfunc import (
    BCSymFunc,
    coset_action_h_expansion,
    frobenius_bc,
    h_basis,
    h_elem,
    h_positivity,
    h_to_s,
    kostka,
    p_in_h,
    p_to_h,
    partitions,
    verify_table_rows,
)


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
        assert h_basis(named_char("trivial", n), n) == h_elem((n,), ())
        assert h_basis(named_char("delta", n), n) == h_elem((), (n,))

    def test_defining_rank_three(self):
        assert h_basis(named_char("defining", 3), 3) == h_elem((2,), (1,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_linearity(self, n):
        rng = random.Random(50 + n)
        f = named_char("s", n)
        g = named_char("delta", n)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3), 2)
        combo = a * f + b * g  # an object array of Fractions
        lhs = frobenius_bc(combo, n)
        rhs = frobenius_bc(f, n).scale(a) + frobenius_bc(g, n).scale(b)
        assert lhs == rhs

    def test_values_must_cover_every_class(self):
        values = named_char("trivial", 3)
        for wrong in (values[:-1], np.append(values, 1)):
            with pytest.raises(ValueError):
                frobenius_bc(wrong, 3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_rows(self, n):
        assert all(verify_table_rows(n).values())

    def test_coset_action_expansion_rank_three(self):
        got = h_basis(named_char("h_i", 3, i=1), 3)
        assert got == h_elem((2,), (1,)) + h_elem((2, 1), ())
        assert got == coset_action_h_expansion(1, 3)

    def test_s_rank_three(self):
        assert h_basis(named_char("s", 3), 3) == h_elem((2, 1), ())

    def test_class_sizes_consistency(self):
        # the Frobenius image of the trivial character forces the class sizes
        # to sum correctly; also check against the group order directly
        for n in (2, 3, 4):
            total = sum(c.size for c in conjugacy_classes(n))
            order = 2**n
            for j in range(2, n + 1):
                order *= j
            assert total == order


class TestBasisChanges:
    def test_h_to_s_examples(self):
        assert h_to_s(h_elem((3,), ())) == BCSymFunc(
            3, "S", {((3,), ()): Fraction(1)}
        )
        got = h_to_s(h_elem((1, 1), ()))
        assert got == BCSymFunc(
            2, "S", {((1, 1), ()): Fraction(1), ((2,), ()): Fraction(1)}
        )

    def test_y_factor_only(self):
        got = h_to_s(h_elem((), (2, 1)))
        assert got == BCSymFunc(
            3, "S", {((), (2, 1)): Fraction(1), ((), (3,)): Fraction(1)}
        )


class TestHPositivity:
    def test_zero_is_positive(self):
        ok, wit = h_positivity(BCSymFunc(3, "H", {}))
        assert ok and not wit

    def test_left_single_tset_positive(self):
        from bcsplines.characters import formula_char

        left = formula_char({2}, 4, "left").evaluate()
        ok, _ = h_positivity(h_basis(left, 4))
        assert ok

    def test_right_empty_tset_negative(self):
        from bcsplines.characters import formula_char

        right = formula_char(set(), 4, "right").evaluate()
        ok, wit = h_positivity(h_basis(right, 4))
        assert not ok
        assert (((4,), ()), Fraction(-3)) in wit

    def test_schur_expansion_of_positive_is_positive(self):
        from bcsplines.characters import formula_char

        left = formula_char({3, 4}, 4, "left").evaluate()
        s = h_to_s(h_basis(left, 4))
        assert all(c > 0 for _, c in s.items_sorted())


class TestSerialization:
    def test_key_round_trip(self):
        ((key, coeff),) = h_elem((2, 1), (3,)).items_sorted()
        assert key == ((2, 1), (3,)) and coeff == 1
        assert cycle_type_str(*key) == "2,1|3"
        assert cycle_type_str((), ()) == "|"

    def test_pretty(self):
        f = h_elem((2, 1), ()) + h_elem((1,), (1, 1)).scale(2)
        assert f.pretty() == "2 h[1|1,1] + h[2,1|∅]"

    def test_wrong_basis_raises(self):
        with pytest.raises(ValueError):
            p_to_h(h_elem((2,), ()))
        with pytest.raises(ValueError):
            h_to_s(BCSymFunc(2, "P", {((2,), ()): Fraction(1)}))
