"""Hessenberg spaces, t-sets, index classification, descent sets."""

import itertools
import random

import pytest

from bcsplines.group import SignedPerm, group_table
from bcsplines.hessenberg import (
    HessenbergSpace,
    _inversion_counts,
    _root_negativity,
    classify,
    determining_elements,
    dim_degree_one,
    enumerate_hessenberg,
    from_tset,
    h_descent_formula,
    h_descent_indices,
    on_divergent_branch,
    parse_tset,
    published_descent_formula,
    realizable_tsets,
    realize_tset,
    t_root,
    t_set,
    tset_str,
)
from bcsplines.roots import (
    LieType,
    act,
    is_positive,
    parse_root,
    poset_leq,
    positive_roots,
    root_to_reflection,
    simple_root,
    simple_roots,
)

from reference import descent_set, length

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


# the three cells through rank 4 where the paper's published descent sets
# (published_descent_formula) disagree with the scan: the divergent branch,
# reachable only in type C; oracle counts confirmed by an independent
# edge-condition kernel computation.  h_descent_formula agrees with the scan
# on these cells too.
KNOWN_DEFECT_CELLS = {
    (3, frozenset({3}), 2): (6, 3),
    (4, frozenset({4}), 3): (14, 4),
    (4, frozenset({1, 4}), 3): (14, 4),
}


def brute_force_ideals(lt, n):
    """Subset-filter oracle for ideal enumeration."""
    delta = set(simple_roots(lt, n))
    upper = [r for r in positive_roots(lt, n) if r not in delta]
    out = []
    for mask in itertools.product((0, 1), repeat=len(upper)):
        chosen = {r for r, m in zip(upper, mask) if m}
        full = chosen | delta
        if all(
            all(s in full for s in positive_roots(lt, n) if poset_leq(s, r))
            for r in chosen
        ):
            out.append(frozenset(full))
    return out


class TestEnumeration:
    def test_rank_three_counts(self):
        assert len(enumerate_hessenberg(C, 3)) == 10
        assert len(enumerate_hessenberg(B, 3)) == 10

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_against_subset_oracle(self, lt, n):
        got = {H.roots for H in enumerate_hessenberg(lt, n)}
        assert got == set(brute_force_ideals(lt, n))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_against_antichain_enumeration(self, lt, n):
        # ideals correspond to antichains (their sets of maximal elements)
        delta = set(simple_roots(lt, n))
        upper = [r for r in positive_roots(lt, n) if r not in delta]
        antichains = 0
        for mask in itertools.product((0, 1), repeat=len(upper)):
            chosen = [r for r, m in zip(upper, mask) if m]
            if all(
                not (poset_leq(a, b) or poset_leq(b, a))
                for a, b in itertools.combinations(chosen, 2)
            ):
                antichains += 1
        assert len(enumerate_hessenberg(lt, n)) == antichains

    def test_all_contain_simples(self):
        for H in enumerate_hessenberg(B, 3):
            assert set(simple_roots(B, 3)) <= H.roots

    def test_validation_names_offending_root(self):
        bad = [parse_root(s, C) for s in ("[100]", "[010]", "[001]", "[021]")]
        with pytest.raises(ValueError, match=r"\[011\]"):
            HessenbergSpace(C, 3, frozenset(bad))
        with pytest.raises(ValueError, match="simple"):
            HessenbergSpace(C, 3, frozenset(bad[:2]))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_closure_check_and_generators_against_poset_loops(self, lt, n):
        # seeded random root sets: the space is accepted iff no pair below < r
        # with r in it and below outside it exists (the per-pair loop), the
        # error names such a pair, and from_generators is the loop's closure
        pos, delta = positive_roots(lt, n), frozenset(simple_roots(lt, n))
        rng = random.Random(100 * n + (lt is C))
        for _ in range(60):
            roots = delta | {r for r in pos if rng.random() < 0.4}
            gaps = {(b, r) for r in roots for b in pos if poset_leq(b, r) and b not in roots}
            if gaps:
                with pytest.raises(ValueError, match="not downward closed") as err:
                    HessenbergSpace(lt, n, roots)
                assert any(f"{b} < {r} is missing" in str(err.value) for b, r in gaps)
            else:
                assert HessenbergSpace(lt, n, roots).roots == roots
            gens = [r for r in pos if rng.random() < 0.2]
            closure = delta | {b for g in gens for b in pos if poset_leq(b, g)}
            assert HessenbergSpace.from_generators(gens, lt, n).roots == closure

    def test_generator_that_is_not_a_positive_root(self):
        with pytest.raises(ValueError, match=r"\[333\] is not a positive root of B_3"):
            HessenbergSpace.from_generators([parse_root("[333]", B)], B, 3)

    def test_serialization_round_trip(self):
        H = realize_tset(frozenset({2}), 3, B)
        assert HessenbergSpace.parse(H.serialize(), B, 3) == H


class TestTSets:
    def test_delta_has_empty_tset(self):
        H = HessenbergSpace(B, 3, frozenset(simple_roots(B, 3)))
        assert t_set(H) == frozenset()

    def test_generated_ideals(self):
        H = HessenbergSpace.from_generators([parse_root("[021]", C)], C, 3)
        assert 2 in t_set(H)
        H2 = HessenbergSpace.from_generators([parse_root("[012]", B)], B, 3)
        assert 3 in t_set(H2)

    def test_t_elements(self):
        # the t-roots map onto the transpositions (i, i+2), (n-1, -(n-1)), (n-1, -n)
        for lt in (B, C):
            assert root_to_reflection(t_root(1, 4, lt)) == SignedPerm.transposition(1, 3, 4)
            assert root_to_reflection(t_root(3, 4, lt)) == SignedPerm.transposition(3, -3, 4)
            assert root_to_reflection(t_root(4, 4, lt)) == SignedPerm.transposition(3, -4, 4)

    def test_words_for_t_elements(self):
        for lt in (B, C):
            for n in (2, 3, 4):
                words = [[i, i + 1, i] for i in range(1, n - 1)]
                words += [[n - 1, n, n - 1], [n, n - 1, n]]
                for i, word in enumerate(words, start=1):
                    assert root_to_reflection(t_root(i, n, lt)) == SignedPerm.from_word(word, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_subset_realizable_in_some_type(self, n):
        union = realizable_tsets(B, n) | realizable_tsets(C, n)
        assert len(union) == 2**n
        # and realizable_tsets matches the ideal enumeration
        for lt in (B, C):
            from_ideals = {t_set(H) for H in enumerate_hessenberg(lt, n)}
            assert from_ideals == realizable_tsets(lt, n)

    def test_rank_two_tsets_by_type(self):
        assert realizable_tsets(B, 2) == {
            frozenset(),
            frozenset({1}),
            frozenset({1, 2}),
        }
        assert realizable_tsets(C, 2) == {
            frozenset(),
            frozenset({2}),
            frozenset({1, 2}),
        }

    def test_serialization(self):
        assert tset_str({5, 1}) == "t1,t5"
        assert parse_tset("t1,t5") == frozenset({1, 5})
        assert parse_tset("") == frozenset()
        with pytest.raises(ValueError):
            parse_tset("x3")

    def test_realize_prefers_requested_type(self):
        assert realize_tset(frozenset({1}), 2, B).lie_type is B
        # not realizable in C, falls back to B
        assert realize_tset(frozenset({1}), 2, C).lie_type is B

    def test_maximal_ideal(self):
        # the ideals with a given t-set lie between from_tset's and their union
        ideals = [H for H in enumerate_hessenberg(C, 4) if t_set(H) == {4}]
        Hmin = from_tset(frozenset({4}), 4, C)
        Hmax = HessenbergSpace(C, 4, frozenset().union(*(H.roots for H in ideals)))
        assert Hmin in ideals and Hmax in ideals
        assert all(Hmin.roots <= H.roots for H in ideals)


def reflections(space):
    """S(H): the reflections of the roots in H."""
    return frozenset(root_to_reflection(r) for r in space.roots)


class TestReflections:
    def test_simple_reflections(self):
        H = HessenbergSpace(B, 2, frozenset(simple_roots(B, 2)))
        assert reflections(H) == {SignedPerm.simple(1, 2), SignedPerm.simple(2, 2)}

    def test_full_space_gives_all_transpositions(self):
        H = HessenbergSpace(B, 3, frozenset(positive_roots(B, 3)))
        assert len(reflections(H)) == 9

    def test_cardinality(self):
        for H in enumerate_hessenberg(C, 3):
            assert len(reflections(H)) == len(H.roots)


class TestHInversions:
    """The per-element H-inversion scan behind `dim_degree_one` and the oracle."""

    def test_identity_has_none(self):
        H = realize_tset(frozenset({1}), 3, B)
        assert _inversion_counts(H)[group_table(3).index_of(SignedPerm.identity(3))] == 0

    @pytest.mark.parametrize("lt", [B, C])
    def test_full_space_counts_length(self, lt):
        H = HessenbergSpace(lt, 3, frozenset(positive_roots(lt, 3)))
        counts = _inversion_counts(H)
        for k, w in enumerate(elements(group_table(3))):
            assert counts[k] == length(w)

    def test_simples_give_descents(self):
        for lt in (B, C):
            neg = _root_negativity(lt, 3)
            counts = _inversion_counts(HessenbergSpace(lt, 3, frozenset(simple_roots(lt, 3))))
            for k, w in enumerate(elements(group_table(3))):
                got = {i for i in range(1, 4) if neg[simple_root(i, lt, 3)][k]}
                assert got == descent_set(w)
                assert counts[k] == len(got)

    @pytest.mark.parametrize("lt", [B, C])
    def test_determining_elements(self, lt):
        # E: at most one H-inversion, by (length, table index), from the identity
        table = group_table(3)
        for H in enumerate_hessenberg(lt, 3):
            counts = _inversion_counts(H).tolist()
            e = determining_elements(H)
            want = sorted((int(table.lengths[k]), k) for k, c in enumerate(counts) if c <= 1)
            assert e.tolist() == [k for _, k in want]
            assert e[0] == table.index_of(SignedPerm.identity(3))
            assert len(e) == dim_degree_one(H) - 3 + 1
            assert not e.flags.writeable

    @pytest.mark.parametrize("lt", [B, C])
    def test_root_and_reflection_formulations_agree(self, lt):
        for w in elements(group_table(3)):
            for r in positive_roots(lt, 3):
                goes_down = length(w * root_to_reflection(r)) < length(w)
                assert goes_down == (not is_positive(act(w, r)))


class TestDescentSets:
    def test_full_space_oracle(self):
        H = HessenbergSpace(B, 2, frozenset(positive_roots(B, 2)))
        for i in (1, 2):
            assert h_descent_oracle(H, i) == {SignedPerm.simple(i, 2)}

    def test_simples_rank_two(self):
        H = HessenbergSpace(B, 2, frozenset(simple_roots(B, 2)))
        expected = {
            SignedPerm.from_word(word, 2)
            for word in ([1], [2, 1], [1, 2, 1])
        }
        assert h_descent_oracle(H, 1) == expected

    def test_covered_cases_give_singletons(self):
        assert h_descent_formula({1, 2}, 4, 2) == {SignedPerm.simple(2, 4)}
        assert h_descent_formula({4}, 4, 4) == {SignedPerm.simple(4, 4)}

    def test_rank_five_published_values(self):
        ts = frozenset({1, 5})
        H = realize_tset(ts, 5, C)
        words = lambda ws: {SignedPerm.from_word(w, 5) for w in ws}
        d1 = words([[1]])
        d2 = words(
            [
                [1, 2, 3, 4, 5, 4, 3, 2],
                [2, 3, 4, 5, 4, 3, 2],
                [3, 4, 5, 4, 3, 2],
                [4, 5, 4, 3, 2],
                [5, 4, 3, 2],
                [4, 3, 2],
                [3, 2],
                [2],
            ]
        )
        d4 = words([[5, 4], [1, 2, 3, 4], [2, 3, 4], [3, 4], [4]])
        d5 = words([[5]])
        for i, expected in ((1, d1), (2, d2), (5, d5)):
            assert h_descent_formula(ts, 5, i) == expected
            assert h_descent_oracle(H, i) == expected
        # the one-step-over-the-top case: the published list is a proper
        # subset of the definition-level set
        assert published_descent_formula(ts, 5, 4) == d4
        oracle4 = h_descent_oracle(H, 4)
        assert d4 < oracle4 and len(oracle4) == 30
        # the all-absent case: the full coset-representative set, size 79
        f3 = h_descent_formula(ts, 5, 3)
        assert len(f3) == 79
        assert h_descent_oracle(H, 3) == f3

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_formula_matches_oracle_small_ranks_except_known_cells(self, lt, n):
        for H in enumerate_hessenberg(lt, n):
            ts = t_set(H)
            for i in range(1, n + 1):
                oracle = h_descent_oracle(H, i)
                formula = published_descent_formula(ts, n, i)
                key = (n, ts, i)
                if key in KNOWN_DEFECT_CELLS:
                    assert formula < oracle
                    assert (len(oracle), len(formula)) == KNOWN_DEFECT_CELLS[key]
                else:
                    assert oracle == formula

    def test_defect_cells_are_exactly_the_known_ones(self):
        found = {}
        for n in (2, 3, 4):
            for lt in (B, C):
                for H in enumerate_hessenberg(lt, n):
                    ts = t_set(H)
                    for i in range(1, n + 1):
                        o = h_descent_oracle(H, i)
                        f = published_descent_formula(ts, n, i)
                        if o != f:
                            found[(n, ts, i)] = (len(o), len(f))
                            assert f < o  # always a proper subset
        assert found == KNOWN_DEFECT_CELLS

    @pytest.mark.parametrize("n", [5, 6])
    def test_corrected_branch_matches_scan(self, n):
        branch = [ts for ts in realizable_tsets(C, n) if on_divergent_branch(ts, n)]
        # every t-set with t_n but neither t_{n-2} nor t_{n-1}
        assert len(branch) == 2 ** (n - 3)
        for ts in branch:
            oracle = h_descent_oracle(from_tset(ts, n, C), n - 1)
            assert len(oracle) == 2**n - 2
            assert h_descent_formula(ts, n, n - 1) == oracle
            published = published_descent_formula(ts, n, n - 1)
            assert published < oracle and len(published) == n

    def test_branch_is_type_c_only(self):
        for n in (2, 3, 4, 5):
            for lt in (B, C):
                hits = [ts for ts in realizable_tsets(lt, n) if on_divergent_branch(ts, n)]
                assert bool(hits) == (lt is C)

    def test_published_differs_only_on_the_branch(self):
        for n in (2, 3, 4, 5):
            for mask in range(2**n):
                ts = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                for i in range(1, n + 1):
                    same = published_descent_formula(ts, n, i) == h_descent_formula(ts, n, i)
                    assert same == (n == 2 or i != n - 1 or not on_divergent_branch(ts, n))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_reflection_sets_give_equal_descents(self, n):
        by_refl = {}
        for lt in (B, C):
            for H in enumerate_hessenberg(lt, n):
                by_refl.setdefault(reflections(H), []).append(H)
        for group in by_refl.values():
            first = group[0]
            for other in group[1:]:
                for i in range(1, n + 1):
                    assert h_descent_oracle(first, i) == h_descent_oracle(other, i)

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reduction_preserves_descents(self, lt, n):
        # the smallest ideal with the same t-set: the simples and the t-roots
        for H in enumerate_hessenberg(lt, n):
            reduced = from_tset(t_set(H), n, lt)
            assert reduced.roots <= H.roots
            for i in range(1, n + 1):
                assert h_descent_oracle(H, i) == h_descent_oracle(reduced, i)

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_monotone_under_enlargement(self, lt, n):
        spaces = enumerate_hessenberg(lt, n)
        for H1 in spaces:
            for H2 in spaces:
                if H1.roots < H2.roots:
                    for i in range(1, n + 1):
                        assert h_descent_oracle(H2, i) <= h_descent_oracle(H1, i)


class TestClassification:
    def test_empty_tset(self):
        cls = classify(frozenset(), 4)
        assert cls.uncovered == {1, 2, 3, 4}
        assert not cls.surrounded and not cls.shaded
        assert (cls.c, cls.d) == (1, 0)

    def test_rank_eight_example(self):
        cls = classify({2, 5, 6, 8}, 8)
        assert cls.uncovered == {1, 4}
        assert cls.surrounded == {3}
        assert cls.shaded == {2, 5, 6, 7, 8}
        assert (cls.c, cls.d) == (0, 1)

    def test_single_boundary_tset(self):
        cls = classify({4}, 4)
        assert cls.shaded == {3, 4}
        assert cls.uncovered == {1, 2}
        assert (cls.c, cls.d) == (0, 1)

    def test_flags_never_both_one(self):
        for n in (2, 3, 4, 5):
            for mask in range(2**n):
                ts = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                cls = classify(ts, n)
                assert cls.c * cls.d == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_d_vanishes_in_type_b(self, n):
        for H in enumerate_hessenberg(B, n):
            assert classify(t_set(H), n).d == 0


class TestDimension:
    def test_examples(self):
        delta4 = HessenbergSpace(B, 4, frozenset(simple_roots(B, 4)))
        assert dim_degree_one(delta4) == 80
        assert dim_degree_one(from_tset(frozenset({1, 2, 3, 4}), 4, B)) == 8
        full2 = HessenbergSpace(B, 2, frozenset(positive_roots(B, 2)))
        assert dim_degree_one(full2) == 4

    def test_scan_dimension_at_defect_cells(self):
        # confirmed independently by an exact kernel computation of the
        # edge-condition system
        assert dim_degree_one(from_tset(frozenset({3}), 3, C)) == 15
        assert dim_degree_one(from_tset(frozenset({4}), 4, C)) == 49
        assert dim_degree_one(from_tset(frozenset({1, 4}), 4, C)) == 26
