"""Root systems of types B and C and the reflection correspondence."""

import numpy as np
import pytest

from bcsplines.group import SignedPerm, group_table
from bcsplines.hessenberg import _root_negativity
from bcsplines.roots import (
    LieType,
    Root,
    act,
    is_positive,
    parse_root,
    poset_leq,
    positive_roots,
    root_from_evector,
    root_to_reflection,
    simple_root,
    simple_roots,
)
from bcsplines.splines import label_matrix

from reference import length

B, C = LieType.B, LieType.C


def elements(table) -> list[SignedPerm]:
    """Every element of the table, in table order."""
    return [SignedPerm(w) for w in table.windows_array.tolist()]


# full reflection correspondence at rank three, both types:
# root string -> (e-vector, window of the transposition)
B3_TABLE = {
    "[100]": ((1, -1, 0), (2, 1, 3)),
    "[010]": ((0, 1, -1), (1, 3, 2)),
    "[001]": ((0, 0, 1), (1, 2, -3)),
    "[110]": ((1, 0, -1), (3, 2, 1)),
    "[011]": ((0, 1, 0), (1, -2, 3)),
    "[012]": ((0, 1, 1), (1, -3, -2)),
    "[111]": ((1, 0, 0), (-1, 2, 3)),
    "[112]": ((1, 0, 1), (-3, 2, -1)),
    "[122]": ((1, 1, 0), (-2, -1, 3)),
}
C3_TABLE = {
    "[100]": ((1, -1, 0), (2, 1, 3)),
    "[010]": ((0, 1, -1), (1, 3, 2)),
    "[001]": ((0, 0, 2), (1, 2, -3)),
    "[110]": ((1, 0, -1), (3, 2, 1)),
    "[011]": ((0, 1, 1), (1, -3, -2)),
    "[021]": ((0, 2, 0), (1, -2, 3)),
    "[111]": ((1, 0, 1), (-3, 2, -1)),
    "[121]": ((1, 1, 0), (-2, -1, 3)),
    "[221]": ((2, 0, 0), (-1, 2, 3)),
}


class TestEnumeration:
    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_count(self, lt, n):
        assert len(positive_roots(lt, n)) == n * n

    @pytest.mark.parametrize(
        "lt,table", [(B, B3_TABLE), (C, C3_TABLE)], ids=["B3", "C3"]
    )
    def test_rank_three_correspondence(self, lt, table):
        roots = {str(r): r for r in positive_roots(lt, 3)}
        assert set(roots) == set(table)
        for s, (evec, window) in table.items():
            assert roots[s].evector() == evec
            assert root_to_reflection(roots[s]).window == window

    def test_round_trip_evector(self):
        for lt in (B, C):
            for r in positive_roots(lt, 4):
                assert root_from_evector(r.evector(), lt) == r

    def test_parse(self):
        assert parse_root("[122]", B) == Root((1, 2, 2), B)
        assert str(Root((1, 2, 2), B)) == "[122]"
        with pytest.raises(ValueError):
            parse_root("122", B)


class TestAction:
    def test_boundary_simple_actions(self):
        # s_n moves alpha_{n-1} differently in the two types
        for n in (2, 3, 4):
            sn = SignedPerm.simple(n, n)
            out = act(sn, simple_root(n - 1, B, n))
            assert root_from_evector(out, B).coords == tuple(
                1 if i >= n - 2 else 0 for i in range(n - 1)
            ) + (2,)
            sm = SignedPerm.simple(n - 1, n)
            out = act(sm, simple_root(n, C, n))
            coords = [0] * n
            coords[n - 2], coords[n - 1] = 2, 1
            assert root_from_evector(out, C).coords == tuple(coords)

    def test_identity_action(self):
        e = SignedPerm.identity(3)
        for r in positive_roots(B, 3):
            assert act(e, r) == r.evector()

    def test_is_positive(self):
        assert is_positive((1, -1, 0))
        assert not is_positive((0, 0, -1))
        with pytest.raises(ValueError):
            is_positive((0, 0, 0))

    def test_reflection_negates_own_root(self):
        w = SignedPerm([-1, 2])
        assert not is_positive(act(w, simple_root(1, B, 2)))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_action_permutes_roots_up_to_sign(self, lt, n):
        vecs = {r.evector() for r in positive_roots(lt, n)}
        for w in elements(group_table(n)):
            for r in positive_roots(lt, n):
                out = act(w, r)
                assert out in vecs or tuple(-c for c in out) in vecs

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_negativity_matches_label_signs(self, lt, n):
        # reference: the sign of the first nonzero entry of each image w(alpha)
        neg = _root_negativity(lt, n)
        rows = np.arange(group_table(n).size)
        for r in positive_roots(lt, n):
            imgs = label_matrix.__wrapped__(n, r)
            expected = imgs[rows, np.argmax(imgs != 0, axis=1)] < 0
            assert np.array_equal(neg[r], expected), r

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_negative_count_is_length(self, lt, n):
        table = group_table(n)
        neg = _root_negativity(lt, n)
        for idx, w in enumerate(elements(table)):
            count = sum(int(neg[r][idx]) for r in positive_roots(lt, n))
            assert count == length(w)


class TestPoset:
    def test_cover_examples(self):
        assert poset_leq(parse_root("[011]", B), parse_root("[012]", B))
        assert poset_leq(parse_root("[011]", C), parse_root("[021]", C))
        r = parse_root("[110]", B)
        assert poset_leq(r, r)

    def test_type_mismatch(self):
        with pytest.raises(ValueError):
            poset_leq(parse_root("[10]", B), parse_root("[10]", C))

    def test_transposition_posets_differ_at_rank_three(self):
        # (2,-2) is below (2,-3) in type B and above it in type C
        refl = {"B": {}, "C": {}}
        for lt in (B, C):
            for r in positive_roots(lt, 3):
                refl[lt.value][root_to_reflection(r).window] = r
        two_bar_two = SignedPerm.transposition(2, -2, 3).window
        two_bar_three = SignedPerm.transposition(2, -3, 3).window
        assert poset_leq(refl["B"][two_bar_two], refl["B"][two_bar_three])
        assert poset_leq(refl["C"][two_bar_three], refl["C"][two_bar_two])

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reflection_bijection(self, lt, n):
        roots = positive_roots(lt, n)
        refl = {root_to_reflection(r) for r in roots}
        assert len(refl) == len(roots)
        # image is exactly the set of transpositions
        expected = set()
        for i in range(1, n + 1):
            expected.add(SignedPerm.transposition(i, -i, n))
            for j in range(i + 1, n + 1):
                expected.add(SignedPerm.transposition(i, j, n))
                expected.add(SignedPerm.transposition(i, -j, n))
        assert refl == expected

    def test_simple_roots_give_simple_reflections(self):
        for lt in (B, C):
            for n in (2, 3, 4):
                for i in range(1, n):
                    assert root_to_reflection(
                        simple_root(i, lt, n)
                    ) == SignedPerm.simple(i, n)
                assert root_to_reflection(
                    simple_root(n, lt, n)
                ) == SignedPerm.transposition(n, -n, n)
                assert len(simple_roots(lt, n)) == n


class TestInt8Labels:
    """Labels lie in [-2, 2] and are stored as int8; a product of two labels
    is at most 4, so the label checks stay exact in int8."""

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dtype_and_range(self, lt, n):
        for r in positive_roots(lt, n):
            labels = label_matrix(n, r)
            assert labels.dtype == np.int8 and np.abs(labels).max() <= 2
            wide = np.array([act(w, r) for w in elements(group_table(n))])
            assert np.array_equal(labels, wide)

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_label_checks_hold(self, lt, n):
        from bcsplines.characters import _simples_fix_r_and_permute_t
        from bcsplines.splines import labels_pairwise_independent

        assert labels_pairwise_independent(lt, n)
        assert _simples_fix_r_and_permute_t.__wrapped__(n)
