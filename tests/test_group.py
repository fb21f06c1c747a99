"""Signed permutation group: arithmetic, length, cosets, conjugacy."""

import itertools
import math
import random
from collections import deque

import numpy as np
import pytest

from bcsplines import group
from bcsplines.group import (
    ConjClass,
    SignedPerm,
    compose,
    conjugacy_classes,
    group_table,
    invert,
    min_coset_reps,
    cycle_type_str,
)

from reference import descent_set, length


def elements(table) -> list[SignedPerm]:
    """Every element of the table, in table order."""
    return [SignedPerm(w) for w in table.windows_array.tolist()]


def bfs_lengths(n):
    """Word-length oracle over the generators, independent of root counting."""
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
    return dist


def bucket_scan_classes(n):
    """Class oracle: bucket every element by its own signed_cycle_type()."""
    table = group_table(n)
    buckets: dict = {}
    for idx, el in enumerate(elements(table)):
        buckets.setdefault(el.signed_cycle_type(), []).append(idx)
    return tuple(
        ConjClass(lam, mu, SignedPerm(table.windows_array[min(idxs)].tolist()), len(idxs))
        for (lam, mu), idxs in sorted(buckets.items())
    )


def loop_descent_set(window):
    """Per-element descent set, read off the window one position at a time."""
    n = len(window)
    out = {n} if window[-1] < 0 else set()
    for i in range(1, n):
        a, b = window[i - 1], window[i]
        if (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b > 0):
            out.add(i)
    return frozenset(out)


class TestArithmetic:
    def test_compose_transposition_involution(self):
        t = SignedPerm([2, 1])
        assert (t * t).window == (1, 2)

    def test_hasse_diagram_words(self):
        # one-line notation of short words, read off the rank-two diagrams
        s1, s2 = SignedPerm.simple(1, 2), SignedPerm.simple(2, 2)
        assert (s1 * s2).window == (2, -1)
        assert (s2 * s1).window == (-2, 1)
        assert (s1 * s2 * s1).window == (-1, 2)
        assert (s2 * s1 * s2).window == (-2, -1)
        assert (s1 * s2 * s1 * s2).window == (-1, -2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_from_word_equals_product_of_simples(self, n):
        gens = [SignedPerm.transposition(i, i + 1, n) for i in range(1, n)]
        gens.append(SignedPerm.transposition(n, -n, n))
        assert [SignedPerm.simple(i, n) for i in range(1, n + 1)] == gens
        rng = random.Random(40 + n)
        for _ in range(50):
            word = [rng.randint(1, n) for _ in range(rng.randint(0, 12))]
            product = SignedPerm.identity(n)
            for i in word:
                product = product * gens[i - 1]
            assert SignedPerm.from_word(word, n) == product

    @pytest.mark.parametrize("word", [[0], [-1], [1, 4], [2, 1, 3, 5]])
    def test_from_word_rejects_bad_letters(self, word):
        with pytest.raises(ValueError, match="out of range"):
            SignedPerm.from_word(word, 3)
        with pytest.raises(ValueError, match="out of range"):
            SignedPerm.simple(word[-1], 3)

    def test_compose_identity(self):
        e = SignedPerm.identity(3)
        for w in elements(group_table(3))[:10]:
            assert (e * w) == w == (w * e)

    def test_inverse_exhaustive_rank_two(self):
        e = SignedPerm.identity(2)
        for w in elements(group_table(2)):
            assert w * w.inverse() == e
            assert w.inverse() * w == e

    def test_inverse_examples(self):
        assert SignedPerm([1, 2]).inverse().window == (1, 2)
        assert SignedPerm([-1, 2]).inverse().window == (-1, 2)

    def test_apply(self):
        assert SignedPerm([2, -1])(-2) == 1
        assert SignedPerm([1, -2])(2) == -2
        e = SignedPerm.identity(3)
        for k in (-3, -1, 2):
            assert e(k) == k
        with pytest.raises(ValueError):
            SignedPerm([1, 2])(0)
        with pytest.raises(ValueError):
            SignedPerm([1, 2])(3)

    def test_transposition(self):
        assert SignedPerm.transposition(1, -1, 2).window == (-1, 2)
        assert SignedPerm.transposition(1, 2, 2).window == (2, 1)
        for i, j in [(1, 3), (2, -3), (1, -1)]:
            t = SignedPerm.transposition(i, j, 3)
            assert t * t == SignedPerm.identity(3)
            assert t(i) == j and t(j) == i
        with pytest.raises(ValueError):
            SignedPerm.transposition(2, 2, 3)

    def test_associativity_exhaustive_rank_two(self):
        els = elements(group_table(2))
        for a, b, c in itertools.product(els, repeat=3):
            assert (a * b) * c == a * (b * c)

    def test_serialization(self):
        assert SignedPerm.from_string("2,-1") == SignedPerm([2, -1])


class TestLength:
    def test_examples(self):
        assert length(SignedPerm([1, 2])) == 0
        assert length(SignedPerm([-1, -2])) == 4
        assert length(SignedPerm([-2, -1])) == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_against_word_length_oracle(self, n):
        table = group_table(n)
        dist = bfs_lengths(n)
        assert table.lengths.tolist() == [dist[tuple(win)] for win in table.windows_array.tolist()]
        for w in elements(table):
            assert length(w) == dist[w.window]

    def test_descents(self):
        assert descent_set(SignedPerm.identity(3)) == frozenset()
        assert descent_set(SignedPerm.simple(1, 2)) == {1}
        assert descent_set(SignedPerm([-1, -2])) == {1, 2}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_descents_via_length(self, n):
        table = group_table(n)
        for w, mask in zip(elements(table), table.descents.tolist()):
            expected = {
                i
                for i in range(1, n + 1)
                if length(w * SignedPerm.simple(i, n)) < length(w)
            }
            bits = {i for i in range(1, n + 1) if mask >> (i - 1) & 1}
            assert descent_set(w) == bits == loop_descent_set(w.window) == expected


class TestNarrowTables:
    """Windows, lengths and descent masks are stored as read-only int8."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_windows_are_read_only_int8(self, n):
        win = group_table(n).windows_array
        assert win.dtype == np.int8 and win.shape == (math.factorial(n) * 2**n, n)
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            win[0, 0] = 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_lengths_and_descents_are_int8_and_exact(self, n):
        table = group_table(n)
        assert table.lengths.dtype == table.descents.dtype == np.int8
        assert not table.lengths.flags.writeable and not table.descents.flags.writeable
        windows = table.windows_array.tolist()
        dist = bfs_lengths(n)
        assert table.lengths.tolist() == [dist[tuple(win)] for win in windows]
        masks = [sum(1 << (i - 1) for i in loop_descent_set(win)) for win in windows]
        assert table.descents.tolist() == masks


class TestArrayKernels:
    """compose, invert and indices_of against the per-element arithmetic."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_ranks(self, n):
        table = group_table(n)
        win, els = table.windows_array, elements(table)
        index = {tuple(w): k for k, w in enumerate(table.windows_array.tolist())}
        assert table.indices_of(win).tolist() == list(range(table.size))
        inv = invert(win)
        assert [tuple(r) for r in inv.tolist()] == [w.inverse().window for w in els]
        for a in els:
            prod = compose([a.window], win)
            assert [tuple(r) for r in prod.tolist()] == [(a * b).window for b in els]
            assert table.indices_of(prod).tolist() == [index[(a * b).window] for b in els]

    def test_seeded_pairs_rank_six(self):
        table = group_table(6)
        index = {tuple(w): k for k, w in enumerate(table.windows_array.tolist())}
        rng = random.Random(6)
        pairs = [(rng.randrange(table.size), rng.randrange(table.size)) for _ in range(2000)]
        a = table.windows_array[[i for i, _ in pairs]]
        b = table.windows_array[[j for _, j in pairs]]
        prod, inv = compose(a, b), invert(a)
        idx = table.indices_of(prod)
        for k, (i, j) in enumerate(pairs):
            x, y = (SignedPerm(table.windows_array[k].tolist()) for k in (i, j))
            assert tuple(prod[k].tolist()) == (x * y).window
            assert tuple(inv[k].tolist()) == x.inverse().window
            assert idx[k] == index[(x * y).window]

    def test_broadcast_either_side(self):
        table = group_table(3)
        g = SignedPerm([2, -3, 1])
        left = table.indices_of(compose([g.window], table.windows_array))
        right = table.indices_of(compose(table.windows_array, [g.window]))
        assert left.tolist() == [table.index_of(g * w) for w in elements(table)]
        assert right.tolist() == [table.index_of(w * g) for w in elements(table)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_right_mult_indices_of_simples(self, n):
        # the single-factor column gather against the full-size take_along_axis
        # product and against the per-element product
        table = group_table(n)
        for i in range(1, n + 1):
            s = SignedPerm.simple(i, n)
            full = np.repeat([s.window], table.size, axis=0)
            right = table.right_mult_indices(s)
            assert right.tolist() == table.indices_of(compose(table.windows_array, full)).tolist()
            assert right.tolist() == [table.index_of(w * s) for w in elements(table)]

    @pytest.mark.parametrize(
        "bad",
        [[(1, 1, 2)], [(0, 1, 2)], [(4, 1, 2)], [(1, -4, 2)], [(1, 2, 3), (2, 2, -1)]],
    )
    def test_indices_of_rejects_non_windows(self, bad):
        with pytest.raises(ValueError):
            group_table(3).indices_of(bad)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    @pytest.mark.parametrize(
        "bad",
        [(0, 1, 2), (1, -1, 2), (3, 2, -3), (-4, 1, 2), (1, 2, 4), (2, 0, 0)],
        ids=["zero", "repeat", "repeat-last", "low", "high", "zeros"],
    )
    def test_indices_of_rejects_bad_rows_of_either_dtype(self, dtype, bad):
        rows = np.array([(1, 2, 3), bad, (-3, -2, -1)], dtype=dtype)
        with pytest.raises(ValueError):
            group_table(3).indices_of(rows)

    @pytest.mark.parametrize("bad", [(257, 2, 3), (1, -254, 3), (1, 2, -253)])
    def test_indices_of_rejects_entries_that_wrap_to_windows_in_int8(self, bad):
        # each row is the identity modulo 256: the range check comes before the int8 digits
        assert np.array([bad]).astype(np.int8).tolist() == [[1, 2, 3]]
        with pytest.raises(ValueError, match="out of range"):
            group_table(3).indices_of([bad])

    @pytest.mark.parametrize("bad", [[(1, 2)], [(1, 2, 3, 4)], (1, 2, 3)])
    def test_indices_of_rejects_wrong_rank(self, bad):
        with pytest.raises(ValueError):
            group_table(3).indices_of(bad)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_min_coset_reps_match_frozenset_filter(self, n):
        table = group_table(n)
        windows = [tuple(w) for w in table.windows_array.tolist()]
        descents = [loop_descent_set(win) for win in windows]
        for i in range(1, n + 1):
            expected = [win for win, des in zip(windows, descents) if des <= {i}]
            assert [w.window for w in min_coset_reps(n, i)] == expected


class TestCycleTypes:
    def test_examples(self):
        assert SignedPerm([1, 2, 3]).signed_cycle_type() == ((1, 1, 1), ())
        assert SignedPerm([-1, 3, 2]).signed_cycle_type() == ((2,), (1,))
        assert SignedPerm([-1, -2, -3]).signed_cycle_type() == ((), (1, 1, 1))

    def test_serialization(self):
        assert cycle_type_str((2,), (1,)) == "2|1"
        assert cycle_type_str((2, 1), ()) == "2,1|"
        assert cycle_type_str((), (1, 1)) == "|1,1"


class TestConjugacyClasses:
    def test_rank_one(self):
        classes = conjugacy_classes(1)
        assert len(classes) == 2
        assert sorted(c.size for c in classes) == [1, 1]

    def test_sizes_sum_to_group_order(self):
        for n in (1, 2, 3):
            assert sum(c.size for c in conjugacy_classes(n)) == group_table(n).size

    def test_selected_size(self):
        by_type = {(c.lam, c.mu): c.size for c in conjugacy_classes(3)}
        assert by_type[((2,), (1,))] == 6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_under_conjugation(self, n):
        table = group_table(n)
        for c in conjugacy_classes(n):
            types = {
                (g * c.rep * g.inverse()).signed_cycle_type()
                for g in elements(table)
            }
            assert types == {(c.lam, c.mu)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_scan_sizes_match_closed_form(self, n):
        # |W_n| / (z_lam 2^l(lam) z_mu 2^l(mu)), z_p = prod_k k^m_k m_k!
        def z(p):
            return math.prod(k ** p.count(k) * math.factorial(p.count(k)) for k in set(p))

        order = 2**n * math.factorial(n)
        for c in conjugacy_classes(n):
            assert c.size == order // (z(c.lam) * 2 ** len(c.lam) * z(c.mu) * 2 ** len(c.mu))

    def test_representative_is_lex_least(self):
        for n in (1, 2, 3, 4):
            table = group_table(n)
            for c in conjugacy_classes(n):
                members = [
                    w
                    for w in elements(table)
                    if w.signed_cycle_type() == (c.lam, c.mu)
                ]
                lex = min(members, key=lambda w: [group.order_key(x, n) for x in w.window])
                assert c.rep == lex

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bucket_scan(self, n):
        # same order, (lambda, mu), representative and size
        assert conjugacy_classes(n) == bucket_scan_classes(n)

    def test_one_signed_perm_per_class(self, monkeypatch):
        group_table(5)  # built outside the count; it builds no SignedPerm either
        built = []
        init = SignedPerm.__init__

        def counting(self, window):
            built.append(window)
            init(self, window)

        monkeypatch.setattr(SignedPerm, "__init__", counting)
        classes = group._conjugacy_classes_cached.__wrapped__(5)
        assert len(classes) == 36
        assert len(built) <= len(classes)


class TestCosets:
    def test_counts(self):
        for n in range(1, 6):
            for i in range(1, n + 1):
                expected = 2**i * len(list(itertools.combinations(range(n), i)))
                assert len(min_coset_reps(n, i)) == expected

    def test_cached_and_immutable(self):
        reps = min_coset_reps(4, 2)
        assert min_coset_reps(4, 2) is reps
        assert isinstance(reps, tuple)
        first = reps[0].window
        with pytest.raises(AttributeError):
            reps[0].window = (1, 2, 3, 4)
        with pytest.raises(AttributeError):
            del reps[0].n
        assert min_coset_reps(4, 2)[0].window == first

    def test_identity_is_a_representative(self):
        assert SignedPerm.identity(2) in min_coset_reps(2, 1)
        assert len(min_coset_reps(2, 1)) == 4

    def test_representatives_have_distinct_images(self):
        for n in (2, 3, 4):
            for i in range(1, n + 1):
                images = [
                    frozenset(w.window[:i]) for w in min_coset_reps(n, i)
                ]
                assert len(set(images)) == len(images)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_same_coset_iff_equal_window_prefix_sets(self, n):
        table = group_table(n)
        for i in range(1, n + 1):
            # partition once by image set, once by subgroup membership
            by_image: dict = {}
            for w in elements(table):
                by_image.setdefault(frozenset(w.window[:i]), set()).add(w.window)
            for block in by_image.values():
                members = [SignedPerm(win) for win in block]
                v0 = members[0]
                for v in members[1:]:
                    # v0^-1 v lies in S_i x W_{n-i}: it permutes [i] positively
                    assert set((v0.inverse() * v).window[:i]) == set(range(1, i + 1))
            # distinct blocks are genuinely distinct cosets
            assert len(by_image) == 2**i * len(
                list(itertools.combinations(range(n), i))
            )

    def test_group_sizes(self):
        assert group_table(1).size == 2
        assert group_table(3).size == 48
        assert group_table(4).size == 384

    def test_enumeration_limit(self):
        # rank six is the supported ceiling for full scans
        assert group_table(6).size == 46080
        assert length(SignedPerm([-1, -2, -3, -4, -5, -6])) == 36
        with pytest.raises(ValueError):
            group_table(7)
