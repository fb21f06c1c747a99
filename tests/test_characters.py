"""Dot action and the degree-one characters of the two quotients."""

import gc
import random
import weakref

import numpy as np
import pytest

from bcsplines import characters, splines
from bcsplines.characters import (
    CharacterExpression,
    computed_char,
    dot_action,
    formula_char,
    named_char,
    published_formula_char,
    _trace_data,
)
from bcsplines.group import SignedPerm, conjugacy_classes, group_table
from bcsplines.hessenberg import (
    dim_degree_one,
    enumerate_hessenberg,
    from_tset,
    on_divergent_branch,
    realizable_tsets,
    realize_tset,
    t_set,
)
from bcsplines.linalg import RankDeficientError
from bcsplines.roots import LieType
from bcsplines.splines import (
    bundle_rank,
    f_family,
    f_spline,
    g_family,
    g_spline,
    h_family,
    h_spline,
    left_basis,
    permutohedral_basis,
    phi_family,
    push_forward,
    r_family,
    r_spline,
    t_family,
    t_spline,
    unbalanced_sets,
    witness_basis,
    witness_pivots,
    y_family,
    y_spline,
)

from reference import (
    expand,
    is_spline,
    named_char_value,
    pull_back,
    rows_proportional,
    scan_labels_equivariant,
    scatter_label_matrix,
    spline_space_basis,
    triangular_pivots,
)

B, C = LieType.B, LieType.C


def elements(table) -> list[SignedPerm]:
    """Every element of the table, in table order."""
    return [SignedPerm(w) for w in table.windows_array.tolist()]


# every realizable t-set at ranks 2-4, both types
SMALL_SPACES = [
    from_tset(ts, n, lt)
    for n in (2, 3, 4)
    for lt in (B, C)
    for ts in sorted(realizable_tsets(lt, n), key=sorted)
]


def space_id(space) -> str:
    return f"{space.lie_type.name}{space.n}-{{{','.join(f't{i}' for i in sorted(t_set(space)))}}}"


def at_identity(values, n: int) -> int:
    """A class function's value at the identity's class: its dimension."""
    return values[[c.rep for c in conjugacy_classes(n)].index(SignedPerm.identity(n))]


# the t-sets through rank 4 on the divergent branch (type C only), where the
# paper's published closed form (published_formula_char) falls short of the
# trace character; formula_char carries the corrected case
DEFECT_TSETS = {(3, frozenset({3})), (4, frozenset({4})), (4, frozenset({1, 4}))}


def rank_two_spline(values) -> np.ndarray:
    """The spline with the given coefficient row at each window of W_2, int64 (N, 2)."""
    windows = map(tuple, group_table(2).windows_array.tolist())
    return np.array([values[w] for w in windows], dtype=np.int64)


def fig_spline():
    return rank_two_spline(
        {
            (1, 2): (0, 0),
            (2, 1): (1, -1),
            (2, -1): (-1, -1),
            (-1, 2): (0, 0),
            (1, -2): (0, 0),
            (-2, 1): (0, 0),
            (-2, -1): (1, 0),
            (-1, -2): (0, 1),
        },
    )


class TestDotAction:
    def test_rank_two_worked_example(self):
        w = SignedPerm.transposition(1, -2, 2)
        expected = rank_two_spline(
            {
                (1, 2): (0, -1),
                (2, 1): (-1, 0),
                (2, -1): (0, 0),
                (-1, 2): (1, 1),
                (1, -2): (0, 0),
                (-2, 1): (0, 0),
                (-2, -1): (0, 0),
                (-1, -2): (1, -1),
            },
        )
        # both hand-built in the paper's frame
        assert np.array_equal(push_forward(dot_action(w, pull_back(fig_spline()))), expected)

    def test_identity_acts_trivially(self):
        rho = fig_spline()
        assert np.array_equal(dot_action(SignedPerm.identity(2), rho), rho)

    @pytest.mark.parametrize("n", [2, 3])
    def test_group_action_law(self, n):
        rng = random.Random(31 + n)
        els = elements(group_table(n))
        rho = y_spline(1, -1, n) + g_spline(1, n)
        for _ in range(25):
            u, v = rng.choice(els), rng.choice(els)
            assert np.array_equal(dot_action(u * v, rho), dot_action(u, dot_action(v, rho)))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_closure_exhaustive(self, lt, n):
        # every dot image of every basis element is again a spline, for
        # every element of the group and every space of the rank
        from bcsplines.splines import reflection_perm

        table = group_table(n)
        for space in enumerate_hessenberg(lt, n):
            pb = (
                permutohedral_basis(n)
                if not t_set(space)
                else pull_back(spline_space_basis(space))
            )
            for w in elements(table):
                imgs = push_forward(dot_action(w, pb))  # in the labels' frame
                for root in space.roots:
                    perm = reflection_perm(n, root)
                    lab = scatter_label_matrix(n, root)
                    d = (imgs - imgs[:, perm, :]).reshape(-1, n)
                    lab_rep = np.tile(lab, (len(pb), 1))
                    assert rows_proportional(d, lab_rep).all()

    def test_closure_randomized_rank_four(self):
        n = 4
        rng = random.Random(7)
        els = elements(group_table(n))
        space = realize_tset(frozenset({2}), n, B)
        lb = left_basis(space)
        for _ in range(60):
            rho = rng.choice(lb)
            w = rng.choice(els)
            assert is_spline(push_forward(dot_action(w, rho)), space)


def reference_dot_action(w, rho) -> list:
    """w . rho element by element, on Python integers: the value at v is the
    value of rho at w^{-1} v with x_i sent to sign(w(i)) x_{|w(i)|}."""
    table = group_table(w.n)
    out = []
    for v in elements(table):
        row = rho[table.index_of(w.inverse() * v)].tolist()
        image = [0] * w.n
        for i, c in enumerate(row, start=1):
            image[abs(w(i)) - 1] += c if w(i) > 0 else -c
        out.append(image)
    return out


class TestDotActionRange:
    """On stored splines w translates rows, which is exact in any dtype;
    pushed forward, each image is w's image of the paper's values, element
    by element (`reference_dot_action`)."""

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_one_above_the_minimum_is_exact(self, dtype):
        rho = np.zeros((8, 2), dtype=dtype)
        rho[:, 0] = np.iinfo(dtype).min + 1
        w = SignedPerm([-1, 2])
        out = dot_action(w, rho)
        assert out.dtype == dtype and (out[:, 0] == np.iinfo(dtype).min + 1).all()
        assert push_forward(out).tolist() == reference_dot_action(w, push_forward(rho))

    @pytest.mark.parametrize("n", [2, 3])
    def test_family_values_pass_through(self, n):
        # stacked int8 family values in [-1, 1] keep their dtype, and each
        # image is the element-by-element image of its row
        ks = [k for k in range(-n, n + 1) if k]
        stack = np.concatenate(
            [t_family(ks, n), r_family(range(1, n + 1), n), g_family(ks, n), h_family(n)]
            + [f_family(i, unbalanced_sets(i, n), n) for i in range(1, n + 1)]
        )
        rng = random.Random(5 + n)
        for w in rng.sample(elements(group_table(n)), 6):
            out = dot_action(w, stack)
            assert out.dtype == np.int8 and out.shape == stack.shape
            for rho, image in zip(stack, out):
                assert push_forward(image).tolist() == reference_dot_action(w, push_forward(rho))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_gather_equals_matmul_on_every_element(self, dtype):
        # pushed forward, the image against the matrix of w on coefficient
        # rows: column i of that matrix is sign(w(i)) e_{|w(i)|}
        n = 3
        table = group_table(n)
        ks = [k for k in range(-n, n + 1) if k]
        stack = np.concatenate(
            [t_family(ks, n), g_family(ks, n), h_family(n), f_family(2, unbalanced_sets(2, n), n)]
        ).astype(dtype)
        stack[::3] *= 2
        for w in elements(table):
            mat = np.zeros((n, n), dtype=np.int64)
            for i, img in enumerate(w.window):
                mat[abs(img) - 1, i] = 1 if img > 0 else -1
            src = table.left_mult_indices(w.inverse())
            out = dot_action(w, stack)
            assert out.dtype == dtype
            paper = push_forward(stack)[:, src, :].astype(np.int64) @ mat.T
            assert np.array_equal(push_forward(out), paper)

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            dot_action(SignedPerm.identity(3), t_spline(1, 2))


class TestDotActionOnFamilies:
    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_and_window(self, n):
        for w in elements(group_table(n)):
            for i in range(1, n + 1):
                img = w(i)
                expected = t_spline(abs(img), n) * (1 if img > 0 else -1)
                assert np.array_equal(dot_action(w, t_spline(i, n)), expected)
                assert np.array_equal(dot_action(w, r_spline(i, n)), r_spline(i, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_coset_family(self, n):
        for w in elements(group_table(n)):
            for i in range(1, n + 1):
                for a in unbalanced_sets(i, n):
                    image_set = tuple(sorted(w(k) for k in a))
                    assert np.array_equal(
                        dot_action(w, f_spline(i, a, n)), f_spline(i, image_set, n)
                    )

    @pytest.mark.parametrize("n", [2, 3])
    def test_interval_and_signed_families(self, n):
        for w in elements(group_table(n)):
            for i in range(1, n):
                for k in (-n, 1, n):
                    assert np.array_equal(
                        dot_action(w, y_spline(i, k, n)), y_spline(i, w(k), n)
                    )
            for i in range(1, n + 1):
                assert np.array_equal(dot_action(w, g_spline(i, n)), g_spline(w(i), n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_simples_permute_every_family(self, n):
        # each simple s sends every member of every family to the member the
        # writer builds for s applied to its index, set or ±k, and h to h or
        # to r_n - h: one member decides the edge conditions of its family
        signed = [k for k in range(-n, n + 1) if k]
        for i in range(1, n + 1):
            s = SignedPerm.simple(i, n)

            def moved(members):
                return [tuple(map(s, a)) for a in members]

            want = {
                "r": (r_family(range(1, n + 1), n), r_family(range(1, n + 1), n)),
                "t": (t_family(signed, n), t_family(list(map(s, signed)), n)),
                "g": (g_family(signed, n), g_family(list(map(s, signed)), n)),
                "phi": (
                    phi_family(unbalanced_sets(n, n), n),
                    phi_family(moved(unbalanced_sets(n, n)), n),
                ),
                "h": (h_family(n), h_family(n) if i < n else r_family([n], n) - h_family(n)),
            }
            for j in range(1, n + 1):
                sets = unbalanced_sets(j, n)
                want["f", j] = f_family(j, sets, n), f_family(j, moved(sets), n)
                if j < n:
                    want["y", j] = y_family(j, signed, n), y_family(j, list(map(s, signed)), n)
            for key, (family, image) in want.items():
                assert np.array_equal(dot_action(s, family), image), (i, key)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_family_sign_law(self, n):
        h = h_spline(n)
        rn = r_spline(n, n)
        combo = rn - 2 * h
        for w in elements(group_table(n)):
            odd = named_char_value("delta", w) == -1
            assert np.array_equal(dot_action(w, h), rn - h if odd else h)
            assert np.array_equal(dot_action(w, combo), -combo if odd else combo)


class TestNamedCharacters:
    def test_defining_values_rank_three(self):
        chi = named_char("defining", 3)
        by_type = {(c.lam, c.mu): v for c, v in zip(conjugacy_classes(3), chi.tolist())}
        assert by_type[((1, 1, 1), ())] == 3
        assert by_type[((), (1, 1, 1))] == -3
        assert by_type[((2,), (1,))] == -1

    def test_coset_count_at_identity(self):
        h2 = named_char("h_i", 4, i=2)
        assert at_identity(h2, 4) == 24

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h1_minus_defining_is_s(self, n):
        lhs = named_char("h_i", n, i=1) - named_char("defining", n)
        assert np.array_equal(lhs, named_char("s", n))

    def test_delta_is_a_sign_character(self):
        delta = named_char("delta", 3)
        assert all(v in (1, -1) for v in delta.tolist())

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_h_i_is_the_positive_cycle_generating_function(self, n):
        # a fixed unbalanced set is a union of orbits of w on {±1..±n}: a
        # positive l-cycle of |w| has two orbits of size l, each closed under
        # w and without a pair {k, -k}; a negative cycle has one orbit holding
        # both k and -k.  So h_i(w) = [x^i] prod over positive cycles (1 + 2x^l).
        for i in range(1, n + 1):
            expected = []
            for cl in conjugacy_classes(n):
                poly = [1] + [0] * n
                for l in cl.lam:
                    poly = [c + (2 * poly[k - l] if k >= l else 0) for k, c in enumerate(poly)]
                expected.append(poly[i])
            assert named_char("h_i", n, i).tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_h_i_equals_the_per_set_count(self, n):
        for i in range(1, n + 1):
            sets = unbalanced_sets(i, n)
            expected = [
                sum(1 for a in sets if {cl.rep(k) for k in a} == set(a))
                for cl in conjugacy_classes(n)
            ]
            assert named_char("h_i", n, i).tolist() == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_every_kind_is_its_per_element_definition(self, n):
        for kind in ("trivial", "delta", "defining", "s"):
            expected = [named_char_value(kind, cl.rep) for cl in conjugacy_classes(n)]
            assert named_char(kind, n).tolist() == expected, kind

    def test_class_functions_are_int64_arrays(self):
        for n in (2, 3, 4):
            size = (len(conjugacy_classes(n)),)
            space = from_tset(frozenset({1}), n, B)
            got = [named_char("defining", n), named_char("h_i", n, 2)]
            got += [formula_char({1}, n, "left").evaluate(), computed_char(space, "right")]
            for values in got:
                assert isinstance(values, np.ndarray)
                assert values.dtype == np.int64 and values.shape == size

    def test_cached_arrays_are_read_only(self):
        cached = (named_char("trivial", 3), named_char("h_i", 3, 2), characters._class_windows(3))
        for values in cached:
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 7

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            named_char("h_i", 3)
        with pytest.raises(ValueError):
            named_char("s", 3, i=1)
        with pytest.raises(ValueError):
            named_char("nope", 3)


class TestCharacterExpression:
    def test_flags_exclusive(self):
        with pytest.raises(ValueError):
            CharacterExpression(3, c=1, d=1)

    def test_canonical_strings(self):
        e = published_formula_char({4}, 4, "left")
        assert e.canonical_str() == "2*1 + h1 + h2 + delta"
        e = published_formula_char({4}, 4, "right")
        assert e.canonical_str() == "chi + h1 + h2 + delta - 2*1"
        e = published_formula_char(set(), 4, "left")
        assert e.canonical_str() == "h1 + h2 + h3 + h4 - chi"
        e = published_formula_char(set(), 4, "right")
        assert e.canonical_str() == "h1 + h2 + h3 + h4 - 4*1"

    def test_dimensions(self):
        assert formula_char(set(), 4, "left").dimension() == 76
        assert CharacterExpression(4, a=4, d=1).dimension() == 5
        assert formula_char({1, 2, 3, 4}, 4, "left").dimension() == 4

    def test_rank_eight_example(self):
        e = formula_char({2, 5, 6, 8}, 8, "left")
        assert e.a == 5 and sorted(e.h_indices) == [1, 1, 4] and e.d == 1 and e.c == 0
        assert e.dimension() == 1158
        r = formula_char({2, 5, 6, 8}, 8, "right")
        assert r.chi == 1 and r.one_offset == 3 and r.dimension() == 1158

    def test_evaluate_matches_named_combination(self):
        e = formula_char({1, 2}, 3, "left")
        manual = 2 * named_char("trivial", 3) + named_char("s", 3)
        assert np.array_equal(e.evaluate(), manual)


TABLE_RANK_FOUR = {
    frozenset(): ("h1 + h2 + h3 + h4 - chi", "h1 + h2 + h3 + h4 - 4*1", 76),
    frozenset({1}): ("1 + h3 + h4 + s", "chi + h3 + h4 + s - 3*1", 53),
    frozenset({2}): ("1 + h1 + h4 + s", "chi + h1 + h4 + s - 3*1", 29),
    frozenset({3}): ("1 + h1 + h2 + s", "chi + h1 + h2 + s - 3*1", 37),
    frozenset({4}): ("2*1 + h1 + h2 + delta", "chi + h1 + h2 + delta - 2*1", 35),
    frozenset({1, 2}): ("2*1 + h4 + s", "chi + h4 + s - 2*1", 22),
    frozenset({1, 3}): ("2*1 + h1 + s", "chi + h1 + s - 2*1", 14),
    frozenset({1, 4}): ("3*1 + h1 + delta", "chi + h1 + delta - 1", 12),
    frozenset({2, 3}): ("2*1 + h1 + s", "chi + h1 + s - 2*1", 14),
    frozenset({2, 4}): ("3*1 + h1 + delta", "chi + h1 + delta - 1", 12),
    frozenset({3, 4}): ("2*1 + h1 + h2", "chi + h1 + h2 - 2*1", 34),
    frozenset({1, 2, 3}): ("3*1 + s", "chi + s - 1", 7),
    frozenset({1, 2, 4}): ("4*1 + delta", "chi + delta", 5),
    frozenset({1, 3, 4}): ("3*1 + h1", "chi + h1 - 1", 11),
    frozenset({2, 3, 4}): ("3*1 + h1", "chi + h1 - 1", 11),
    frozenset({1, 2, 3, 4}): ("4*1", "chi", 4),
}


class TestFormulaTable:
    def test_all_rank_four_rows(self):
        for ts, (left_s, right_s, dim) in TABLE_RANK_FOUR.items():
            left = published_formula_char(ts, 4, "left")
            right = published_formula_char(ts, 4, "right")
            assert left.canonical_str() == left_s
            assert right.canonical_str() == right_s
            assert left.dimension() == right.dimension() == dim


# the corrected closed form on the divergent branch: (left, right, dim)
BRANCH_ROWS = {
    (4, frozenset({4})): ("1 + h1 + h2 + h4 - chi", "h1 + h2 + h4 - 3*1", 45),
    (4, frozenset({1, 4})): ("2*1 + h1 + h4 - chi", "h1 + h4 - 2*1", 22),
    (3, frozenset({3})): ("1 + h1 + h3 - chi", "h1 + h3 - 2*1", 12),
}


class TestCorrectedBranch:
    def test_branch_rows(self):
        for (n, ts), (left_s, right_s, dim) in BRANCH_ROWS.items():
            left = formula_char(ts, n, "left")
            right = formula_char(ts, n, "right")
            assert left.canonical_str() == left_s
            assert right.canonical_str() == right_s
            assert left.dimension() == right.dimension() == dim
            space = realize_tset(ts, n, C)
            assert np.array_equal(computed_char(space, "left"), left.evaluate())
            assert np.array_equal(computed_char(space, "right"), right.evaluate())

    def test_difference_from_published(self):
        # h_n - 1 - delta - chi on the branch for n >= 3, zero elsewhere
        for n in (2, 3, 4, 5):
            correction = (
                named_char("h_i", n, i=n)
                - named_char("trivial", n)
                - named_char("delta", n)
                - named_char("defining", n)
            )
            zero = 0 * correction
            # h_2 = 1 + delta + chi, so the two forms agree at rank 2
            assert np.array_equal(correction, zero) == (n == 2)
            for mask in range(2**n):
                ts = frozenset(i + 1 for i in range(n) if mask >> i & 1)
                for side in ("left", "right"):
                    diff = (
                        formula_char(ts, n, side).evaluate()
                        - published_formula_char(ts, n, side).evaluate()
                    )
                    want = correction if on_divergent_branch(ts, n) else zero
                    assert np.array_equal(diff, want)


class TestComputedCharacters:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_formula_away_from_defect_cells(self, n):
        for mask in range(2**n):
            ts = frozenset(i + 1 for i in range(n) if mask >> i & 1)
            space = realize_tset(ts, n, B)
            for side in ("left", "right"):
                agree = np.array_equal(
                    computed_char(space, side), published_formula_char(ts, n, side).evaluate()
                )
                assert agree == ((n, ts) not in DEFECT_TSETS)

    def test_boundary_rows_rank_four(self):
        space = from_tset(frozenset({1, 2, 3, 4}), 4, B)
        assert np.array_equal(computed_char(space, "left"), 4 * named_char("trivial", 4))
        assert np.array_equal(computed_char(space, "right"), named_char("defining", 4))

    def test_one_trace_bundle_for_every_tset(self, monkeypatch):
        # empty, ordinary and divergent t-sets all trace on the witness basis
        built = []

        def recording(space):
            out = witness_basis(space)
            built.append((space, out))
            return out

        monkeypatch.setattr(splines, "witness_basis", recording)
        _trace_data.cache_clear()
        for ts in (frozenset(), frozenset({1}), frozenset({3})):
            space = realize_tset(ts, 3, B)
            computed_char(space, "left")
            computed_char(space, "right")
            ((built_space, bundle),) = built
            assert built_space == space
            assert np.array_equal(bundle[:3], [t_spline(i, 3) for i in (1, 2, 3)])
            assert np.array_equal(bundle, witness_basis(space))
            built.clear()

    def test_no_witness_bundle_outlives_the_pass(self, monkeypatch):
        refs = []

        def recording(space):
            out = witness_basis(space)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(splines, "witness_basis", recording)
        _trace_data.cache_clear()
        space = from_tset(frozenset({1}), 3, C)
        computed_char(space, "left")
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None
        traces = _trace_data(space)
        assert isinstance(traces, tuple) and len(traces) == len(conjugacy_classes(3))
        assert all(type(tr) is int for tr in traces)

    def test_dimension_is_quotient_dimension(self):
        from bcsplines.hessenberg import dim_degree_one

        for ts in (frozenset(), frozenset({2}), frozenset({3})):
            space = realize_tset(ts, 3, B)
            cc = computed_char(space, "left")
            assert at_identity(cc, 3) == dim_degree_one(space) - 3

    def test_correction_at_defect_cells(self):
        # where the published closed form fails, the trace character exceeds
        # it by h_n - 1 - delta - chi; twisting h_n by delta changes nothing,
        # since h_n vanishes wherever delta = -1
        for n, ts in sorted(DEFECT_TSETS, key=lambda p: (p[0], sorted(p[1]))):
            space = realize_tset(ts, n, C)
            delta = named_char("delta", n)
            hn = named_char("h_i", n, i=n)
            twisted = hn * delta
            correction = (
                twisted
                - named_char("trivial", n)
                - delta
                - named_char("defining", n)
            )
            for side in ("left", "right"):
                diff = computed_char(space, side) - published_formula_char(
                    ts, n, side
                ).evaluate()
                assert np.array_equal(diff, correction)

    @pytest.mark.parametrize("n", [2, 3])
    def test_traces_constant_on_classes(self, n):
        # recompute the trace at a second, non-canonical representative
        table = group_table(n)
        for ts in (frozenset(), frozenset({1}), frozenset({n})):
            space = realize_tset(ts, n, B)
            bundle = witness_basis(space)
            for cl in conjugacy_classes(n):
                if cl.size < 2:
                    continue
                members = [
                    w
                    for w in elements(table)
                    if w.signed_cycle_type() == (cl.lam, cl.mu)
                ]
                traces = []
                for g in (members[0], members[-1]):
                    images = dot_action(g, bundle)
                    coeffs = expand(images, bundle)
                    traces.append(sum(row[j] for j, row in enumerate(coeffs)))
                assert traces[0] == traces[1]


class TestModularTraces:
    # the divergent-branch cells of ranks 3 and 4, the empty t-set and an
    # ordinary cell
    CELLS = (
        (3, frozenset({3})),
        (4, frozenset({4})),
        (3, frozenset()),
        (3, frozenset({1})),
    )

    @pytest.mark.parametrize("n,ts", CELLS[:2])
    def test_bundle_is_certified_witness_basis(self, n, ts):
        space = from_tset(ts, n, C)
        assert _trace_data(space)
        bundle = witness_basis(space)
        # the modular pivots that certify the closed-form bundles agree on the rank
        assert bundle_rank(bundle, space) == len(bundle) == dim_degree_one(space)

    @pytest.mark.parametrize("n,ts", CELLS)
    def test_traces_equal_exact_expansion(self, n, ts):
        space = realize_tset(ts, n, B)
        bundle = witness_basis(space)
        for cl, tr in zip(conjugacy_classes(n), _trace_data(space)):
            images = dot_action(cl.rep, bundle)
            exact = sum(row[j] for j, row in enumerate(expand(images, bundle)))
            assert exact == tr


def full_table_traces(space) -> tuple[int, ...]:
    """The modular traces with each class's sources g^{-1} v read from the
    whole `left_mult_indices` table and then gathered at the pivots; the
    stored basis is translated, with no sign."""
    from bcsplines.linalg import PRIMES, inverse_mod_p, symmetric_lift, trace_product_mod_p

    n, p = space.n, PRIMES[0]
    bundle = witness_basis(space)
    piv_rows, piv_slots = np.divmod(triangular_pivots(bundle)[1], n)
    inv = inverse_mod_p(bundle[:, piv_rows, piv_slots], p)
    out = []
    for cl in conjugacy_classes(n):
        src = group_table(n).left_mult_indices(cl.rep.inverse())
        images = bundle[:, src[piv_rows], piv_slots]  # (m, m)
        out.append(symmetric_lift(int(trace_product_mod_p(images, inv, p)), p, len(bundle)))
    return tuple(out)


class TestPivotSources:
    """The traces find g^{-1} v at the pivot elements only; the sources read
    from the whole group give the same traces."""

    @pytest.mark.parametrize("space", SMALL_SPACES + [from_tset(frozenset({1, 2}), 5, B)], ids=space_id)
    def test_traces_equal_the_whole_table_route(self, space):
        assert _trace_data(space) == full_table_traces(space)


# every realizable t-set at rank 5, both types
RANK_FIVE_SPACES = [
    from_tset(ts, 5, lt) for lt in (B, C) for ts in sorted(realizable_tsets(lt, 5), key=sorted)
]


class TestWitnessCertificate:
    """t_1..t_n and the witnesses ordered by length: the pivots read off E,
    the elements with at most one H-inversion, make a triangular block."""

    @pytest.mark.parametrize(
        "space",
        SMALL_SPACES + RANK_FIVE_SPACES + [from_tset(frozenset({2, 3, 6}), 6, C)],
        ids=space_id,
    )
    def test_pivot_block_is_triangular(self, space):
        bundle = witness_basis(space)
        elems, coords = witness_pivots(bundle, space)
        block = bundle[:, elems, coords]
        assert not np.tril(block, -1).any()
        assert set(np.abs(np.diag(block)).tolist()) <= {1, 2}
        # the dense search over the whole group finds the same pivots, with
        # the basis already in its row order
        rows, cols = triangular_pivots(bundle)
        assert rows.tolist() == list(range(len(bundle))) == list(range(dim_degree_one(space)))
        assert (elems * space.n + coords).tolist() == cols.tolist()

    @pytest.fixture
    def tampered(self, monkeypatch):
        """Have the certificate read a modified copy of the witness basis of C3 {t3}."""
        space = from_tset(frozenset({3}), 3, C)
        bundle = witness_basis(space)
        elems, coords = witness_pivots(bundle, space)
        cols = (elems * space.n + coords).tolist()
        _trace_data.cache_clear()

        def install(values):
            monkeypatch.setattr(splines, "witness_basis", lambda sp: values)
            _trace_data.cache_clear()
            return space

        yield bundle, cols, install
        _trace_data.cache_clear()

    def test_untampered_bundle_passes(self, tampered):
        bundle, cols, install = tampered
        assert len(_trace_data(install(bundle))) == len(conjugacy_classes(3))

    def test_zero_at_a_pivot_raises(self, tampered):
        bundle, cols, install = tampered
        values = bundle.copy()
        r = len(values) - 1
        values[r].flat[cols[r]] = 0
        # the pivot moves to the next nonzero coordinate, off the edge conditions
        with pytest.raises(AssertionError, match="bundle element violates an edge condition"):
            _trace_data(install(values))
        values[r] = 0  # zero everywhere: no pivot at all
        with pytest.raises(RankDeficientError, match="upper triangular"):
            _trace_data(install(values))

    def test_witness_off_an_edge_raises(self, tampered):
        bundle, cols, install = tampered
        values = bundle.copy()
        r = len(values) - 1
        values[r].flat[max(set(range(values[r].size)) - set(cols))] += 1  # off every pivot column
        with pytest.raises(AssertionError, match="bundle element violates an edge condition"):
            _trace_data(install(values))

    def test_zero_at_its_element_raises(self, tampered):
        bundle, cols, install = tampered
        values = bundle.copy()
        r = len(values) - 1
        values[r, cols[r] // 3] = 0  # every coordinate at the row's element of E
        with pytest.raises(RankDeficientError, match="upper triangular"):
            _trace_data(install(values))

    @pytest.mark.parametrize("change", ["drop", "repeat"])
    def test_wrong_row_count_raises(self, tampered, change):
        bundle, _, install = tampered
        values = bundle[:-1] if change == "drop" else np.concatenate([bundle, bundle[-1:]])
        with pytest.raises(RankDeficientError, match="bundle does not span for this space"):
            _trace_data(install(values))

    def test_duplicated_witness_raises(self, tampered):
        bundle, cols, install = tampered
        # the pivot elements follow the row order, so a swapped pair breaks the block
        order = list(range(len(cols)))
        order[3], order[-1] = order[-1], order[3]
        with pytest.raises(RankDeficientError, match="upper triangular"):
            _trace_data(install(bundle[order]))
        # a witness in place of another shares its pivot
        values = bundle.copy()
        values[-1] = values[3]
        with pytest.raises(RankDeficientError, match="upper triangular"):
            _trace_data(install(values))


class TestLabelEquivariance:
    """`_simples_fix_r_and_permute_t` tests that the r stack stores
    x_1..x_n, and the simple reflections on the t stack, once per rank.  It
    agrees with the whole-group check of the labels in each type, and a
    stack, a pulled-back value or an action broken in one place makes it
    fail."""

    @pytest.fixture
    def fresh(self):
        # the check is cached; a mutation must not leak
        characters._simples_fix_r_and_permute_t.cache_clear()
        yield
        characters._simples_fix_r_and_permute_t.cache_clear()

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_the_whole_group_check(self, lt, n):
        assert characters._simples_fix_r_and_permute_t(n)
        assert scan_labels_equivariant(lt, n)

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("vertex", [0, 17, 47])
    def test_r_broken_at_one_vertex(self, monkeypatch, fresh, lt, vertex):
        real = splines.r_family

        def broken(indices, n):
            out = real(indices, n)
            out[0, vertex] *= -1
            return out

        monkeypatch.setattr(splines, "r_family", broken)
        assert not characters._simples_fix_r_and_permute_t(3)
        # the whole-group check reads labels scattered from the windows, not
        # the r stack, so it still passes: only the per-rank check sees this
        assert scan_labels_equivariant.__wrapped__(lt, 3)

    @pytest.mark.parametrize("fault", ["column", "sign"])
    @pytest.mark.parametrize("vertex", [0, 17, 47])
    def test_pull_back_wrong_at_one_element(self, monkeypatch, fresh, fault, vertex):
        # a t stack whose pulled-back value at one element reads one
        # coordinate from the wrong column, or with the wrong sign; the dot
        # action is untouched
        real = splines.t_family

        def broken(ks, n):
            out = real(ks, n)
            if fault == "column":
                out[:, vertex, 0] = out[:, vertex, 1]
            else:
                out[:, vertex, 0] *= -1
            return out

        monkeypatch.setattr(splines, "t_family", broken)
        assert not characters._simples_fix_r_and_permute_t(3)

    def test_s_n_without_its_sign(self, monkeypatch, fresh):
        # acting by |w| makes s_n the identity, which fixes every r_k: only
        # the t stack sees the lost sign
        real, n = characters.dot_action, 3

        def unsigned(w, values):
            return real(SignedPerm(tuple(map(abs, w.window))), values)

        r = r_family(range(1, n + 1), n)
        assert np.array_equal(unsigned(SignedPerm.simple(n, n), r), r)
        monkeypatch.setattr(characters, "dot_action", unsigned)
        assert not characters._simples_fix_r_and_permute_t(n)

    def test_t_sent_to_unsigned_index(self, monkeypatch, fresh):
        # claiming s . t_k = t_{|s(k)|} must fail at s_n
        real = splines.t_family
        monkeypatch.setattr(splines, "t_family", lambda ks, n: real(np.abs(ks), n))
        assert not characters._simples_fix_r_and_permute_t(3)


class TestRankFiveBranch:
    @pytest.mark.parametrize(
        "ts", [{5}, {1, 5}, {2, 5}, {1, 2, 5}], ids=lambda ts: ",".join(f"t{i}" for i in sorted(ts))
    )
    def test_corrected_formula_equals_traces(self, ts):
        space = from_tset(frozenset(ts), 5, C)
        for side in ("left", "right"):
            assert np.array_equal(computed_char(space, side), formula_char(ts, 5, side).evaluate())
