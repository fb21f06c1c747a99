"""Degree-one splines: labels, families, relations, bases, expansion."""

import numpy as np
import pytest

import bcsplines.splines
from bcsplines.group import SignedPerm, group_table, min_coset_reps
from bcsplines.hessenberg import (
    HessenbergSpace,
    _inversion_counts,
    descent_cases,
    dim_degree_one,
    enumerate_hessenberg,
    from_tset,
    h_descent_formula,
    on_divergent_branch,
    realizable_tsets,
    t_set,
)
from bcsplines.linalg import RankDeficientError, pivots
from bcsplines.roots import (
    LieType,
    Root,
    act,
    positive_roots,
    root_to_reflection,
    simple_root,
    simple_roots,
)
from bcsplines.splines import (
    bundle_rank,
    dump,
    edges_ok,
    f_family,
    f_spline,
    g_family,
    g_spline,
    generating_set,
    h_family,
    h_spline,
    labels_pairwise_independent,
    left_basis,
    permutohedral_basis,
    phi_family,
    phi_spline,
    push_forward,
    r_family,
    r_spline,
    right_basis,
    t_family,
    t_spline,
    unbalanced_sets,
    witness_basis,
    y_family,
    y_spline,
    _combine,
    _multiples,
    reflection_perm,
)

from reference import (
    descent_set,
    expand,
    is_spline,
    length,
    pull_back,
    rows_proportional,
    scan_labels_pairwise_independent,
    scatter_label_matrix,
    spline_space_basis,
    telescoping_identity,
    triangular_pivots,
    y_f_g_identity,
)

B, C = LieType.B, LieType.C


def elements(table) -> list[SignedPerm]:
    """Every element of the table, in table order."""
    return [SignedPerm(w) for w in table.windows_array.tolist()]


def i64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def splines_of(bundle) -> list[np.ndarray]:
    """The rows of a bundle (m, N, n) as int64 splines (N, n), in bundle order."""
    return list(i64(bundle))


def stacked(splines) -> np.ndarray:
    """The given splines (N, n), stacked (m, N, n) in order as int64."""
    return i64(np.stack(splines))


def rt_sum(k, n) -> np.ndarray:
    """sum_{j<=k} (r_j - t_j), int64."""
    return sum(i64(r_spline(j, n)) - t_spline(j, n) for j in range(1, k + 1))


FIG_SPLINE_VALUES = {
    (1, 2): (0, 0),
    (2, 1): (1, -1),
    (2, -1): (-1, -1),
    (-1, 2): (0, 0),
    (1, -2): (0, 0),
    (-2, 1): (0, 0),
    (-2, -1): (1, 0),
    (-1, -2): (0, 1),
}


def spline_from_values(n, values) -> np.ndarray:
    """The int64 spline with the given coefficient rows at the given windows,
    zero elsewhere."""
    table = group_table(n)
    num = np.zeros((table.size, n), dtype=np.int64)
    num[table.indices_of(list(values))] = list(values.values())
    return num


def fig_spline() -> np.ndarray:
    return spline_from_values(2, FIG_SPLINE_VALUES)


def value(rho, w) -> list[int]:
    """rho(w) in the paper's frame, pushed forward from the stored values,
    as its coefficients of x_1..x_n."""
    return push_forward(rho)[group_table(w.n).index_of(w)].tolist()


def var(k, n) -> np.ndarray:
    """The coefficients of x_k, with x_{-i} = -x_i."""
    row = np.zeros(n, dtype=np.int64)
    row[abs(k) - 1] = np.sign(k)
    return row


def shortest_support(rho) -> set:
    """The support elements of minimal Coxeter length."""
    table = group_table(rho.shape[-1])
    rows = np.flatnonzero(rho.any(axis=1))
    lens = table.lengths[rows]
    return {SignedPerm(table.windows_array[int(r)].tolist()) for r in rows[lens == lens.min()]}


def delta_space(lt, n):
    return HessenbergSpace(lt, n, frozenset(simple_roots(lt, n)))


def full_space(lt, n):
    return HessenbergSpace(lt, n, frozenset(positive_roots(lt, n)))


class TestLabels:
    def test_rank_two_labelled_graph(self):
        # the eight edge labels of the rank-two simple-root graph
        expected = {
            ((1, 2), 1): (1, -1),
            ((2, 1), 2): (1, 0),
            ((2, -1), 1): (1, 1),
            ((-1, 2), 2): (0, 1),
            ((1, 2), 2): (0, 1),
            ((1, -2), 1): (1, 1),
            ((-2, 1), 2): (1, 0),
            ((-2, -1), 1): (1, -1),
        }
        table = group_table(2)
        for (window, i), coeffs in expected.items():
            lab = scatter_label_matrix(2, simple_root(i, B, 2))[table.index_of(SignedPerm(window))]
            assert lab.tolist() == list(coeffs)

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_label_matches_value_swap_form(self, lt, n):
        # the label of (w, w s_alpha) with s_alpha = (p, q) is x_{w(p)} - x_{w(q)}
        for root in positive_roots(lt, n):
            t = root_to_reflection(root)
            pair = [k for k in range(1, n + 1) if t(k) != k]
            p = pair[0]
            q = t(p)
            labels = scatter_label_matrix(n, root)
            for idx, w in enumerate(elements(group_table(n))):
                case_poly = var(w(p), n) - var(w(q), n)
                assert labels[idx].any()
                assert outer_rows_proportional(case_poly[None], labels[idx][None]).all()

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_labels_equal_the_scatter(self, lt, n):
        # the edge test reads each label as its root, in the frame of
        # `pull_back`; the scatter labels, moved there, are that root
        for root in positive_roots(lt, n):
            pulled = pull_back(scatter_label_matrix(n, root))
            assert pulled.dtype == np.int8
            assert (pulled == root.evector()).all(), root

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_labels_pairwise_independent(self, lt, n):
        assert labels_pairwise_independent(lt, n)
        assert scan_labels_pairwise_independent(lt, n)

    @pytest.mark.parametrize("lt", [B, C])
    def test_a_proportional_pair_of_roots_is_caught(self, monkeypatch, lt):
        # labels at w are psi(w) alpha with psi(w) invertible, so a pair of
        # proportional roots gives proportional labels at every w
        roots = positive_roots(lt, 3)
        pair = roots + (Root(tuple(-c for c in roots[4].coords), lt),)
        monkeypatch.setattr(bcsplines.splines, "positive_roots", lambda lie_type, n: pair)
        assert not labels_pairwise_independent(lt, 3)


class TestPullBack:
    """`pull_back` moves the value at w back by w: w^{-1} rho(w)."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_row_is_the_inverse_applied(self, n):
        table = group_table(n)
        ks = [k for k in range(-n, n + 1) if k]
        stack = np.concatenate([t_family(ks, n), g_family(ks, n), f_family(1, [(1,)], n)])
        stack[::2] *= 2
        pulled = pull_back(stack)
        assert pulled.dtype == np.int8 and pulled.shape == stack.shape
        for idx, w in enumerate(elements(table)):
            for got, rho in zip(pulled[:, idx].tolist(), stack[:, idx].tolist()):
                assert tuple(got) == act(w.inverse(), tuple(rho))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_dtype_minimum_raises(self, dtype):
        # the value at every element is negated by some w^{-1}, and -min wraps
        rho = np.zeros((1, 8, 2), dtype=dtype)
        rho[0, 3, 1] = np.iinfo(dtype).min
        with pytest.raises(OverflowError):
            pull_back(rho)
        rho[0, 3, 1] += 1
        assert np.abs(pull_back(rho)).max() == np.iinfo(dtype).max


class TestPushForward:
    """`push_forward` moves the stored value at w forward by w, to
    rho(w) = w rho~(w), and undoes `pull_back`."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_row_is_the_element_applied(self, n):
        table = group_table(n)
        ks = [k for k in range(-n, n + 1) if k]
        stack = np.concatenate([t_family(ks, n), g_family(ks, n), f_family(1, [(1,)], n)])
        stack[::2] *= 2
        pushed = push_forward(stack)
        assert pushed.dtype == np.int8 and pushed.shape == stack.shape
        assert np.array_equal(pull_back(pushed), stack)
        assert np.array_equal(push_forward(pull_back(stack)), stack)
        for idx, w in enumerate(elements(table)):
            for got, rho in zip(pushed[:, idx].tolist(), stack[:, idx].tolist()):
                assert tuple(got) == act(w, tuple(rho))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_dtype_minimum_raises(self, dtype):
        # the value at every element is negated by some w, and -min wraps
        rho = np.zeros((1, 8, 2), dtype=dtype)
        rho[0, 3, 1] = np.iinfo(dtype).min
        with pytest.raises(OverflowError):
            push_forward(rho)
        rho[0, 3, 1] += 1
        assert np.abs(push_forward(rho)).max() == np.iinfo(dtype).max


def paper_value(family: str, member, w: SignedPerm) -> list[int]:
    """The paper's formula for one family member at w (the `splines`
    docstring), by `SignedPerm` arithmetic; zero off its support."""
    n, inv, zero = w.n, w.inverse(), [0] * w.n
    if family == "t":
        val = var(member, n)
    elif family == "r":
        val = var(w(member), n)
    elif family == "f":
        i, a = member
        if {w(k) for k in range(1, i + 1)} != set(a):
            return zero
        val = var(w(i), n) - (var(w(i + 1), n) if i < n else 0)
    elif family == "y":
        i, k = member
        if not 1 <= inv(k) <= i:
            return zero
        val = var(k, n) - var(w(i + 1), n)
    elif family == "g":
        if inv(member) > 0:
            return zero
        val = var(member, n)
    elif family == "h":
        if sum(x < 0 for x in w.window) % 2 == 0:
            return zero
        val = var(w(n), n)
    else:
        head = {w(k) for k in range(1, n)}
        if not head <= set(member):
            return zero
        (b,) = set(member) - head
        val = var(w(n - 1), n) + var(b, n)
    return val.tolist()


class TestFrameContract:
    """Every writer stores its members pulled back: pushed forward, each is
    the paper's formula at every element."""

    @staticmethod
    def members(family, n):
        ks = [k for k in range(-n, n + 1) if k]
        if family == "t":
            return ks, t_family(ks, n)
        if family == "r":
            return list(range(1, n + 1)), r_family(range(1, n + 1), n)
        if family == "f":
            sets = [(i, a) for i in range(1, n + 1) for a in unbalanced_sets(i, n)]
            return sets, np.concatenate([f_family(i, [a], n) for i, a in sets])
        if family == "y":
            pairs = [(i, k) for i in range(1, n) for k in ks]
            return pairs, np.concatenate([y_family(i, ks, n) for i in range(1, n)])
        if family == "g":
            return ks, g_family(ks, n)
        if family == "h":
            return [None], h_family(n)
        return unbalanced_sets(n, n), phi_family(unbalanced_sets(n, n), n)

    @pytest.mark.parametrize("family", ["t", "r", "f", "y", "g", "h", "phi"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pushed_forward_is_the_papers_formula(self, family, n):
        members, stored = self.members(family, n)
        paper = push_forward(stored).tolist()
        for idx, w in enumerate(elements(group_table(n))):
            for member, rho in zip(members, paper):
                assert rho[idx] == paper_value(family, member, w), (member, w)


class TestSplinePredicate:
    def test_rank_two_example_spline(self):
        assert is_spline(fig_spline(), delta_space(B, 2))
        assert is_spline(fig_spline(), delta_space(C, 2))

    def test_constant_and_window_families_everywhere(self):
        for lt in (B, C):
            space = full_space(lt, 3)
            for i in (1, 2, 3):
                assert is_spline(push_forward(t_spline(i, 3)), space)
                assert is_spline(push_forward(r_spline(i, 3)), space)

    def test_perturbation_breaks_an_edge(self):
        values = dict(FIG_SPLINE_VALUES)
        values[(2, 1)] = (2, -1)  # add x_1 at one vertex
        broken = spline_from_values(2, values)
        ok, witness = is_spline(broken, delta_space(B, 2), witness=True)
        assert not ok and witness is not None

    def test_perturbation_witness_is_first_root_then_element(self):
        values = dict(FIG_SPLINE_VALUES)
        values[(2, 1)] = (2, -1)
        broken = spline_from_values(2, values)
        ok, witness = is_spline(broken, delta_space(B, 2), witness=True)
        # the first failing root in sorted order, then its first element in table order
        assert not ok
        assert witness == (SignedPerm.identity(2), simple_root(1, B, 2))
        assert witness == reference_is_spline(broken, delta_space(B, 2))

    def test_fig_spline_not_in_full_space(self):
        assert not is_spline(fig_spline(), full_space(B, 2))


def outer_rows_proportional(d, lab):
    """Rowwise test that d is a multiple of lab by every 2x2 minor of the
    outer product plus a support test: the reference for the pivot form."""
    outer = d[:, :, None] * lab[:, None, :]
    minors_ok = np.all(outer == outer.transpose(0, 2, 1), axis=(1, 2))
    support_ok = np.all((d != 0) <= (lab != 0), axis=1)
    return minors_ok & support_ok


def reference_is_spline(rho, space):
    """The first failing (element, root) of rho, or None, over every row of
    every root of H by the outer-product test."""
    table = group_table(space.n)
    for root in sorted(space.roots):
        d = rho - rho[reflection_perm(space.n, root)]
        ok = outer_rows_proportional(d, scatter_label_matrix(space.n, root))
        if not ok.all():
            return SignedPerm(table.windows_array[int(np.flatnonzero(~ok)[0])].tolist()), root
    return None


REALIZABLE_CELLS = [
    from_tset(ts, n, lt)
    for n in (2, 3, 4)
    for lt in (B, C)
    for ts in sorted(realizable_tsets(lt, n), key=sorted)
]


def cell_id(space):
    return f"{space.lie_type.name}{space.n}-{{{','.join(f't{i}' for i in sorted(t_set(space)))}}}"


def random_labels(rng, rows, n):
    """Label rows of one and of two nonzeros, alternately, entries in ±1, ±2."""
    lab = np.zeros((rows, n), dtype=np.int64)
    for r in range(rows):
        k = 1 + r % 2
        lab[r, rng.choice(n, size=k, replace=False)] = rng.choice([-2, -1, 1, 2], size=k)
    return lab


def differences_near(rng, lab):
    """Three stacks of differences against the label rows: random, then with
    multiples of the label mixed in, some with one nonzero."""
    d = rng.integers(-2, 3, size=(3,) + lab.shape)
    d[:, ::5] = 0
    d[1, 1::3] = 3 * lab[1::3]
    d[2, 2::3] = -lab[2::3]
    d[2, ::4, 0] = 0  # one-nonzero differences against either kind of label
    return d


class TestBatchedEdgeTest:
    @pytest.mark.parametrize("seed", range(6))
    def test_pivot_form_equals_outer_product(self, seed):
        # one vector of one or two nonzeros against every row, as the edge
        # test passes a root, tested on its support
        rng = np.random.default_rng(seed)
        for vec in random_labels(rng, 2, 4):
            lab = np.tile(vec, (400, 1))
            d = differences_near(rng, lab)
            want = np.stack([outer_rows_proportional(x, lab) for x in d])
            assert want.any() and not want.all()
            assert np.array_equal(_multiples(d, vec), want)
            assert np.array_equal(_multiples(d[1], vec), want[1])

    @pytest.mark.parametrize("seed", range(3))
    def test_per_row_reference_equals_outer_product(self, seed):
        # the reference with a label per row, which the label scans use
        rng = np.random.default_rng(seed)
        lab = random_labels(rng, 400, 4)
        d = differences_near(rng, lab)
        want = np.stack([outer_rows_proportional(x, lab) for x in d])
        assert want.any() and not want.all()
        assert np.array_equal(rows_proportional(d, lab), want)
        assert np.array_equal(rows_proportional(d[1], lab), want[1])

    @pytest.mark.parametrize("space", REALIZABLE_CELLS, ids=cell_id)
    def test_batch_equals_reference_per_spline(self, space):
        n = space.n
        bundle = witness_basis(space)
        splines = splines_of(bundle)
        splines += [f_spline(n - 1, a, n) for a in unbalanced_sets(n - 1, n)]
        splines += [y_spline(1, k, n) for k in range(-n, n + 1) if k]
        splines += [g_spline(k, n) for k in range(1, n + 1)]
        num = i64(splines[-1])
        num[-1, 0] += 1  # one vertex off the family
        splines.append(num)
        paper = [push_forward(s) for s in splines]
        refs = [reference_is_spline(s, space) for s in paper]
        assert refs[-1] is not None and all(r is None for r in refs[: len(bundle)])
        got = edges_ok(stacked(splines), space.roots)
        assert got.tolist() == [r is None for r in refs]
        for s, ref in zip(paper, refs):
            assert is_spline(s, space, witness=True) == (ref is None, ref)

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            edges_ok(stacked([t_spline(1, 3)]), delta_space(B, 2).roots)


class TestEdgeTestOverflow:
    """The edge test reads exact differences; a wrap in the integer type it
    runs in (int64 for the largest values, int8 for the smallest) never
    decides it."""

    @staticmethod
    def _two_valued(n, inside, value, outside):
        values = {w.window: outside for w in elements(group_table(n))}
        for w in inside:
            values[w.window] = value
        return spline_from_values(n, values)

    @pytest.mark.parametrize("big", [2**63 - 1, 2**7 - 1])
    def test_wrapped_difference_is_not_a_multiple(self, big):
        # the edge (s2, s2 s1) carries the label s2(e1 - e2) = e1 + e2 and the
        # difference (big + 1, -big - 1), which wraps to a multiple of (1, 1)
        # in int64 (big = 2^63 - 1) or int8 (big = 127); pulled back, the
        # difference (big + 1, big + 1) wraps to a multiple of the root e1 - e2
        e, s1, s2 = SignedPerm.identity(2), SignedPerm.simple(1, 2), SignedPerm.simple(2, 2)
        rho = self._two_valued(2, (e, s2), (big, -big), (-1, 1))
        space = delta_space(B, 2)
        if big > 2**7:
            assert reference_is_spline(rho, space) is None  # the wrapped verdict
        ok, (w, root) = is_spline(rho, space, witness=True)
        assert not ok and root == simple_root(1, B, 2) and w in (s2, s2 * s1)
        assert edges_ok(pull_back(np.stack([rho])), space.roots).tolist() == [False]

    @pytest.mark.parametrize("half", [2**62, 2**6])
    def test_wrapped_product_is_not_a_multiple(self, half):
        # the edge (s1, s1 s2) carries the label s1(2 e2) = 2 e1 and the
        # difference (0, 2 half); the pivot product 2 * 2 half wraps to 0 in
        # int64 (half = 2^62) or int8 (half = 64), and so does the product
        # 2 half * 2 of the pulled-back difference (2 half, 0) and the root 2 e2
        e, s1, s2 = SignedPerm.identity(2), SignedPerm.simple(1, 2), SignedPerm.simple(2, 2)
        rho = self._two_valued(2, (e, s1), (0, half), (0, -half))
        space = delta_space(C, 2)
        ok, (w, root) = is_spline(rho, space, witness=True)
        assert not ok and root == simple_root(2, C, 2) and w in (s1, s1 * s2)
        assert edges_ok(pull_back(np.stack([rho])), space.roots).tolist() == [False]

    @pytest.mark.parametrize("big", [2**63 - 1, 2**7 - 1, 2**5])
    def test_large_values_that_are_a_spline(self, big):
        rho = (big - 1) * i64(t_spline(1, 2)) + r_spline(1, 2)
        assert is_spline(push_forward(rho), full_space(C, 2))
        assert edges_ok(np.stack([rho, -rho]), full_space(B, 2).roots).all()


class TestEdgeOnTheRootSupport:
    """An edge holds exactly when the stored difference at its ends is a
    multiple of the root: zero off the root's support and, on a two-entry
    support, in the root's ratio.  Values past int64 run on Python integers
    with the same verdicts."""

    @pytest.mark.parametrize("scale", [1, 2**61])
    @pytest.mark.parametrize(
        "lt, i, diff, ok",
        [
            (B, 1, (2, -2, 0), True),  # 2 (e1 - e2)
            (B, 1, (1, -1, 1), False),  # one off-support coordinate differs
            (B, 1, (1, 1, 0), False),  # the ratio on the support is wrong
            (B, 2, (0, 3, -3), True),
            (B, 2, (0, 3, -2), False),
            (B, 3, (0, 0, -3), True),  # a one-entry support
            (B, 3, (1, 0, -3), False),
            (C, 3, (0, 0, 1), True),  # half of 2 e3
            (C, 3, (0, 1, 1), False),
        ],
    )
    def test_one_edge(self, lt, i, diff, ok, scale):
        # the identity's value against zero elsewhere: the edge (e, s_i)
        # carries the whole difference, every other edge none
        values = np.zeros((1, group_table(3).size, 3), dtype=np.int64)
        values[0, group_table(3).index_of(SignedPerm.identity(3))] = np.multiply(diff, scale)
        assert edges_ok(values, (simple_root(i, lt, 3),)).tolist() == [ok]


class TestFamilyValues:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coset_support_is_window_set(self, n):
        table = group_table(n)
        for i in range(1, n + 1):
            for a in unbalanced_sets(i, n):
                want = [frozenset(win[:i]) == frozenset(a) for win in table.windows_array.tolist()]
                assert np.any(f_spline(i, a, n), axis=1).tolist() == want

    def test_window_family_signs(self):
        rho = r_spline(1, 2)
        assert value(rho, SignedPerm([-2, 1])) == [0, -1]

    def test_constant_minus_window_vanishes_at_identity(self):
        e = SignedPerm.identity(3)
        for i in (1, 2, 3):
            diff = t_spline(i, 3) - r_spline(i, 3)
            assert not any(value(diff, e))

    def test_coset_family_at_identity(self):
        rho = f_spline(3, (1, 2, 3), 3)
        assert value(rho, SignedPerm.identity(3)) == var(3, 3).tolist()

    def test_interval_family_at_identity(self):
        for i in (1, 2):
            for k in range(1, i + 1):
                val = value(y_spline(i, k, 3), SignedPerm.identity(3))
                assert val == (var(k, 3) - var(i + 1, 3)).tolist()

    def test_signed_family_at_identity(self):
        e = SignedPerm.identity(3)
        for i in (1, 2, 3):
            assert not any(value(g_spline(i, 3), e))
            assert value(g_spline(-i, 3), e) == var(-i, 3).tolist()

    def test_parity_family_values(self):
        n = 3
        e = SignedPerm.identity(n)
        sn = SignedPerm.simple(n, n)
        rho = h_spline(n)
        assert not any(value(rho, e))
        # value at s_n is x_{w(n)} = x_{-n} = -x_n
        assert value(rho, sn) == var(-n, n).tolist()

    def test_unbalanced_sets(self):
        sets = unbalanced_sets(1, 2)
        assert sets == ((-2,), (-1,), (1,), (2,))
        assert len(unbalanced_sets(2, 4)) == 24
        for a in unbalanced_sets(2, 3):
            assert len({abs(x) for x in a}) == 2

    def test_dump_format(self):
        lines = dump(t_spline(1, 2)).splitlines()
        assert lines[0] == "-2,-1\t1*x1"
        assert len(lines) == 8
        assert dump(t_spline(1, 2)) == dump(i64(t_spline(1, 2)))

    def test_poly_str(self):
        # every coefficient is written with its sign and value; a zero row reads 0
        double = 2 * i64(t_spline(1, 2))
        assert {line.split("\t")[1] for line in dump(double).splitlines()} == {"2*x1"}
        rho = 3 * i64(t_spline(2, 2)) - t_spline(1, 2)
        assert dump(rho).splitlines()[0] == "-2,-1\t-1*x1 + 3*x2"
        rho = i64(t_spline(1, 2)) - 2 * i64(t_spline(2, 2))
        assert dump(rho).splitlines()[0] == "-2,-1\t1*x1 - 2*x2"
        assert dump(np.zeros((8, 2), dtype=np.int64)).splitlines()[-1] == "2,1\t0"


class TestFamilyWriters:
    """One writer per family: int8 stacks of the members the caller names."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coset_family_sums_and_covers(self, n):
        for i in range(1, n + 1):
            family = f_family(i, unbalanced_sets(i, n), n)
            want = r_spline(i, n) - r_spline(i + 1, n) if i < n else r_spline(n, n)
            assert np.array_equal(family.sum(axis=0), want)
            # every element lies in the support of exactly one member
            assert (family.any(axis=2).sum(axis=0) == 1).all()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_members_in_the_callers_order(self, n):
        ks = [k for k in range(-n, n + 1) if k]
        picked = ks[::-3]
        cases = [
            (lambda m: t_family(m, n), ks, picked),
            (lambda m: r_family(m, n), range(1, n + 1), [n, 1]),
            (lambda m: y_family(1, m, n), ks, picked),
            (lambda m: g_family(m, n), ks, picked),
            (lambda m: phi_family(m, n), unbalanced_sets(n, n), unbalanced_sets(n, n)[::-5]),
        ]
        cases += [
            (lambda m, i=i: f_family(i, m, n), unbalanced_sets(i, n), unbalanced_sets(i, n)[::-3])
            for i in range(1, n + 1)
        ]
        for build, members, some in cases:
            whole = build(list(members))
            assert whole.dtype == np.int8 and np.abs(whole).max() == 1
            assert np.array_equal(build(list(some)), whole[[list(members).index(m) for m in some]])
            assert build([]).shape == (0,) + whole.shape[1:]


class TestNarrowWindows:
    """The writers read the int8 windows of the table; each result equals the
    one computed from int64 windows, so no set code, bit or index wraps.  The
    set codes reach 2^(2n-1), past int8 from n = 4 on."""

    def test_writers_equal_int64(self, monkeypatch):
        n = 6
        table = group_table(n)
        ks = [k for k in range(-n, n + 1) if k]
        writers = [lambda i=i: f_family(i, unbalanced_sets(i, n)[::7], n) for i in range(1, n + 1)]
        writers += [lambda i=i: y_family(i, ks, n) for i in range(1, n)]
        writers += [lambda: g_family(ks, n), lambda: phi_family(unbalanced_sets(n, n)[::3], n)]

        class WideTable:
            size, windows_array = table.size, table.windows_array.astype(np.int64)

        assert table.windows_array.dtype == np.int8
        for build in writers:
            narrow = build()
            with monkeypatch.context() as m:
                m.setattr(bcsplines.splines, "group_table", lambda _: WideTable)
                wide = build()
            assert narrow.any() and np.array_equal(narrow, wide)


class TestCheckedNarrowing:
    """A sum of family members is int8 only where its bound fits."""

    def test_bound_fits(self):
        members = np.ones((3, 8, 2), dtype=np.int8)
        out = _combine([[100, 27, 0], [-100, -27, 0], [1, -1, 1]], members)
        assert out.dtype == np.int8
        assert out[:, 0, 0].tolist() == [127, -127, 1]

    @pytest.mark.parametrize("coeffs", [[[100, 28]], [[1] * 64 + [-1] * 64]])
    def test_bound_past_int8_raises(self, coeffs):
        members = np.ones((len(coeffs[0]), 8, 2), dtype=np.int8)
        with pytest.raises(OverflowError):
            _combine(coeffs, members)


class TestFamilyMembership:
    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hypotheses_imply_membership(self, lt, n):
        from bcsplines.hessenberg import classify

        fams = {  # pushed forward, for the paper-frame `is_spline`
            "f": {
                (i, a): push_forward(f_spline(i, a, n))
                for i in range(1, n + 1)
                for a in unbalanced_sets(i, n)
            },
            "y": {
                (i, k): push_forward(y_spline(i, k, n))
                for i in range(1, n)
                for k in range(-n, n + 1)
                if k
            },
            "g": {i: push_forward(g_spline(i, n)) for i in range(1, n + 1)},
            "h": push_forward(h_spline(n)),
        }
        for space in enumerate_hessenberg(lt, n):
            ts = t_set(space)
            cls = classify(ts, n)
            for (i, a), rho in fams["f"].items():
                if i in cls.uncovered:
                    assert is_spline(rho, space)
            for (i, k), rho in fams["y"].items():
                hyp = (i <= n - 2 and i not in ts) or (
                    i == n - 1 and not ts & {n - 1, n}
                )
                if hyp:
                    assert is_spline(rho, space)
            if n not in ts:
                for rho in fams["g"].values():
                    assert is_spline(rho, space)
            if (n - 1) not in ts:
                assert is_spline(fams["h"], space)


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3])
    def test_coset_sum(self, n):
        for i in range(1, n):
            total = sum(i64(f_spline(i, a, n)) for a in unbalanced_sets(i, n))
            assert np.array_equal(total, r_spline(i, n) - r_spline(i + 1, n))
        total = sum(i64(f_spline(n, a, n)) for a in unbalanced_sets(n, n))
        assert np.array_equal(total, r_spline(n, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_interval_sum(self, n):
        for i in range(1, n):
            total = sum(i64(y_spline(i, k, n)) for k in range(-n, n + 1) if k)
            expected = sum(i64(r_spline(j, n)) for j in range(1, i + 1))
            expected = expected - i * i64(r_spline(i + 1, n))
            assert np.array_equal(total, expected)

    @pytest.mark.parametrize("n", [2, 3])
    def test_telescoping(self, n):
        for p in range(0, n - 1):
            for m in range(p + 1, n):
                for k in [x for x in range(-n, n + 1) if x]:
                    assert telescoping_identity(p, m, k, n)

    @pytest.mark.parametrize("n", [2, 3])
    def test_y_f_g(self, n):
        for p in range(0, n):
            for k in [x for x in range(-n, n + 1) if x]:
                assert y_f_g_identity(p, k, n)

    def test_y_f_g_named_examples(self):
        assert y_f_g_identity(0, 1, 2)
        assert y_f_g_identity(1, -2, 3)
        assert y_f_g_identity(1, 1, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_signed_family_relations(self, n):
        for i in range(1, n + 1):
            assert np.array_equal(g_spline(i, n) - g_spline(-i, n), t_spline(i, n))
        # sum_j (r_j - t_j) = -2 sum_k g_k: the coefficient of x_k at w is
        # eps_k - 1, which is -2 where w^{-1}(k) < 0 and 0 elsewhere
        total = sum(i64(g_spline(j, n)) for j in range(1, n + 1))
        assert np.array_equal(rt_sum(n, n), -2 * total)


class TestPhiFamily:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_coset_combination(self, n):
        # phi^B = 2 f_n^B + sum of f_{n-1}^A over the (n-1)-subsets A of B
        for b in unbalanced_sets(n, n):
            total = 2 * i64(f_spline(n, b, n))
            for a in unbalanced_sets(n - 1, n):
                if set(a) <= set(b):
                    total = total + f_spline(n - 1, a, n)
            assert np.array_equal(phi_spline(b, n), total)

    def test_value_and_support(self):
        n = 3
        b = (-3, 1, 2)
        rho = phi_spline(b, n)
        for w in elements(group_table(n)):
            head = set(w.window[: n - 1])
            if head <= set(b):
                (beta,) = set(b) - head
                assert value(rho, w) == (var(w(n - 1), n) + var(beta, n)).tolist()
            else:
                assert not any(value(rho, w))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_splines_on_the_branch(self, n):
        for ts in realizable_tsets(C, n):
            if on_divergent_branch(ts, n):
                space = from_tset(ts, n, C)
                for b in unbalanced_sets(n, n):
                    assert is_spline(push_forward(phi_spline(b, n)), space)

    def test_rejects_balanced_sets(self):
        with pytest.raises(ValueError):
            phi_spline((1, -1, 2), 3)
        with pytest.raises(ValueError):
            phi_spline((1, 2), 3)
        with pytest.raises(ValueError):
            phi_spline((1, 2, 4), 3)
        with pytest.raises(ValueError):
            phi_spline((1,), 1)


class TestShortestSupports:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partial_sums(self, n):
        for k in range(1, n + 1):
            assert shortest_support(rt_sum(k, n)) == {
                SignedPerm.simple(k, n)
            }

    @pytest.mark.parametrize("n", [2, 3])
    def test_coset_family_covers_representatives(self, n):
        for i in range(1, n + 1):
            mins = set()
            for a in unbalanced_sets(i, n):
                supp = shortest_support(f_spline(i, a, n))
                assert len(supp) == 1
                mins |= supp
            assert mins == set(min_coset_reps(n, i))

    @pytest.mark.parametrize("n", [3, 4])
    def test_interval_family(self, n):
        for i in range(1, n):
            for k in range(i + 1, n + 1):
                expected = SignedPerm.from_word(range(k - 1, i - 1, -1), n)
                assert shortest_support(y_spline(i, k, n)) == {expected}
            for k in range(-1, -n - 1, -1):
                word = list(range(-k, n + 1)) + list(range(n - 1, i - 1, -1))
                expected = SignedPerm.from_word(word, n)
                assert shortest_support(y_spline(i, k, n)) == {expected}

    @pytest.mark.parametrize("n", [3, 4])
    def test_constant_window_interval_combination(self, n):
        for i in range(1, n):
            for k in range(1, i + 1):
                combo = t_spline(k, n) - r_spline(i + 1, n) - y_spline(i, k, n)
                expected = SignedPerm.from_word(range(k, i + 2), n)
                assert shortest_support(combo) == {expected}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_signed_family(self, n):
        for i in range(1, n + 1):
            expected = SignedPerm.from_word(range(i, n + 1), n)
            assert shortest_support(g_spline(i, n)) == {expected}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_combination(self, n):
        combo = sum((i64(g_spline(k, n)) for k in range(1, n + 1)), i64(h_spline(n)))
        assert shortest_support(combo) == {SignedPerm.from_word([n, n - 1], n)}


class TestBundles:
    @pytest.mark.parametrize("n", [2, 3])
    def test_generating_rank_matches_dimension(self, n):
        for lt in (B, C):
            for ts in sorted(realizable_tsets(lt, n), key=sorted):
                space = from_tset(ts, n, lt)
                bundle = generating_set(space)
                assert bundle_rank(bundle, space) == dim_degree_one(space)
                assert edges_ok(bundle, space.roots).all()

    def test_generating_set_spans_at_rank_five_branch(self):
        space = from_tset(frozenset({5}), 5, C)
        assert bundle_rank(generating_set(space), space) == dim_degree_one(space) == 163

    def test_full_space_generators_are_constants_and_windows(self):
        space = full_space(B, 3)
        # build order: t_1, t_2, t_3, then r_1, r_2, r_3
        want = [t_spline(i, 3) for i in (1, 2, 3)] + [r_spline(i, 3) for i in (1, 2, 3)]
        assert np.array_equal(generating_set(space), stacked(want))

    @pytest.mark.parametrize("n", [2, 3])
    def test_left_right_bases(self, n):
        for lt in (B, C):
            for ts in sorted(realizable_tsets(lt, n), key=sorted):
                if not ts or (n, ts) == (3, frozenset({3})):
                    continue
                space = from_tset(ts, n, lt)
                lb, rb = left_basis(space), right_basis(space)
                dim = dim_degree_one(space)
                assert len(lb) == len(rb) == dim
                # same span: every element is a spline, and the union has the rank of each
                union = np.concatenate([lb, rb])
                assert edges_ok(union, space.roots).all()
                ranks = [bundle_rank(b, space) for b in (union, lb, rb)]
                assert ranks == [dim] * 3

    def test_rank_deficient_cell_is_short(self):
        # the published left and right sets at C3 {t3} miss 2^n - n - 2 = 3 dimensions
        space = from_tset(frozenset({3}), 3, C)
        dim = dim_degree_one(space)
        for bundle in (left_basis(space), right_basis(space)):
            assert len(bundle) == bundle_rank(bundle, space) == dim - 3

    def test_permutohedral_basis(self):
        n = 3
        pb = permutohedral_basis(n)
        assert len(pb) == dim_degree_one(delta_space(B, n))
        assert bundle_rank(pb, delta_space(B, n)) == len(pb)
        for s in splines_of(pb):
            assert is_spline(push_forward(s), delta_space(B, n))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_permutohedral_members_are_splines_on_the_simples(self, lt, n):
        assert edges_ok(permutohedral_basis(n), delta_space(lt, n).roots).all()

    def test_permutohedral_size_rank_four(self):
        assert len(permutohedral_basis(4)) == 80

    def test_kernel_basis_fills_the_gap(self):
        space = from_tset(frozenset({3}), 3, C)
        kb = spline_space_basis(space)
        assert len(kb) == 15
        for s in splines_of(kb):
            assert is_spline(s, space)


class TestBundleRank:
    """`bundle_rank` ranks on E, the elements with at most one H-inversion."""

    @staticmethod
    def full_rank(bundle) -> int:
        return len(pivots(bundle.reshape(len(bundle), -1))[0])

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_restricted_rank_equals_full_rank(self, n, lt):
        for ts in sorted(realizable_tsets(lt, n), key=sorted):
            space = from_tset(ts, n, lt)
            bundles = [generating_set(space), witness_basis(space)]
            if not ts:
                bundles.append(permutohedral_basis(n))
            elif (n, ts) != (3, frozenset({3})):  # where the closed-form bases exist
                bundles += [left_basis(space), right_basis(space)]
            for bundle in bundles:
                dim = dim_degree_one(space)
                assert bundle_rank(bundle, space) == self.full_rank(bundle) == dim

    def test_row_moved_off_e_ranks_lower(self):
        # a row supported only at an element with two H-inversions vanishes on
        # E: the full-width rank keeps it, the restricted rank loses it
        space = from_tset(frozenset({1}), 3, B)
        bundle, dim = witness_basis(space), dim_degree_one(space)
        far = int(np.flatnonzero(_inversion_counts(space) >= 2)[0])
        moved = bundle.copy()
        moved[-1] = 0
        moved[-1, far] = bundle[-1][bundle[-1].any(axis=1)][0]
        assert self.full_rank(moved) == dim
        assert bundle_rank(moved, space) == dim - 1
        assert bundle_rank(bundle, space) == dim


class TestBundleLayout:
    """A bundle is its stacked values: a read-only int8 array (m, N, n); the
    kernel basis, whose scaled values have no bound known in advance, is int64."""

    BUILDERS = {
        "generating_set": generating_set,
        "left_basis": left_basis,
        "right_basis": right_basis,
        "permutohedral_basis": lambda space: permutohedral_basis(space.n),
        "witness_basis": witness_basis,
        "spline_space_basis": spline_space_basis,
    }

    @pytest.mark.parametrize("name", BUILDERS)
    def test_builders_return_stacked_values(self, name):
        space = from_tset(frozenset({1}), 3, B)
        bundle = self.BUILDERS[name](space)
        want = np.int64 if name == "spline_space_basis" else np.int8
        assert isinstance(bundle, np.ndarray) and bundle.dtype == want
        assert bundle.ndim == 3 and bundle.shape[1:] == (group_table(3).size, 3)
        assert not bundle.flags.writeable

    def test_cached_kernel_basis_is_read_only(self):
        space = from_tset(frozenset({3}), 3, C)
        bundle = spline_space_basis(space)
        with pytest.raises(ValueError):
            bundle[0, 0, 0] = 1
        assert spline_space_basis(space) is bundle


class TestExpand:
    def test_basis_member_gives_unit_vector(self):
        wb = witness_basis(from_tset(frozenset({1}), 2, B))
        want = tuple(tuple(int(k == j) for k in range(len(wb))) for j in range(len(wb)))
        assert expand(wb, wb) == want

    def test_zero_expands_to_zero(self):
        pb = permutohedral_basis(2)
        (coeffs,) = expand(stacked([np.zeros((8, 2), dtype=np.int64)]), pb)
        assert not any(coeffs)

    def test_no_targets(self):
        assert expand(np.zeros((0, 8, 2), dtype=np.int8), permutohedral_basis(2)) == ()

    def test_not_in_span_raises(self):
        bundle = witness_basis(from_tset(frozenset({1, 2}), 2, B))
        with pytest.raises(ValueError, match="span"):
            expand(stacked([t_spline(1, 2), f_spline(1, (2,), 2)]), bundle)

    def test_residual_past_int64_runs_on_python_integers(self):
        # a target past int64, as Python integers, expands exactly
        pb = permutohedral_basis(2)
        big = 2**63
        target = pb[3:4].astype(object) * big
        assert expand(target, pb) == (tuple(big * (j == 3) for j in range(len(pb))),)
        off = min(set(range(16)) - set(triangular_pivots(pb)[1].tolist()))
        bad = target.reshape(1, -1).copy()
        bad[0, off] += 1  # off the pivots, so only the residual sees it
        with pytest.raises(ValueError, match="span"):
            expand(bad.reshape(target.shape), pb)

    def test_fig_spline_expansion(self):
        # the hand-built spline is in the paper's frame: so is the basis here
        pb = push_forward(permutohedral_basis(2))
        sigma = fig_spline()
        (coeffs,) = expand(stacked([sigma]), pb)
        # build order: f_1^A for A = {-2}, {-1}, {1}, {2}, then f_2^B for
        # B = {-2,-1}, {-2,1}, {-1,2}, {1,2}
        assert np.array_equal(pb[3], push_forward(f_spline(1, (2,), 2)))
        assert np.array_equal(pb[4], push_forward(f_spline(2, (-2, -1), 2)))
        assert {j: c for j, c in enumerate(coeffs) if c} == {3: -1, 4: -1}
        assert all(c.denominator == 1 for c in coeffs)
        combo = (c.numerator * s for c, s in zip(coeffs, splines_of(pb)))
        assert np.array_equal(sum(combo), sigma)

    def test_coset_sum_expansion(self):
        # the coset-family sum r_1 - r_2 expands with unit coefficients
        pb = permutohedral_basis(2)
        target = r_spline(1, 2) - r_spline(2, 2)
        # the four f_1^A come first in build order, the four f_2^B after them
        assert expand(stacked([target]), pb) == ((1, 1, 1, 1, 0, 0, 0, 0),)


class TestTriangularPivots:
    """The certificate of the bundles that `expand` accepts."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutohedral_block_is_triangular(self, n):
        pb = permutohedral_basis(n)
        rows, cols = triangular_pivots(pb)
        assert sorted(rows.tolist()) == list(range(len(pb)))
        block = pb.reshape(len(pb), -1)[np.ix_(rows, cols)]
        assert not np.tril(block, -1).any() and np.diag(block).all()

    @pytest.mark.parametrize("bad", ["zero", "duplicate"])
    def test_zero_or_duplicated_row_raises(self, bad):
        values = witness_basis(from_tset(frozenset({3}), 3, C))
        triangular_pivots(values)
        extra = 0 if bad == "zero" else values[5]
        with pytest.raises(RankDeficientError, match="no triangular pivot block"):
            triangular_pivots(np.insert(values, 7, extra, axis=0))

    def test_closed_form_bases_are_not_expanded(self):
        lb = left_basis(from_tset(frozenset({1}), 2, B))
        with pytest.raises(RankDeficientError, match="no triangular pivot block"):
            expand(lb[:1], lb)


def witness_cases(space) -> dict[SignedPerm, tuple]:
    """The tag of every element of the closed-form descent sets."""
    n, ts = space.n, t_set(space)
    return {w: tag for i in range(1, n + 1) for w, tag in descent_cases(ts, n, i).items()}


def witness_spline(tag, n) -> np.ndarray:
    """The spline a `descent_cases` tag names, as int64 sums of its members
    (N, n): the reference for the rows of `witness_basis`."""
    build = {
        "rt": lambda k: rt_sum(k, n),
        "try": lambda j, i: i64(t_spline(j, n)) - r_spline(i, n) - y_spline(i - 1, j, n),
        "y": lambda i, k: i64(y_spline(i, k, n)),
        "f": lambda i, a: i64(f_spline(i, a, n)),
        "g": lambda k: i64(g_spline(k, n)),
        "phi": lambda b: i64(phi_spline(b, n)),
        "h": lambda: sum((i64(g_spline(k, n)) for k in range(1, n + 1)), i64(h_spline(n))),
    }
    return build[tag[0]](*tag[1:])


def witness_order(space) -> list[SignedPerm]:
    """The keys of `descent_cases` sorted by (length, table index): the order
    of the rows of `witness_basis` after t_1..t_n."""
    table = group_table(space.n)
    return sorted(witness_cases(space), key=lambda w: (length(w), table.index_of(w)))


class TestSupportMinimalWitnesses:
    @pytest.mark.parametrize("space", REALIZABLE_CELLS, ids=cell_id)
    def test_witness_basis_build_order(self, space):
        n = space.n
        cases = witness_cases(space)
        want = [t_spline(i, n) for i in range(1, n + 1)]
        want += [witness_spline(cases[w], n) for w in witness_order(space)]
        assert np.array_equal(witness_basis(space), stacked(want))

    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witnesses(self, lt, n):
        for space in enumerate_hessenberg(lt, n):
            cases = witness_cases(space)
            ts = t_set(space)
            for i in range(1, n + 1):
                alpha = simple_root(i, lt, n)
                for w in h_descent_formula(ts, n, i):
                    rho = push_forward(witness_spline(cases[w], n))
                    assert is_spline(rho, space)
                    assert shortest_support(rho) == {w}
                    idx = group_table(n).index_of(w)
                    lab = scatter_label_matrix(n, alpha)[idx]
                    assert outer_rows_proportional(rho[idx][None], lab[None]).all()
                    assert descent_set(w) == {i}


class TestParityWitness:
    """The ("h",) witness is the integer spline h + g_1 + ... + g_n."""

    CELLS = [
        space
        for space in REALIZABLE_CELLS
        if any(
            tag == ("h",)
            for i in range(1, space.n + 1)
            for tag in descent_cases(t_set(space), space.n, i).values()
        )
    ]

    def test_some_type_c_cells_use_it(self):
        assert self.CELLS and all(space.lie_type == C for space in self.CELLS)

    @pytest.mark.parametrize("space", CELLS, ids=cell_id)
    def test_witness_row(self, space):
        n = space.n
        w = SignedPerm.from_word([n, n - 1], n)
        assert descent_cases(t_set(space), n, n - 1)[w] == ("h",)
        row = witness_basis(space)[n + witness_order(space).index(w)]
        assert np.array_equal(row, witness_spline(("h",), n))
        assert np.abs(row).max() == 1


class TestDegreeZero:
    @pytest.mark.parametrize("lt", [B, C])
    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_splines_are_multiples_of_one(self, lt, n):
        # the edge graph is connected, so a degree-zero spline is constant
        table = group_table(n)
        for space in enumerate_hessenberg(lt, n):
            parent = list(range(table.size))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for root in space.roots:
                s = root_to_reflection(root)
                for idx, el in enumerate(elements(table)):
                    a, b = find(idx), find(table.index_of(el * s))
                    if a != b:
                        parent[a] = b
            assert len({find(i) for i in range(table.size)}) == 1
