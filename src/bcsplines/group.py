"""
Signed permutations and the hyperoctahedral group W_n.

A signed permutation is a bijection w of {1,...,n,-n,...,-1} with
w(-i) = -w(i); it is stored by its window (w(1),...,w(n)).  W_n is a
Coxeter group on generators s_1,...,s_n where s_i (i < n) swaps the
entries in positions i, i+1 of the window and s_n negates the last
entry (acting on the right).  Its cardinality is 2^n * n!.

Throughout the package the set {±1,...,±n} is totally ordered by
-n < -(n-1) < ... < -1 < 1 < ... < n, skipping 0; lexicographic
orderings of windows and of unbalanced sets use this order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Window = tuple[int, ...]
Partition = tuple[int, ...]

MAX_ENUM_RANK = 6  # W_6 has 46080 elements, the practical limit for full scans


def order_key(k: int, n: int) -> int:
    """Rank of k in the total order -n < ... < -1 < 1 < ... < n."""
    return k + n if k < 0 else k + n - 1


def successor(k: int, n: int) -> int:
    """Next element after k in the total order on {±1,...,±n}, skipping 0."""
    if k == n:
        raise ValueError("n has no successor")
    return k + 1 if k + 1 != 0 else 1


class SignedPerm:
    """A signed permutation of {±1,...,±n}, stored as its window."""

    __slots__ = ("n", "window")

    def __init__(self, window):
        window = tuple(int(x) for x in window)
        n = len(window)
        if sorted(abs(x) for x in window) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation window: {window}")
        self.n = n
        self.window = window

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, i: int, n: int) -> "SignedPerm":
        """The generator s_i: swap positions i, i+1 for i < n; negate w(n) for i = n."""
        if not 1 <= i <= n:
            raise ValueError(f"simple generator index {i} out of range [1,{n}]")
        w = list(range(1, n + 1))
        if i < n:
            w[i - 1], w[i] = w[i], w[i - 1]
        else:
            w[n - 1] = -n
        return cls(w)

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "SignedPerm":
        """The transposition swapping i <-> j and -i <-> -j (i = -j allowed)."""
        if i == 0 or j == 0 or abs(i) > n or abs(j) > n:
            raise ValueError(f"transposition entries out of range: ({i},{j})")
        if abs(i) == abs(j) and i != -j:
            raise ValueError(f"invalid transposition ({i},{j})")
        w = list(range(1, n + 1))

        def assign(a, b):
            if a > 0:
                w[a - 1] = b
            else:
                w[-a - 1] = -b

        assign(i, j)
        assign(j, i)
        return cls(w)

    @classmethod
    def from_word(cls, word, n: int) -> "SignedPerm":
        """Product s_{word[0]} s_{word[1]} ... as an element of W_n."""
        w = cls.identity(n)
        for i in word:
            w = w * cls.simple(i, n)
        return w

    def __call__(self, k: int) -> int:
        """Apply to k in {±1,...,±n}."""
        if k == 0 or abs(k) > self.n:
            raise ValueError(f"argument {k} out of range for W_{self.n}")
        return self.window[k - 1] if k > 0 else -self.window[-k - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition (u*w)(k) = u(w(k)); the right factor acts first."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return SignedPerm(tuple(self(x) for x in other.window))

    def inverse(self) -> "SignedPerm":
        w = [0] * self.n
        for i, x in enumerate(self.window, start=1):
            if x > 0:
                w[x - 1] = i
            else:
                w[-x - 1] = -i
        return SignedPerm(w)

    def image(self, ks) -> frozenset:
        """Image of a set of signed integers."""
        return frozenset(self(k) for k in ks)

    def neg_set(self) -> frozenset:
        """The negative window entries {w(i) : i in [n], w(i) < 0}."""
        return frozenset(x for x in self.window if x < 0)

    def signed_cycle_type(self) -> tuple[Partition, Partition]:
        """Pair (lambda, mu) of partitions: lengths of positive / negative cycles.

        A cycle of |w| on [n] is negative iff the product of the signs of the
        window entries along it is -1.
        """
        seen = [False] * self.n
        pos, neg = [], []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            length, sign, k = 0, 1, start
            while not seen[k - 1]:
                seen[k - 1] = True
                length += 1
                img = self.window[k - 1]
                if img < 0:
                    sign = -sign
                k = abs(img)
            (pos if sign == 1 else neg).append(length)
        pos.sort(reverse=True)
        neg.sort(reverse=True)
        return tuple(pos), tuple(neg)

    def to_string(self) -> str:
        return ",".join(str(x) for x in self.window)

    @classmethod
    def from_string(cls, s: str) -> "SignedPerm":
        return cls(int(p) for p in s.split(","))

    def sort_key(self) -> tuple[int, ...]:
        return tuple(order_key(x, self.n) for x in self.window)

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"SignedPerm({list(self.window)})"


def _length_from_window(window: Window) -> int:
    """Number of type-B positive roots sent to negative roots.

    Counts sign flips among e_i (i in [n]), e_i - e_j and e_i + e_j (i < j);
    the count is the same for the type C root data.  A vector
    a*e_p + b*e_q (p < q) is negative iff its first nonzero coordinate is.
    """
    n = len(window)
    total = sum(1 for x in window if x < 0)
    for i in range(n):
        wi = window[i]
        for j in range(i + 1, n):
            wj = window[j]
            # w(e_i - e_j)
            if abs(wi) < abs(wj):
                if wi < 0:
                    total += 1
            elif wj > 0:
                total += 1
            # w(e_i + e_j)
            if abs(wi) < abs(wj):
                if wi < 0:
                    total += 1
            elif wj < 0:
                total += 1
    return total


def length(w: SignedPerm) -> int:
    """Coxeter length of w over s_1,...,s_n."""
    return _length_from_window(w.window)


def descent_set(w: SignedPerm) -> frozenset[int]:
    """{i : length(w * s_i) < length(w)}."""
    n = w.n
    out = []
    for i in range(1, n):
        a, b = w.window[i - 1], w.window[i]
        # descent iff w(e_i - e_{i+1}) is a negative vector
        if (abs(a) < abs(b) and a < 0) or (abs(a) > abs(b) and b > 0):
            out.append(i)
    if w.window[n - 1] < 0:
        out.append(n)
    return frozenset(out)


@dataclass(frozen=True)
class ConjClass:
    """A conjugacy class of W_n, labelled by its signed cycle type."""

    lam: Partition
    mu: Partition
    rep: SignedPerm
    size: int

    def key_str(self) -> str:
        return cycle_type_str(self.lam, self.mu)


def cycle_type_str(lam: Partition, mu: Partition) -> str:
    """Serialize a signed cycle type as "lambda|mu", e.g. "2|1"."""
    return ",".join(map(str, lam)) + "|" + ",".join(map(str, mu))


def parse_cycle_type(s: str) -> tuple[Partition, Partition]:
    left, _, right = s.partition("|")
    lam = tuple(int(p) for p in left.split(",") if p)
    mu = tuple(int(p) for p in right.split(",") if p)
    return lam, mu


class GroupTable:
    """All of W_n in lexicographic window order, with cached per-element data.

    Immutable after construction; safe to share.  The ordering is
    lexicographic on windows under -n < ... < -1 < 1 < ... < n.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_ENUM_RANK:
            raise ValueError(f"group enumeration supports 1 <= n <= {MAX_ENUM_RANK}")
        self.n = n
        windows = []
        for perm in itertools.permutations(range(1, n + 1)):
            for signs in itertools.product((-1, 1), repeat=n):
                windows.append(tuple(s * p for s, p in zip(signs, perm)))
        windows.sort(key=lambda win: tuple(order_key(x, n) for x in win))
        self.windows: tuple[Window, ...] = tuple(windows)
        self.index: dict[Window, int] = {win: i for i, win in enumerate(windows)}
        self.size = len(windows)
        self._elements = None
        self._lengths = None
        self._descents = None
        self._windows_array = None

    @property
    def elements(self) -> tuple[SignedPerm, ...]:
        if self._elements is None:
            self._elements = tuple(SignedPerm(w) for w in self.windows)
        return self._elements

    @property
    def windows_array(self) -> np.ndarray:
        if self._windows_array is None:
            arr = np.array(self.windows, dtype=np.int64)
            arr.setflags(write=False)
            self._windows_array = arr
        return self._windows_array

    @property
    def lengths(self) -> np.ndarray:
        if self._lengths is None:
            arr = np.array([_length_from_window(w) for w in self.windows], dtype=np.int64)
            arr.setflags(write=False)
            self._lengths = arr
        return self._lengths

    @property
    def descents(self) -> tuple[frozenset[int], ...]:
        if self._descents is None:
            self._descents = tuple(descent_set(el) for el in self.elements)
        return self._descents

    def index_of(self, w: SignedPerm) -> int:
        return self.index[w.window]

    def right_mult_indices(self, s: SignedPerm) -> np.ndarray:
        """Array r with r[i] = index of elements[i] * s."""
        cols = np.empty(self.n, dtype=np.int64)
        signs = np.empty(self.n, dtype=np.int64)
        for pos, val in enumerate(s.window):
            cols[pos] = abs(val) - 1
            signs[pos] = 1 if val > 0 else -1
        imgs = self.windows_array[:, cols] * signs
        return np.array([self.index[tuple(row)] for row in imgs.tolist()], dtype=np.int64)

    def left_mult_indices(self, g: SignedPerm) -> np.ndarray:
        """Array r with r[i] = index of g * elements[i]."""
        n = self.n
        lookup = np.zeros(2 * n + 1, dtype=np.int64)
        for k in range(1, n + 1):
            lookup[k + n] = g(k)
            lookup[-k + n] = -g(k)
        imgs = lookup[self.windows_array + n]
        return np.array([self.index[tuple(row)] for row in imgs.tolist()], dtype=np.int64)


@lru_cache(maxsize=None)
def group_table(n: int) -> GroupTable:
    return GroupTable(n)


def conjugacy_classes(n: int) -> tuple[ConjClass, ...]:
    """One class per signed cycle type (lambda, mu) with |lambda|+|mu| = n.

    Classes are sorted by (lambda, mu); the representative is the element
    whose window is lexicographically least in the class.  Sizes come from
    a full scan of the group table.
    """
    return _conjugacy_classes_cached(n)


@lru_cache(maxsize=None)
def _conjugacy_classes_cached(n: int) -> tuple[ConjClass, ...]:
    table = group_table(n)
    buckets: dict[tuple[Partition, Partition], list[int]] = {}
    for idx, el in enumerate(table.elements):
        buckets.setdefault(el.signed_cycle_type(), []).append(idx)
    out = []
    for (lam, mu), idxs in sorted(buckets.items()):
        out.append(ConjClass(lam, mu, table.elements[min(idxs)], len(idxs)))
    return tuple(out)


def class_size_formula(lam: Partition, mu: Partition) -> int:
    """Closed-form class size 2^n n! / (z_lam 2^l(lam) z_mu 2^l(mu)).

    Cross-check only; the scan-based sizes are authoritative.
    """
    n = sum(lam) + sum(mu)

    def z(p: Partition) -> int:
        out = 1
        for part in set(p):
            m = p.count(part)
            out *= part**m * _factorial(m)
        return out

    order = 2**n * _factorial(n)
    return order // (z(lam) * 2 ** len(lam) * z(mu) * 2 ** len(mu))


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def min_coset_reps(n: int, i: int) -> tuple[SignedPerm, ...]:
    """Shortest representatives of cosets of S_i x W_{n-i} in W_n.

    w is a minimal representative iff length(w * s_j) > length(w) for all
    j != i; there are 2^i * binomial(n, i) of them.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range [1,{n}]")
    table = group_table(n)
    return tuple(
        el for el, des in zip(table.elements, table.descents) if des <= {i}
    )


def in_young_subgroup(w: SignedPerm, i: int) -> bool:
    """Membership in S_i x W_{n-i}: w permutes [i] positively among itself."""
    return all(w(k) in range(1, i + 1) for k in range(1, i + 1))
