"""
Signed permutations and the hyperoctahedral group W_n.

A signed permutation is a bijection w of {1,...,n,-n,...,-1} with
w(-i) = -w(i); it is stored by its window (w(1),...,w(n)).  W_n is a
Coxeter group on generators s_1,...,s_n where s_i (i < n) swaps the
entries in positions i, i+1 of the window and s_n negates the last
entry (acting on the right).  Its cardinality is 2^n * n!.

Throughout the package the set {±1,...,±n} is totally ordered by
-n < -(n-1) < ... < -1 < 1 < ... < n, skipping 0; lexicographic
orderings of windows and of unbalanced sets (`unbalanced_sets`, the sets
with no pair {a, -a}) use this order.

Whole-group work runs on `GroupTable.windows_array`, the read-only int8
(N, n) array of all windows in table order.  Reading each entry's
order_key as a digit in base 2n gives every window a code; the codes
increase strictly along the table, so `GroupTable.indices_of` maps stacked
windows to table indices by binary search and raises on anything that is
not a window.  `compose`, `invert` and `signed_columns` multiply, invert
and apply (to coefficient rows) stacked windows, and the table's `lengths`
and `descents` (bitmasks) are int8 too, each computed by one vectorised
formula.  Comparisons, gathers and signs of
window entries stay in int8; arithmetic whose result can leave int8
(codes, bit masks of entries) widens first.
Conjugacy classes come from the window array too: one pass follows the
cycles of |w| position by position, and `SignedPerm` is built once per
class, for its representative.  `SignedPerm` stays the per-element type
for input, output and tests; it is immutable, so cached tuples of them
are safe to share.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import MAX_ENUM_RANK

Partition = tuple[int, ...]


def order_key(k: int, n: int) -> int:
    """Rank of k in the total order -n < ... < -1 < 1 < ... < n."""
    return k + n if k < 0 else k + n - 1


def unbalanced_sets(i: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All unbalanced subsets of {±1,...,±n} of size i, in lexicographic order.

    Sets are returned as tuples sorted by the global order
    -n < ... < -1 < 1 < ... < n, and the enumeration is lexicographic on
    those tuples; there are 2^i * binomial(n, i) of them.
    """
    def key(k):
        return order_key(k, n)

    out = [
        tuple(sorted((s * a for a, s in zip(support, signs)), key=key))
        for support in itertools.combinations(range(1, n + 1), i)
        for signs in itertools.product((1, -1), repeat=i)
    ]
    return tuple(sorted(out, key=lambda t: tuple(map(key, t))))


class SignedPerm:
    """A signed permutation of {±1,...,±n}, stored as its window."""

    __slots__ = ("n", "window")

    def __init__(self, window):
        window = tuple(map(int, window))
        n = len(window)
        if sorted(map(abs, window)) != list(range(1, n + 1)):
            raise ValueError(f"not a signed permutation window: {window}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "window", window)

    def __setattr__(self, name, value):
        raise AttributeError("SignedPerm is immutable")

    def __delattr__(self, name):
        raise AttributeError("SignedPerm is immutable")

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(range(1, n + 1))

    @classmethod
    def simple(cls, i: int, n: int) -> "SignedPerm":
        """The generator s_i: swap positions i, i+1 for i < n; negate w(n) for i = n."""
        return cls.from_word((i,), n)

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
        """Product s_{word[0]} s_{word[1]} ... as an element of W_n.

        Each letter acts on the window from the right: s_i (i < n) swaps
        positions i and i+1, s_n negates the last entry.
        """
        w = list(range(1, n + 1))
        for i in word:
            if not 1 <= i <= n:
                raise ValueError(f"simple generator index {i} out of range [1,{n}]")
            if i < n:
                w[i - 1], w[i] = w[i], w[i - 1]
            else:
                w[n - 1] = -w[n - 1]
        return cls(w)

    def __call__(self, k: int) -> int:
        """Apply to k in {±1,...,±n}."""
        if k == 0 or abs(k) > self.n:
            raise ValueError(f"argument {k} out of range for W_{self.n}")
        return self.window[k - 1] if k > 0 else -self.window[-k - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        """Composition (u*w)(k) = u(w(k)); the right factor acts first."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        w = self.window
        return SignedPerm([w[x - 1] if x > 0 else -w[-x - 1] for x in other.window])

    def inverse(self) -> "SignedPerm":
        w = [0] * self.n
        for i, x in enumerate(self.window, start=1):
            if x > 0:
                w[x - 1] = i
            else:
                w[-x - 1] = -i
        return SignedPerm(w)

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

    @classmethod
    def from_string(cls, s: str) -> "SignedPerm":
        try:
            window = [int(p) for p in s.split(",")]
        except ValueError:
            raise ValueError(f"malformed window {s!r}; expected e.g. \"-2,1,3\"") from None
        return cls(window)

    def __eq__(self, other):
        return isinstance(other, SignedPerm) and self.window == other.window

    def __hash__(self):
        return hash(self.window)

    def __repr__(self):
        return f"SignedPerm({list(self.window)})"


def _window_lengths(windows) -> np.ndarray:
    """Coxeter lengths of stacked windows, shape (N, n) -> int8 (N,).

    Counts the type-B positive roots sent to negative roots: e_i for each
    negative entry w(i); for each pair i < j, both e_i - e_j and e_i + e_j
    when |w(i)| < |w(j)| and w(i) < 0, and exactly one of them when
    |w(i)| > |w(j)|.  The count is the same for the type C root data; it is
    at most n^2, so int8 holds it, and every temporary is one (N,) row.
    """
    win = np.asarray(windows, dtype=np.int8).T  # row k: w(k)
    neg, mag = (win < 0).view(np.int8), np.abs(win)
    total = neg.sum(axis=0, dtype=np.int8)
    for i, j in itertools.combinations(range(len(win)), 2):
        total += np.where(mag[i] < mag[j], 2 * neg[i], 1)
    return total


def _window_descents(windows) -> np.ndarray:
    """Descent sets of stacked windows as int8 bitmasks: bit i-1 is set iff i
    is a descent (n <= 7 bits).

    i < n is a descent iff w(e_i - e_{i+1}) is a negative vector, n iff w(n) < 0.
    """
    win = np.asarray(windows, dtype=np.int8).T  # row k: w(k)
    out = (win[-1] < 0).view(np.int8) << len(win) - 1
    for k, (a, b) in enumerate(zip(win[:-1], win[1:])):
        out |= np.where(np.abs(a) < np.abs(b), a < 0, b > 0).view(np.int8) << k
    return out


def _window_codes(windows, n: int) -> np.ndarray:
    """Base-2n numbers whose digits are the order_key of each window entry.

    They increase strictly with the lexicographic order on windows.  The whole
    array is checked and turned into int8 digits at once; the (N,) codes are
    the only int64 temporary.
    """
    windows = np.asarray(windows)
    if windows.ndim != 2 or windows.shape[1] != n:
        raise ValueError(f"need windows of shape (N, {n}), got {windows.shape}")
    if not np.all((windows != 0) & (windows >= -n) & (windows <= n)):
        raise ValueError(f"window entries out of range for W_{n}")
    digits = windows.astype(np.int8) + n  # -n..-1 -> 0..n-1 and 1..n -> n+1..2n
    digits -= digits > n
    codes = np.zeros(len(digits), dtype=np.int64)
    for col in digits.T:
        codes *= 2 * n
        codes += col
    return codes


def compose(a, b) -> np.ndarray:
    """Stacked products: row k is the window of a[k] * b[k].

    a and b are integer arrays of shape (N, n); a first axis of length 1
    broadcasts against the other.  Since (u*w)(k) = u(w(k)), the product's
    window is sign(w(k)) * u(|w(k)|) entrywise: for a single right factor,
    column k is column |w(k)| of a times sign(w(k)), one gather of columns.
    """
    a, b = np.asarray(a), np.asarray(b)
    if len(b) == 1:
        return np.sign(b) * a[..., np.abs(b[0]) - 1]
    return np.sign(b) * np.take_along_axis(a, np.abs(b) - 1, axis=-1)


def invert(a) -> np.ndarray:
    """Stacked inverses: row k is the window of a[k]^{-1}."""
    a = np.asarray(a)
    out = np.empty_like(a)
    pos = np.arange(1, a.shape[-1] + 1, dtype=a.dtype)
    np.put_along_axis(out, np.abs(a) - 1, np.sign(a) * pos, axis=-1)
    return out


def signed_columns(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(col, sign) with (w p)[r] = sign[r] * p[col[r]] for a coefficient row p,
    for each window w of the stack (..., n): w sends x_i to sign(w(i)) x_{|w(i)|},
    so col[r] is the i with |w(i)| = r + 1.  The signs are int8, so they keep
    a signed integer dtype when multiplied."""
    col = np.argsort(np.abs(windows), axis=-1)
    return col, np.sign(np.take_along_axis(windows, col, axis=-1)).astype(np.int8)


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


class GroupTable:
    """All of W_n in lexicographic window order, with cached per-element data.

    Immutable after construction; safe to share.  The ordering is
    lexicographic on windows under -n < ... < -1 < 1 < ... < n.  The
    windows, lengths and descent masks are read-only int8 arrays: entries
    are at most n, lengths at most n^2 and masks n bits.
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_ENUM_RANK:
            raise ValueError(f"group enumeration supports 1 <= n <= {MAX_ENUM_RANK}")
        self.n = n
        perms = np.array(list(itertools.permutations(range(1, n + 1))), dtype=np.int8)
        signs = np.array(list(itertools.product((-1, 1), repeat=n)), dtype=np.int8)
        arr = (perms[:, None, :] * signs[None, :, :]).reshape(-1, n)
        codes = _window_codes(arr, n)
        order = np.argsort(codes)
        arr, codes = arr[order], codes[order]
        for a in (arr, codes):
            a.setflags(write=False)
        self.windows_array: np.ndarray = arr
        self._codes = codes
        self.size = len(arr)

    @cached_property
    def lengths(self) -> np.ndarray:
        arr = _window_lengths(self.windows_array)
        arr.setflags(write=False)
        return arr

    @cached_property
    def descents(self) -> np.ndarray:
        """Descent sets as bitmasks: bit i-1 of descents[k] is set iff i is a descent."""
        arr = _window_descents(self.windows_array)
        arr.setflags(write=False)
        return arr

    def indices_of(self, windows) -> np.ndarray:
        """Table indices of stacked windows, shape (N, n) -> (N,).

        The codes of the table's windows increase strictly along the table
        order, so each query is found by binary search; a query that is not
        a window of W_n raises ValueError.
        """
        query = _window_codes(windows, self.n)
        idx = np.minimum(np.searchsorted(self._codes, query), self.size - 1)
        missing = np.flatnonzero(self._codes[idx] != query)
        if missing.size:
            bad = tuple(np.asarray(windows)[missing[0]].tolist())
            raise ValueError(f"not a signed permutation window: {bad}")
        return idx

    def index_of(self, w: SignedPerm) -> int:
        return int(self.indices_of([w.window])[0])

    def right_mult_indices(self, s: SignedPerm) -> np.ndarray:
        """Array r with r[i] = index of elements[i] * s (a gather of int8 columns)."""
        return self.indices_of(compose(self.windows_array, np.array([s.window], dtype=np.int8)))

    def left_mult_indices(self, g: SignedPerm) -> np.ndarray:
        """Array r with r[i] = index of g * elements[i]."""
        return self.indices_of(compose(np.array([g.window], dtype=np.int8), self.windows_array))


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
    """Classes from one pass over the window array.

    For each position p, follow |w| from p until it returns (at most n
    steps): the step count is the length of p's cycle, and the parity of
    the negative entries met on the way is the cycle's sign.  A cycle of
    length l is met from each of its l positions, so the number of
    positions in each (length, sign) slot fixes the signed cycle type.
    That number is at most n, so one base-(n+1) digit per slot encodes
    each element's type in an int64 code ((n+1)^(2n) < 2^63 for n <= 6).
    The first table index with a given code is the lexicographically
    least member of its class, and the code's count is the class size.
    """
    table = group_table(n)
    win = table.windows_array
    nxt = (np.abs(win) - 1).ravel()  # |w(p)| - 1, flattened row by row
    neg = (win < 0).ravel()
    base = np.arange(table.size) * n
    digit = (n + 1) ** np.arange(2 * n, dtype=np.int64)  # slot 2(l-1) + sign
    codes = np.zeros(table.size, dtype=np.int64)
    for p in range(n):
        cur = np.full(table.size, p, dtype=np.int8)
        odd = np.zeros(table.size, dtype=bool)
        slot = np.full(table.size, -1, dtype=np.int8)
        for step in range(1, n + 1):
            flat = base + cur
            odd ^= neg[flat]
            cur = nxt[flat]
            back = (cur == p) & (slot < 0)
            slot[back] = 2 * (step - 1) + odd[back]
        codes += digit[slot]
    _, first, sizes = np.unique(codes, return_index=True, return_counts=True)
    out = []
    for k, size in zip(first.tolist(), sizes.tolist()):
        rep = SignedPerm(table.windows_array[k].tolist())
        out.append(ConjClass(*rep.signed_cycle_type(), rep, size))
    out.sort(key=lambda c: (c.lam, c.mu))
    return tuple(out)


@lru_cache(maxsize=None)
def min_coset_reps(n: int, i: int) -> tuple[SignedPerm, ...]:
    """Shortest representatives of cosets of S_i x W_{n-i} in W_n.

    w is a minimal representative iff length(w * s_j) > length(w) for all
    j != i; there are 2^i * binomial(n, i) of them, in table order.  The
    result is cached and shared: a tuple of immutable elements.
    """
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range [1,{n}]")
    table = group_table(n)
    keep = np.flatnonzero((table.descents & ~(1 << (i - 1))) == 0)
    return tuple(SignedPerm(w) for w in table.windows_array[keep].tolist())
