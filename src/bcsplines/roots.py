"""
Type B and C root systems for the signed permutation group.

Positive roots (n^2 of them in either type):

    B:  e_i - e_j, e_i + e_j (i < j), and e_i (i in [n])
    C:  e_i - e_j, e_i + e_j (i < j), and 2e_i (i in [n])

with simple roots alpha_i = e_i - e_{i+1} for i < n and alpha_n = e_n
(type B) or 2e_n (type C).  A root is stored by its coordinate vector
[c_1 ... c_n] in the simple-root basis; the root poset is coordinatewise
comparison in those coordinates.  Positive roots correspond to the
transpositions of W_n:

    e_i - e_j <-> (i, j)     e_i + e_j <-> (i, -j)     e_i, 2e_i <-> (i, -i).

Per-root arithmetic on tuples, with no numpy; stored labels are roots (see `splines`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

from . import LieType
from .group import SignedPerm

EVector = tuple[int, ...]


@dataclass(frozen=True, order=True)
class Root:
    """A root in simple-root coordinates, tagged with its Lie type."""

    coords: tuple[int, ...]
    lie_type: LieType

    @property
    def n(self) -> int:
        return len(self.coords)

    def evector(self) -> EVector:
        basis = simple_root_evectors(self.lie_type, self.n)
        vec = [0] * self.n
        for c, alpha in zip(self.coords, basis):
            for k in range(self.n):
                vec[k] += c * alpha[k]
        return tuple(vec)

    def __str__(self):
        return "[" + "".join(str(c) for c in self.coords) + "]"


@lru_cache(maxsize=None)
def simple_root_evectors(lie_type: LieType, n: int) -> tuple[EVector, ...]:
    basis = []
    for i in range(1, n):
        vec = [0] * n
        vec[i - 1], vec[i] = 1, -1
        basis.append(tuple(vec))
    last = [0] * n
    last[n - 1] = 1 if lie_type is LieType.B else 2
    basis.append(tuple(last))
    return tuple(basis)


def simple_root(i: int, lie_type: LieType, n: int) -> Root:
    if not 1 <= i <= n:
        raise ValueError(f"simple root index {i} out of range")
    coords = [0] * n
    coords[i - 1] = 1
    return Root(tuple(coords), lie_type)


def root_from_evector(vec: EVector, lie_type: LieType) -> Root:
    """Convert an e-basis vector to simple-root coordinates (must be integral)."""
    n = len(vec)
    coords = [0] * n
    rem = list(vec)
    # alpha_i = e_i - e_{i+1} is triangular; peel off coordinates left to right
    for i in range(n - 1):
        coords[i] = rem[i]
        rem[i + 1] += rem[i]
        rem[i] = 0
    last = 1 if lie_type is LieType.B else 2
    if rem[n - 1] % last != 0:
        raise ValueError(f"{vec} is not in the type {lie_type} root lattice")
    coords[n - 1] = rem[n - 1] // last
    return Root(tuple(coords), lie_type)


@lru_cache(maxsize=None)
def positive_roots(lie_type: LieType, n: int) -> tuple[Root, ...]:
    """All n^2 positive roots, sorted by simple-root coordinates."""
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            for sign in (-1, 1):
                vec = [0] * n
                vec[i], vec[j] = 1, sign
                vecs.append(tuple(vec))
        vec = [0] * n
        vec[i] = 1 if lie_type is LieType.B else 2
        vecs.append(tuple(vec))
    roots = [root_from_evector(v, lie_type) for v in vecs]
    roots.sort()
    return tuple(roots)


def simple_roots(lie_type: LieType, n: int) -> tuple[Root, ...]:
    return tuple(simple_root(i, lie_type, n) for i in range(1, n + 1))


def act(w: SignedPerm, root_or_vec) -> EVector:
    """Image of a root under w in the e-basis: w . e_i = sign(w(i)) e_{|w(i)|}."""
    vec = root_or_vec.evector() if isinstance(root_or_vec, Root) else root_or_vec
    out = [0] * len(vec)
    for i, c in enumerate(vec, start=1):
        if c:
            img = w(i)
            out[abs(img) - 1] += c if img > 0 else -c
    return tuple(out)


def is_positive(vec: EVector) -> bool:
    """Sign of ± a root: true iff the first nonzero entry is positive."""
    for c in vec:
        if c:
            return c > 0
    raise ValueError("zero vector has no sign")


def poset_leq(a: Root, b: Root) -> bool:
    """Root poset order: a <= b iff b - a has nonnegative simple coordinates."""
    if a.lie_type is not b.lie_type or len(a.coords) != len(b.coords):
        raise ValueError("incomparable roots: type or rank mismatch")
    return all(map(operator.le, a.coords, b.coords))


def root_to_reflection(root: Root) -> SignedPerm:
    """The transposition s_alpha for a positive root alpha."""
    vec = root.evector()
    if not is_positive(vec):
        raise ValueError(f"{root} is not a positive root")
    support = [k + 1 for k, c in enumerate(vec) if c]
    if len(support) == 1:
        i = support[0]
        return SignedPerm.transposition(i, -i, root.n)
    i, j = support
    if vec[j - 1] > 0:
        j = -j
    return SignedPerm.transposition(i, j, root.n)


def parse_root(s: str, lie_type: LieType) -> Root:
    body = s.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed root string {s!r}; expected e.g. \"[122]\"")
    digits = body[1:-1]
    if not digits.isdigit():
        raise ValueError(f"malformed root string {s!r}")
    return Root(tuple(int(ch) for ch in digits), lie_type)
