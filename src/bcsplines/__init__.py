"""Exact-arithmetic degree-one splines on the signed permutation groups.

The group W_n of signed permutations is the Weyl group of the type B and
type C root systems.  Given a lower order ideal H of positive roots
containing the simple roots, the degree-one splines on W_n form a finite
dimensional vector space carrying a W_n-action; this package computes that
space, the characters of its two natural quotients, and their expansions
in two-variable symmetric functions, with closed-form results cross-checked
against brute-force scans.  Spline values are integers and every
certificate is modular; the Frobenius image of a virtual character has
integer coefficients, found by one exact division.

This module holds what the command-line parser reads: the Lie type and the
two rank limits.  It imports no arithmetic module (numpy loads with
`group`), so parsing and checking a command line stay cheap; `roots` and
`group` import these names from here.
"""

import enum

__version__ = "0.1.0"

MAX_ENUM_RANK = 6  # W_6 has 46080 elements, the practical limit for full scans
MAX_FULL_RANK = 5  # the limit for --level full: traces and bases of every space


class LieType(enum.Enum):
    B = "B"
    C = "C"

    def __str__(self):
        return self.value
