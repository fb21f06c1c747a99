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
"""

__version__ = "0.1.0"
