"""Exact-arithmetic degree-one splines on the signed permutation groups.

The group W_n of signed permutations is the Weyl group of the type B and
type C root systems.  Given a lower order ideal H of positive roots
containing the simple roots, the degree-one splines on W_n form a finite
dimensional vector space carrying a W_n-action; this package computes that
space, the characters of its two natural quotients, and their expansions
in two-variable symmetric functions — everything in exact rational
arithmetic, with closed-form results cross-checked against brute-force
scans.
"""

from .group import (
    GroupTable,
    SignedPerm,
    conjugacy_classes,
    descent_set,
    group_table,
    length,
    min_coset_reps,
)
from .roots import (
    LieType,
    Root,
    act,
    is_positive,
    parse_root,
    poset_leq,
    positive_roots,
    root_to_reflection,
    simple_roots,
)
from .hessenberg import (
    HessenbergSpace,
    IndexClassification,
    classify,
    dim_degree_one,
    enumerate_hessenberg,
    h_descent_formula,
    h_descent_indices,
    on_divergent_branch,
    published_descent_formula,
    realize_tset,
    t_set,
)
from .splines import (
    Spline,
    edges_ok,
    expand,
    f_spline,
    g_spline,
    generating_set,
    h_spline,
    is_spline,
    left_basis,
    permutohedral_basis,
    phi_spline,
    r_spline,
    right_basis,
    spline_space_basis,
    t_spline,
    y_spline,
)
from .characters import (
    CharacterExpression,
    ClassFunction,
    computed_char,
    dot_action,
    formula_char,
    named_char,
    published_formula_char,
)
from .symfunc import (
    BCSymFunc,
    frobenius_bc,
    h_positivity,
    h_to_s,
    kostka,
    p_to_h,
    partitions,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
