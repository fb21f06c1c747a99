"""
Command-line front end.

Subcommands:

    table        one row per t-subset at rank n: left/right characters, dim
    char         characters and symmetric-function expansions for one space
    verify       run the verification suites; failing checks are reported
    dump-spline  print a named family spline in the dump format

Exit codes: 0 success, 1 invalid input, 2 verification failure.

`verify --format json` prints one JSON object per suite (name, ok, detail,
elapsed_s) instead of the PASS/FAIL lines.

The closed forms printed by `table` and `char`, and checked by the
descent-formula and characters suites of `verify`, are the paper's published
case (published_descent_formula, published_formula_char), so the output
shows where it disagrees with the definition: on the divergent branch the
verdicts read NO / FAIL.

Importing this module, building the parser and every check of the command
line (the rank bounds, --type, the --level full limit) load no numpy: the
parser reads `LieType` and the rank limits from the package's `__init__`,
and each command and verification suite imports the modules it runs (numpy,
`group`, `hessenberg`, and the others it needs) when it runs.  So --help and
a usage error cost only the interpreter and argparse.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time

# OpenBLAS starts a busy-waiting worker per core when numpy loads it, but the
# package makes no BLAS call: its matrix products are on integer arrays, which
# numpy computes without BLAS.  A user's own value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import MAX_ENUM_RANK, MAX_FULL_RANK, LieType


def _lie(s: str) -> LieType:
    try:
        return LieType(s.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown type {s!r}; expected B or C")


def _rank(top: int | None = None):
    """argparse type for --n: an integer of at least 2 (and at most top)."""

    def rank(s: str) -> int:
        try:
            n = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"rank must be an integer, got {s!r}") from None
        if n < 2 or (top is not None and n > top):
            bound = f"between 2 and {top}" if top else "at least 2"
            raise argparse.ArgumentTypeError(f"rank must be {bound}, got {n}")
        return n

    return rank


def _in_order(tsets) -> list[frozenset[int]]:
    """t-sets by size, then by their sorted entries: the order of every listing."""
    return sorted(tsets, key=lambda s: (len(s), sorted(s)))


def _all_tsets(n: int) -> list[frozenset[int]]:
    return _in_order(frozenset(i + 1 for i in range(n) if mask >> i & 1) for mask in range(2**n))


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _table_row(tset: frozenset, n: int, space) -> dict:
    """The closed forms of the t-set, verified against the computed
    characters of the space (a HessenbergSpace) when one is given (at
    --level full)."""
    import numpy as np

    from .characters import computed_char, published_formula_char
    from .hessenberg import tset_str

    left = published_formula_char(tset, n, "left")
    right = published_formula_char(tset, n, "right")
    row = {
        "tset": tset_str(tset),
        "left_char": left.canonical_str(),
        "right_char": right.canonical_str(),
        "dim": left.dimension(),
        "verified": "",
    }
    if space is not None:
        ok = np.array_equal(computed_char(space, "left"), left.evaluate()) and np.array_equal(
            computed_char(space, "right"), right.evaluate()
        )
        row["verified"] = "yes" if ok else "NO"
    return row


def cmd_table(args) -> int:
    from .hessenberg import enumerate_hessenberg, realize_tset, t_set

    n, full = args.n, args.level == "full"
    if args.by_ideal:
        rows = []
        for space in enumerate_hessenberg(args.type, n):
            row = _table_row(t_set(space), n, space if full else None)
            row = {"ideal": space.serialize(), **row}
            rows.append(row)
        cols = ["ideal", "tset", "left_char", "right_char", "dim", "verified"]
    else:
        rows = [
            _table_row(ts, n, realize_tset(ts, n, args.type) if full else None)
            for ts in _all_tsets(n)
        ]
        cols = ["tset", "left_char", "right_char", "dim", "verified"]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    elif args.format == "tsv":
        print("\t".join(cols))
        for r in rows:
            print("\t".join(str(r[c]) for c in cols))
    else:
        widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
        print("  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    if full and any(r["verified"] == "NO" for r in rows):
        return 2
    return 0


# ---------------------------------------------------------------------------
# char
# ---------------------------------------------------------------------------


def _parse_space(args) -> tuple:
    """The t-set of the command line and its HessenbergSpace (None above
    MAX_ENUM_RANK, where only the closed forms are computed)."""
    from .hessenberg import HessenbergSpace, parse_tset, realize_tset, t_set

    n = args.n
    if args.tset is not None and args.ideal is not None:
        raise ValueError("give either --tset or --ideal, not both")
    if args.tset is not None:
        tset = parse_tset(args.tset)
        if not tset <= set(range(1, n + 1)):
            raise ValueError(f"t-set {args.tset!r} out of range for n={n}")
        space = realize_tset(tset, n, args.type) if n <= MAX_ENUM_RANK else None
        return tset, space
    if args.ideal is not None:
        space = HessenbergSpace.parse(args.ideal, args.type, n)
        return t_set(space), space
    raise ValueError("need --tset or --ideal")


def cmd_char(args) -> int:
    import numpy as np

    from .characters import computed_char, published_formula_char
    from .group import SignedPerm, conjugacy_classes, cycle_type_str
    from .hessenberg import tset_str
    from .symfunc import h_basis, h_positivity, h_to_s, pretty

    try:
        tset, space = _parse_space(args)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1
    n = args.n
    out: dict = {"n": n, "tset": tset_str(tset)}
    exprs = {side: published_formula_char(tset, n, side) for side in ("left", "right")}
    for side, expr in exprs.items():
        out[f"{side}_char"] = expr.canonical_str()
        out[f"{side}_dim"] = expr.dimension()
    failures = 0
    if args.level == "full":
        classes = conjugacy_classes(n)
        identity = [cl.rep for cl in classes].index(SignedPerm.identity(n))
        computed = {side: computed_char(space, side) for side in exprs}
        for side, cc in computed.items():
            agree = np.array_equal(cc, exprs[side].evaluate())
            out[f"{side}_verified"] = agree
            out[f"{side}_computed_dim"] = str(cc[identity])
            failures += not agree
            out[f"{side}_computed_classes"] = [
                {"type": cl.key_str(), "value": str(v)} for cl, v in zip(classes, cc)
            ]
        left_fn = computed["left"]
    elif n <= MAX_ENUM_RANK:
        left_fn = exprs["left"].evaluate()
    else:
        left_fn = None
    if left_fn is not None:
        hh = h_basis(left_fn, n)
        pos, witness = h_positivity(hh, n)
        out["left_frobenius_h"] = pretty(hh, n, "h")
        out["left_frobenius_s"] = pretty(h_to_s(hh, n), n, "s")
        out["left_h_positive"] = pos
        if witness:
            out["left_h_negative_terms"] = [
                {"key": cycle_type_str(*k), "coeff": str(c)} for k, c in witness
            ]
    if args.format == "json":
        print(json.dumps(out, indent=2, default=str))
    else:
        for key, val in out.items():
            if key.endswith("_computed_classes"):
                continue
            print(f"{key}: {val}")
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _suite_group_laws(n: int, lie_type: LieType):
    import random

    import numpy as np

    from .group import SignedPerm, compose, group_table, invert

    table = group_table(n)
    win = table.windows_array
    rng = random.Random(20_000 + n)
    ids = range(table.size)
    triples = np.array(
        list(itertools.product(ids, repeat=3))
        if n <= 2
        else [(rng.choice(ids), rng.choice(ids), rng.choice(ids)) for _ in range(2000)]
    )
    a, b, c = (win[triples[:, k]] for k in range(3))
    ab = compose(a, b)
    for xw, yw, xyw in zip(a.tolist(), b.tolist(), ab.tolist()):
        x, y = SignedPerm(xw), SignedPerm(yw)
        if (x * y).window != tuple(xyw):
            return False, f"product fails at {x}, {y}"
    bad = np.flatnonzero(np.any(compose(ab, c) != compose(a, compose(b, c)), axis=1))
    if bad.size:
        x, y, z = (SignedPerm(m[bad[0]]) for m in (a, b, c))
        return False, f"associativity fails at {x}, {y}, {z}"
    inv = invert(win)
    e = np.arange(1, n + 1)
    bad = np.flatnonzero(np.any((compose(win, inv) != e) | (compose(inv, win) != e), axis=1))
    if bad.size:
        return False, f"inverse fails at {SignedPerm(win[bad[0]])}"
    return True, f"{len(triples)} triples, {table.size} inverses"


def _suite_length_bfs(n: int, lie_type: LieType):
    import numpy as np

    from .group import SignedPerm, group_table

    table = group_table(n)
    right = np.empty((n, table.size), dtype=np.int32)  # right[i - 1, k]: index of w_k s_i
    for i in range(1, n + 1):
        right[i - 1] = table.right_mult_indices(SignedPerm.simple(i, n))
    dist = np.full(table.size, -1, dtype=np.int8)  # lengths are at most n^2
    frontier = np.array([table.index_of(SignedPerm.identity(n))])  # table indices
    dist[frontier] = 0
    step = 0
    while frontier.size:
        step += 1
        reached = np.zeros(table.size, dtype=bool)
        reached[right[:, frontier]] = True
        frontier = np.flatnonzero(reached & (dist < 0))
        dist[frontier] = step
    bad = np.flatnonzero(dist != table.lengths)
    if bad.size:
        return False, f"length mismatch at {SignedPerm(table.windows_array[bad[0]])}"
    return True, f"{np.count_nonzero(dist >= 0)} elements"


def _suite_root_bijection(n: int, lie_type: LieType):
    from .roots import positive_roots, root_to_reflection

    for lt in (LieType.B, LieType.C):
        roots = positive_roots(lt, n)
        refl = {root_to_reflection(r) for r in roots}
        if len(refl) != len(roots) or len(roots) != n * n:
            return False, f"not a bijection in type {lt}"
    return True, f"{n * n} roots per type"


def _suite_descents(n: int, lie_type: LieType, level: str):
    import numpy as np

    from .group import group_table
    from .hessenberg import (
        enumerate_hessenberg,
        from_tset,
        h_descent_indices,
        published_descent_formula,
        realizable_tsets,
        t_set,
        tset_str,
    )

    if level == "full":
        spaces = enumerate_hessenberg(lie_type, n)
    else:
        spaces = [from_tset(ts, n, lie_type) for ts in _in_order(realizable_tsets(lie_type, n))]
    pairs = [(space, t_set(space), i) for space in spaces for i in range(1, n + 1)]
    formulas = [published_descent_formula(ts, n, i) for _, ts, i in pairs]
    # every closed-form element of every pair, mapped to table indices at once
    windows = np.array([w.window for f in formulas for w in f], dtype=np.int8).reshape(-1, n)
    found = np.split(group_table(n).indices_of(windows), np.cumsum([len(f) for f in formulas])[:-1])
    scans = [scan for space in spaces for scan in h_descent_indices(space)]  # in pair order
    bad = sorted(
        {
            (tset_str(ts), i)
            for (space, ts, i), idx, scan in zip(pairs, found, scans)
            if not np.array_equal(np.sort(idx), scan)
        }
    )
    if bad:
        detail = "; ".join(f"tset {{{t}}} i={i}" for t, i in bad)
        return False, f"closed form disagrees with the scan at: {detail}"
    return True, f"{len(spaces)} spaces checked"


def _suite_families(n: int, lie_type: LieType):
    from .group import unbalanced_sets
    from .hessenberg import classify, enumerate_hessenberg, on_divergent_branch, t_set
    from .splines import edges_ok, f_family, g_family, h_family, phi_family, y_family

    families = {
        ("g",): g_family(range(1, n + 1), n),
        ("h",): h_family(n),
        ("phi",): phi_family(unbalanced_sets(n, n), n),
    }
    for i in range(1, n + 1):
        families["f", i] = f_family(i, unbalanced_sets(i, n), n)
        if i < n:
            families["y", i] = y_family(i, [k for k in range(-n, n + 1) if k], n)

    # the families and the roots recur across spaces: check each pair once
    @functools.cache
    def meets(key, root) -> bool:
        return bool(edges_ok(families[key], (root,)).all())

    def holds(key, space) -> bool:
        return all(meets(key, root) for root in sorted(space.roots))

    converse_holds = 0
    converse_fails = 0
    for space in enumerate_hessenberg(lie_type, n):
        cls = classify(t_set(space), n)
        for i in range(1, n + 1):
            hyp = i in cls.uncovered
            ok = holds(("f", i), space)
            if hyp and not ok:
                return False, f"coset family fails for uncovered i={i}"
            if not hyp:
                converse_holds += ok
                converse_fails += not ok
        ts = t_set(space)
        for i in range(1, n):
            hyp = (i <= n - 2 and i not in ts) or (
                i == n - 1 and not ts & {n - 1, n}
            )
            if hyp and not holds(("y", i), space):
                return False, f"interval family fails under its hypothesis, i={i}"
        if n not in ts and not holds(("g",), space):
            return False, "signed family fails under its hypothesis"
        if (n - 1) not in ts and not holds(("h",), space):
            return False, "parity family fails under its hypothesis"
        if on_divergent_branch(ts, n) and not holds(("phi",), space):
            return False, "phi family fails on the divergent branch"
    return True, f"converse: {converse_holds} hold / {converse_fails} fail (reported only)"


def _suite_bases(n: int, lie_type: LieType):
    from .hessenberg import dim_degree_one, from_tset, realizable_tsets, tset_str
    from .splines import bundle_rank, generating_set, left_basis, permutohedral_basis, right_basis

    def ranks_to_dim(build, space, basis=True) -> bool:
        # one bundle at a time; a basis must also have exactly dim elements
        bundle, dim = build(space), dim_degree_one(space)
        return bundle_rank(bundle, space) == dim and (not basis or len(bundle) == dim)

    deficient = []
    for ts in _in_order(realizable_tsets(lie_type, n)):
        space = from_tset(ts, n, lie_type)
        bases = (left_basis, right_basis) if ts else (lambda _: permutohedral_basis(n),)
        if not (
            ranks_to_dim(generating_set, space, basis=False)
            and all(ranks_to_dim(build, space) for build in bases)
        ):
            deficient.append(tset_str(ts))
    if deficient:
        return False, "closed-form families do not span at t-sets: " + "; ".join(
            f"{{{t}}}" for t in deficient
        )
    return True, "generating ranks and basis sizes match the scan dimension"


def _suite_characters(n: int, lie_type: LieType):
    import numpy as np

    from .characters import computed_char, published_formula_char
    from .hessenberg import from_tset, realizable_tsets, tset_str

    tsets = _in_order(realizable_tsets(lie_type, n))
    bad = []
    for ts in tsets:
        space = from_tset(ts, n, lie_type)
        for side in ("left", "right"):
            want = published_formula_char(ts, n, side).evaluate()
            if not np.array_equal(computed_char(space, side), want):
                bad.append((tset_str(ts), side))
    if bad:
        detail = "; ".join(f"tset {{{t}}} {side}" for t, side in bad)
        return False, f"trace characters disagree with the closed form at: {detail}"
    return True, f"{len(tsets)} t-sets, both sides"


def _suite_frobenius(n: int, lie_type: LieType):
    from .symfunc import verify_table_rows

    report = verify_table_rows(n)
    bad = [k for k, v in report.items() if not v]
    if bad:
        return False, f"H-basis images off for: {', '.join(bad)}"
    return True, f"{len(report)} named characters"


def _suite_h_positivity(n: int, lie_type: LieType):
    from .characters import computed_char
    from .hessenberg import from_tset, realizable_tsets, tset_str
    from .symfunc import h_basis, h_positivity

    bad = []
    for ts in _in_order(realizable_tsets(lie_type, n)):
        space = from_tset(ts, n, lie_type)
        ok, _ = h_positivity(h_basis(computed_char(space, "left"), n), n)
        if not ok:
            bad.append(tset_str(ts))
    if bad:
        detail = "; ".join(f"{{{t}}}" for t in bad)
        return False, f"negative H-coefficients at t-sets: {detail}"
    return True, "left characters are H-positive"


def cmd_verify(args) -> int:
    n, lie_type, level = args.n, args.type, args.level
    suites = [
        ("group-laws", lambda: _suite_group_laws(n, lie_type)),
        ("length-bfs", lambda: _suite_length_bfs(n, lie_type)),
        ("root-bijection", lambda: _suite_root_bijection(n, lie_type)),
        ("descent-formula", lambda: _suite_descents(n, lie_type, level)),
    ]
    if level == "full":
        suites += [
            ("spline-families", lambda: _suite_families(n, lie_type)),
            ("bases", lambda: _suite_bases(n, lie_type)),
            ("characters", lambda: _suite_characters(n, lie_type)),
            ("frobenius-rows", lambda: _suite_frobenius(n, lie_type)),
            ("h-positivity", lambda: _suite_h_positivity(n, lie_type)),
        ]
    failures = 0
    for name, fn in suites:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with its message
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if args.format == "json":
            record = {"name": name, "ok": ok, "detail": detail, "elapsed_s": round(elapsed, 6)}
            print(json.dumps(record))
        else:
            print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        failures += not ok
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# dump-spline
# ---------------------------------------------------------------------------


def cmd_dump_spline(args) -> int:
    from .characters import dot_action
    from .group import SignedPerm
    from .splines import (
        dump, f_spline, g_spline, h_spline, phi_spline, r_spline, t_spline, y_spline
    )

    n, fam = args.n, args.family

    def given_set() -> tuple[int, ...]:
        try:
            return tuple(int(x) for x in args.set.split(","))
        except ValueError:
            raise ValueError(f"malformed set {args.set!r}; expected e.g. \"2,-1\"") from None

    build = {
        "t": lambda: t_spline(args.index, n),
        "r": lambda: r_spline(args.index, n),
        "f": lambda: f_spline(args.index, given_set(), n),
        "y": lambda: y_spline(args.index, args.k, n),
        "g": lambda: g_spline(args.index, n),
        "h": lambda: h_spline(n),
        "phi": lambda: phi_spline(given_set(), n),
    }
    try:
        if fam in ("f", "phi") and args.set is None:
            raise ValueError(f"family {fam} needs --set")
        if fam == "y" and args.k is None:
            raise ValueError("family y needs --k")
        rho = build[fam]()
        if args.act is not None:
            rho = dot_action(SignedPerm.from_string(args.act), rho)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 1
    print(dump(rho))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # invalid command lines are invalid input, not verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bcsplines",
        description="degree-one splines and dot-action characters on signed permutation groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, top=None):
        p.add_argument("--n", type=_rank(top), required=True, help="rank")
        p.add_argument("--type", type=_lie, default=LieType.B, help="B or C")
        p.add_argument(
            "--level", choices=("formula", "full"), default="formula"
        )

    p_table = sub.add_parser("table", help="characters for every t-subset")
    common(p_table)
    p_table.add_argument("--format", choices=("text", "json", "tsv"), default="text")
    p_table.add_argument(
        "--by-ideal",
        action="store_true",
        help="one row per ideal of the chosen type instead of per t-subset",
    )
    p_table.set_defaults(fn=cmd_table)

    p_char = sub.add_parser("char", help="characters for one Hessenberg space")
    common(p_char)
    p_char.add_argument("--format", choices=("text", "json"), default="text")
    p_char.add_argument("--tset", help='e.g. "t1,t4" (empty string for none)')
    p_char.add_argument("--ideal", help='e.g. "[100];[010];[001];[011]"')
    p_char.set_defaults(fn=cmd_char)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    common(p_verify, top=MAX_ENUM_RANK)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(fn=cmd_verify)

    p_dump = sub.add_parser("dump-spline", help="print a family spline")
    p_dump.add_argument("--n", type=_rank(MAX_ENUM_RANK), required=True, help="rank")
    p_dump.add_argument(
        "--family", choices=("t", "r", "f", "y", "g", "h", "phi"), required=True
    )
    p_dump.add_argument("--index", type=int, default=1, help="family index i")
    p_dump.add_argument("--k", type=int, help="value index for family y")
    p_dump.add_argument("--set", help='unbalanced set for family f or phi, e.g. "2,-1"')
    p_dump.add_argument("--act", help="window of an element to act by first")
    p_dump.set_defaults(fn=cmd_dump_spline)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """Write "--set -1,-2" as "--set=-1,-2" (and likewise for --act): argparse
    reads a value that starts with "-" and is not a plain number as an option,
    while the "=" spelling means the same on every Python version."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--set", "--act") and arg[:1] == "-" and arg[:2] != "--":
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else argv))
    if getattr(args, "level", None) == "full" and args.n > MAX_FULL_RANK:
        print(f"--level full needs n <= {MAX_FULL_RANK}, got {args.n}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
