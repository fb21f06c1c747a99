"""Traced execution of one bcsplines CLI invocation, from outside the package.

Run as a child process, with the package's ``src`` directory on PYTHONPATH:

    python3 bench/tracer.py OUT.json INVOCATION_ID SPAWN_T -- ARGV...

It imports the package, rebinds the public functions of each traced module
in every ``bcsplines`` module that holds them (``cli`` and ``characters``
import by name, so patching the defining module alone would miss calls),
runs ``bcsplines.cli.main(ARGV)`` and writes what it recorded to OUT.json.
No package source is changed.

A traced call records busy time (its duration) and self time (duration
minus the time covered by traced calls beneath it), and leaves a span (id,
name, start, end, parent id, invocation id).  Element-level hot calls
listed in ``AGGREGATED`` are kept as count plus busy and self time only,
because one span per call would distort the time.  ``roots`` is too
small to time and is not traced; its work counts as self time of its
caller's layer.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import sys
import time

LAYERS = ("group", "hessenberg", "splines", "linalg", "characters", "symfunc", "cli")

# Element-level calls (per group element, per edge check, or a cached
# lookup made per object built): one span each would distort the time.
AGGREGATED = frozenset(
    {
        "group.SignedPerm.__mul__",
        "group.length",
        "group.descent_set",
        "group.group_table",
        "group.conjugacy_classes",
        "splines.is_spline",
    }
)

# Helpers cheaper than a traced call: sort keys, and the per-root cached
# lookups inside is_spline.  Their time is self time of the caller.
UNTRACED = frozenset(
    {"group.order_key", "group.successor", "splines.label_matrix", "splines.reflection_perm"}
)

# Public methods that are traced (module-level functions are found by scan).
METHODS = (
    ("group", "SignedPerm", "__mul__"),
    ("characters", "CharacterExpression", "evaluate"),
)


def _kernel_sizes(counters, args, kwargs, result):
    rows, ncols = args[0], args[1]
    counters["kernel_rows"] += len(rows)
    counters["kernel_cols"] += ncols
    counters["kernel_nnz"] += sum(len(r) for r in rows)
    counters["kernel_dim"] += len(result)


def _invert_size(counters, args, kwargs, result):
    counters["invert_dim_sum"] += len(args[0])


def _bundle_size(counters, args, kwargs, result):
    counters["bundle_vectors"] += len(result)


def _spaces_from_enumeration(counters, args, kwargs, result):
    counters["spaces"] += len(result)


def _one_space(counters, args, kwargs, result):
    counters["spaces"] += 1


# Sizes read from the arguments and return values of successful calls.
OBSERVERS = {
    "linalg.sparse_kernel_basis": _kernel_sizes,
    "linalg.invert_fraction": _invert_size,
    "splines.generating_set": _bundle_size,
    "splines.left_basis": _bundle_size,
    "splines.right_basis": _bundle_size,
    "splines.permutohedral_basis": _bundle_size,
    "hessenberg.enumerate_hessenberg": _spaces_from_enumeration,
    "hessenberg.from_tset": _one_space,
}


class Tracer:
    """Call statistics and spans of one process; written out once at the end."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.stack = [[0.0, None]]  # frames: [time covered by children, span id]
        self.spans: list[tuple] = []
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s, raised]
        self.counters: collections.Counter = collections.Counter()
        self._ids = iter(range(1, 1 << 62))

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        observe = OBSERVERS.get(name)
        aggregated = name in AGGREGATED
        stack, spans, ids = self.stack, self.spans, self._ids
        counters = self.counters
        invocation = self.invocation
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1] if aggregated else next(ids)]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if not ok:
                    stats[3] += 1
                if not aggregated:
                    spans.append((frame[1], name, t0, t1, parent[1], invocation))
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Rebind every traced callable wherever a bcsplines module holds it."""
        modules = {name: importlib.import_module(f"bcsplines.{name}") for name in LAYERS}
        holders = list(modules.values()) + [
            importlib.import_module("bcsplines"),
            importlib.import_module("bcsplines.roots"),
        ]
        wrapped: dict[int, tuple] = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in UNTRACED
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                ):
                    continue
                wrapped[id(obj)] = (obj, self.wrap(obj, name))
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, meth, self.wrap(getattr(cls, meth), f"{layer}.{cls_name}.{meth}"))


BUNDLE_BUILDERS = (
    "splines.generating_set",
    "splines.left_basis",
    "splines.right_basis",
    "splines.permutohedral_basis",
)
CLOSED_FORM = (
    "characters.formula_char",
    "characters.evaluate",
    "characters.CharacterExpression.evaluate",
    "characters.named_char",
)


def layer_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass (one record per invocation).

    ``*_s`` metrics are busy time (inclusive) unless named ``self_s`` or
    documented as self time below; counts and sizes come from call
    arguments and return values.
    """
    stats: dict[str, list] = {}
    counters: collections.Counter = collections.Counter()
    hits = misses = 0
    startup = 0.0
    for rec in records:
        for name, (calls, busy, self_s, raised) in rec["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += self_s
            acc[3] += raised
        counters.update(rec["counters"])
        hits += rec["trace_cache"]["hits"]
        misses += rec["trace_cache"]["misses"]
        startup += rec["interpreter_start_s"] + rec["import_s"]

    def calls(*names):
        return sum(stats.get(n, (0,))[0] for n in names)

    def busy(*names):
        return sum(stats.get(n, (0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def raised(*names):
        return sum(stats.get(n, (0, 0.0, 0.0, 0))[3] for n in names)

    def layer_self(layer):
        return sum(v[2] for n, v in stats.items() if n.split(".", 1)[0] == layer)

    attempts = calls("splines.left_basis")
    m = {
        # linalg: the Fraction kernel solve, exact inverses, modular pivots
        "linalg.kernel_solve_s": (busy("linalg.sparse_kernel_basis"), "s"),
        "linalg.kernel_rows": (counters["kernel_rows"], "count"),
        "linalg.kernel_cols": (counters["kernel_cols"], "count"),
        "linalg.kernel_nnz": (counters["kernel_nnz"], "count"),
        "linalg.kernel_dim": (counters["kernel_dim"], "count"),
        "linalg.invert_calls": (calls("linalg.invert_fraction"), "count"),
        "linalg.invert_dim_sum": (counters["invert_dim_sum"], "count"),
        "linalg.invert_s": (busy("linalg.invert_fraction"), "s"),
        "linalg.pivots_calls": (calls("linalg.pivots"), "count"),
        "linalg.primes_tried": (calls("linalg.rref_pivots_mod_p"), "count"),
        "linalg.pivots_s": (busy("linalg.pivots"), "s"),
        "linalg.self_s": (layer_self("linalg"), "s"),
        # splines: kernel rows and certification (self time), bundles, predicate
        "splines.kernel_calls": (calls("splines.spline_space_basis"), "count"),
        "splines.kernel_s": (self_time("splines.spline_space_basis"), "s"),
        "splines.left_basis_attempts": (attempts, "count"),
        "splines.closed_form_ratio": (
            (attempts - raised("splines.left_basis")) / attempts if attempts else 0.0,
            "ratio",
        ),
        "splines.bundle_builds": (calls(*BUNDLE_BUILDERS) - raised(*BUNDLE_BUILDERS), "count"),
        "splines.bundle_vectors": (counters["bundle_vectors"], "count"),
        "splines.bundle_s": (busy(*BUNDLE_BUILDERS), "s"),
        "splines.is_spline_calls": (calls("splines.is_spline"), "count"),
        "splines.is_spline_s": (busy("splines.is_spline"), "s"),
        "splines.pivot_data_s": (busy("splines.bundle_pivot_data"), "s"),
        "splines.self_s": (layer_self("splines"), "s"),
        # characters: the per-class trace loop is self time of computed_char
        "characters.char_calls": (calls("characters.computed_char"), "count"),
        "characters.trace_s": (self_time("characters.computed_char"), "s"),
        "characters.trace_cache_hits": (hits, "count"),
        "characters.trace_cache_misses": (misses, "count"),
        "characters.formula_s": (self_time(*CLOSED_FORM), "s"),
        "characters.self_s": (layer_self("characters"), "s"),
        # group
        "group.table_s": (busy("group.group_table"), "s"),
        "group.classes_s": (busy("group.conjugacy_classes"), "s"),
        "group.mul_calls": (calls("group.SignedPerm.__mul__"), "count"),
        "group.mul_s": (busy("group.SignedPerm.__mul__"), "s"),
        "group.length_calls": (calls("group.length"), "count"),
        "group.length_s": (busy("group.length"), "s"),
        "group.coset_reps_s": (busy("group.min_coset_reps"), "s"),
        "group.self_s": (layer_self("group"), "s"),
        # hessenberg: the H-inversion scan and the closed-form descent sets
        "hessenberg.scan_calls": (
            calls("hessenberg.h_descent_oracle", "hessenberg.dim_degree_one"),
            "count",
        ),
        "hessenberg.scan_s": (
            busy("hessenberg.h_descent_oracle", "hessenberg.dim_degree_one"),
            "s",
        ),
        "hessenberg.formula_calls": (calls("hessenberg.h_descent_formula"), "count"),
        "hessenberg.formula_s": (busy("hessenberg.h_descent_formula"), "s"),
        "hessenberg.spaces": (counters["spaces"], "count"),
        "hessenberg.self_s": (layer_self("hessenberg"), "s"),
        # symfunc
        "symfunc.frobenius_s": (busy("symfunc.frobenius_bc"), "s"),
        "symfunc.p_to_h_s": (busy("symfunc.p_to_h"), "s"),
        "symfunc.h_to_s_s": (busy("symfunc.h_to_s"), "s"),
        "symfunc.kostka_calls": (calls("symfunc.kostka"), "count"),
        "symfunc.self_s": (layer_self("symfunc"), "s"),
        # cli: command dispatch and the verification suites' own loops
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.invocations": (calls("cli.main"), "count"),
        "trace.startup_s": (startup, "s"),
    }
    return m


def run_traced(out_path: str, invocation: int, spawn_t: float, argv: list[str]) -> int:
    started = time.perf_counter()
    import bcsplines.cli

    tracer = Tracer(invocation)
    tracer.install()
    ready = time.perf_counter()
    code = bcsplines.cli.main(argv)
    done = time.perf_counter()
    sys.stdout.flush()
    characters = importlib.import_module("bcsplines.characters")
    info = characters._trace_data.cache_info()
    record = {
        "invocation": invocation,
        "argv": argv,
        "exit_code": code,
        "interpreter_start_s": started - spawn_t,
        "import_s": ready - started,
        "main_s": done - ready,
        "stats": tracer.stats,
        "counters": tracer.counters,
        "trace_cache": {"hits": info.hits, "misses": info.misses},
        "spans": tracer.spans,
    }
    with open(out_path, "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    out, inv, spawn = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    if sys.argv[4] != "--":
        sys.exit("usage: tracer.py OUT.json INVOCATION_ID SPAWN_T -- ARGV...")
    sys.exit(run_traced(out, inv, spawn, sys.argv[5:]))
