"""Command-line interface: formats, exit codes, determinism."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bcsplines import cli, group, hessenberg, splines
from bcsplines.group import SignedPerm, group_table
from bcsplines.hessenberg import (
    _inversion_counts,
    enumerate_hessenberg,
    from_tset,
    h_descent_indices,
    realizable_tsets,
    tset_str,
)
from bcsplines.roots import LieType

GOLDEN = Path(__file__).parent / "golden"
REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"


def _rank_six_references():
    """verify --n 6 --type C and every char --n 6 --tset T --format json in the
    benchmark's reference outputs (read only)."""
    refs = json.loads(REFERENCES.read_text())
    return sorted(
        (key, ref)
        for key, ref in refs.items()
        if key == "verify --n 6 --type C"
        or (key.startswith("char --n 6 --tset ") and key.endswith(" --format json"))
    )


SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # the package source goes first on the child's path, so the CLI under
    # test is this checkout's with or without an install
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bcsplines.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_python(code, **env):
    """Run `code` in a fresh interpreter with this checkout's package first on
    its path and the given environment changes (None unsets a variable)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    child = {**os.environ, "PYTHONPATH": path, **env}
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={k: v for k, v in child.items() if v is not None},
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


# numpy and the package modules that load it when imported; a command imports
# those it runs, and nothing before it runs needs them
ARITHMETIC = ("numpy", "bcsplines.group", "bcsplines.hessenberg", "bcsplines.roots")


def _loads_numpy(module: str, seen=()) -> bool:
    """Whether importing the module loads numpy: it is numpy, or it is a
    module of this package that imports one that does at module level."""
    if module.split(".")[0] == "numpy":
        return True
    if module.split(".")[0] != "bcsplines" or module in seen:
        return False
    return any(_loads_numpy(m, (*seen, module)) for m in _module_level_imports(module))


def _module_level_imports(module: str) -> set[str]:
    """The modules a package module imports outside its function bodies."""
    pkg = SRC / "bcsplines"
    path = pkg / f"{module.partition('.')[2] or '__init__'}.py"
    out, todo = set(), list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module)
        elif isinstance(node, ast.ImportFrom) and node.module:  # from .group import name
            out.add(f"bcsplines.{node.module}")
        elif isinstance(node, ast.ImportFrom):  # from . import name: a module or a name
            out |= {
                f"bcsplines.{a.name}" if (pkg / f"{a.name}.py").is_file() else "bcsplines"
                for a in node.names
            }
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _readers(name: str) -> set[str]:
    """module.function for each function of the package that reads `name`
    in its body (nested functions included): as a name, an attribute or an
    imported name."""
    out = set()
    for path in sorted((SRC / "bcsplines").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                names = (getattr(node, "id", None), getattr(node, "attr", None))
                if isinstance(node, ast.alias):
                    names = (node.name, node.asname)
                if name in names:
                    out.add(f"{path.stem}.{func.name}")
    return out


def _main_in_fresh_interpreter(argv: list[str], stream: str):
    """Exit code of main(argv) in a fresh interpreter (argparse's by
    SystemExit), what it wrote to the stream ("stdout" or "stderr"), and the
    ARITHMETIC modules it loaded."""
    child = (
        "import contextlib, io, json, sys, bcsplines.cli\n"
        "text = io.StringIO()\n"
        f"with contextlib.redirect_{stream}(text):\n"
        "    try:\n"
        f"        code = bcsplines.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"loaded = sorted(m for m in {ARITHMETIC!r} if m in sys.modules)\n"
        "print(json.dumps([code, text.getvalue(), loaded]))\n"
    )
    return json.loads(run_python(child))


class TestImports:
    def test_parser_loads_no_arithmetic_modules(self):
        # the modules each subcommand needs are imported when it runs
        modules = ARITHMETIC + (
            "bcsplines.splines", "bcsplines.characters", "bcsplines.linalg", "bcsplines.symfunc",
            "fractions",
        )
        code = (
            "import sys, bcsplines.cli\n"
            "bcsplines.cli.build_parser()\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
        )
        assert run_python(code) == "[]\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "verify --n 9",
                "bcsplines verify: error: argument --n: rank must be between 2 and 6, got 9",
            ),
            (
                "table --n 3 --type Z",
                "bcsplines table: error: argument --type: unknown type 'Z'; expected B or C",
            ),
            ("char --n 8 --tset t1 --level full", "--level full needs n <= 5, got 8"),
        ],
        ids=["rank", "type", "full-rank"],
    )
    def test_usage_errors_load_no_numpy(self, argv, message):
        # the rank bounds, the type check and the full-level limit are read
        # before any command runs
        code, err, loaded = _main_in_fresh_interpreter(argv.split(), "stderr")
        assert (code, err.splitlines()[-1], loaded) == (1, message, [])

    @pytest.mark.parametrize(
        "command",
        [[], ["table"], ["char"], ["verify"], ["dump-spline"]],
        ids=["bcsplines", "table", "char", "verify", "dump-spline"],
    )
    def test_help_loads_no_numpy(self, command):
        code, out, loaded = _main_in_fresh_interpreter([*command, "--help"], "stdout")
        usage = " ".join(["usage: bcsplines", *command])
        assert (code, out.startswith(usage), loaded) == (0, True, [])

    def test_front_end_imports_no_numpy_at_module_level(self):
        # a module-level import of numpy, or of a package module that loads
        # it, in `cli` or the package's __init__ would load numpy before the
        # command line is read
        assert all(_loads_numpy(m) for m in ARITHMETIC)  # the check can fail
        front = _module_level_imports("bcsplines") | _module_level_imports("bcsplines.cli")
        assert {m for m in front if _loads_numpy(m)} == set()

    def test_one_frame_conversion(self):
        # splines are stored pulled back, and every certificate and trace
        # reads them so: only `push_forward` applies a window to coefficient
        # rows, and only `dump` pushes a spline forward, to print it
        assert _readers("signed_columns") == {"splines.push_forward"}
        assert _readers("push_forward") == {"splines.dump"}

    def test_formula_char_loads_no_trace_modules(self):
        # the closed forms need neither the spline families nor the modular solver
        code = (
            "import contextlib, io, sys, bcsplines.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = bcsplines.cli.main(['char', '--n', '3', '--tset', 't1'])\n"
            "print(code, sorted(m for m in ('bcsplines.splines', 'bcsplines.linalg')\n"
            "    if m in sys.modules))\n"
        )
        assert run_python(code) == "0 []\n"

    def test_full_table_loads_no_rational_arithmetic(self):
        # every verdict is proved by modular pivots and symmetric lifts
        code = (
            "import contextlib, io, sys, bcsplines.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = bcsplines.cli.main(['table', '--n', '3', '--level', 'full'])\n"
            "print(code, sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
        )
        assert run_python(code) == "2 []\n"

    @pytest.mark.parametrize("level", ["formula", "full"])
    def test_char_loads_no_rational_arithmetic(self, level):
        # the Frobenius image is an integer array with one exact division
        code = (
            "import contextlib, io, sys, bcsplines.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = bcsplines.cli.main(['char', '--n', '3', '--tset', 't1', '--level', '{level}'])\n"
            "print(code, sorted(m for m in ('fractions', 'decimal') if m in sys.modules))\n"
        )
        assert run_python(code) == "0 []\n"

    def test_no_module_imports_fractions_or_decimal(self):
        importers = {
            path.stem
            for path in (SRC / "bcsplines").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.ImportFrom) and node.module in ("fractions", "decimal"))
            or (
                isinstance(node, ast.Import)
                and any(a.name.split(".")[0] in ("fractions", "decimal") for a in node.names)
            )
        }
        assert importers == set()

    @pytest.mark.parametrize("given,expected", [(None, "1"), ("3", "3")])
    def test_blas_threads_default_to_one(self, given, expected):
        # the package makes no BLAS call; a user's own value is kept
        code = "import os, bcsplines.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_python(code, OPENBLAS_NUM_THREADS=given) == expected + "\n"


class TestTable:
    def test_rank_two_full(self):
        r = run_cli("table", "--n", "2", "--level", "full", "--format", "tsv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "tset\tleft_char\tright_char\tdim\tverified"
        assert len(lines) == 5  # header + one row per t-subset
        rows = {l.split("\t")[0]: l.split("\t") for l in lines[1:]}
        assert rows[""][1] == "h1 + h2 - chi"
        assert rows["t1,t2"][1:] == ["2*1", "chi", "2", "yes"]
        assert all(r[-1] == "yes" for r in rows.values())

    def test_rank_four_formula_matches_golden(self):
        r = run_cli("table", "--n", "4", "--format", "tsv")
        assert r.returncode == 0
        golden = (GOLDEN / "table_n4_formula.tsv").read_text()
        assert r.stdout == golden

    def test_json_format(self):
        r = run_cli("table", "--n", "2", "--format", "json")
        rows = json.loads(r.stdout)
        assert len(rows) == 4
        assert rows[0]["dim"] == 6

    def test_rank_limit_for_full_level(self):
        r = run_cli("table", "--n", "6", "--level", "full")
        assert r.returncode == 1

    def test_determinism(self):
        a = run_cli("table", "--n", "3", "--format", "tsv")
        b = run_cli("table", "--n", "3", "--format", "tsv")
        assert a.stdout == b.stdout

    def test_rank_below_two_is_invalid_input(self):
        for n in ("0", "-2", "1"):
            r = run_cli("table", "--n", n)
            assert r.returncode == 1
            assert r.stdout == ""
            assert "rank must be at least 2" in r.stderr
            assert "Traceback" not in r.stderr

    def test_full_level_reports_defect_rows(self):
        r = run_cli(
            "table", "--n", "3", "--level", "full", "--format", "tsv", "--type", "C"
        )
        assert r.returncode == 2
        rows = {l.split("\t")[0]: l.split("\t") for l in r.stdout.splitlines()[1:]}
        assert rows["t3"][-1] == "NO"
        assert rows["t2,t3"][-1] == "yes"

    def test_rank_five_full_level_defect_rows(self):
        r = run_cli("table", "--n", "5", "--level", "full", "--format", "tsv")
        assert r.returncode == 2
        rows = [l.split("\t") for l in r.stdout.splitlines()[1:]]
        assert len(rows) == 32
        assert [row[0] for row in rows if row[-1] == "NO"] == ["t5", "t1,t5", "t2,t5", "t1,t2,t5"]
        assert all(row[-1] in ("yes", "NO") for row in rows)

    def test_by_ideal_lists_every_ideal(self):
        r = run_cli("table", "--n", "3", "--by-ideal", "--type", "C", "--format", "tsv")
        lines = r.stdout.strip().splitlines()
        assert lines[0].startswith("ideal\ttset")
        assert len(lines) == 11  # header + the ten rank-three ideals

    def test_by_ideal_full_traces_each_ideal(self, monkeypatch, capsys):
        # each row is verified on its own ideal, not on the smallest ideal
        # with its t-set
        from bcsplines import characters

        computed, traced = characters.computed_char, []

        def recording(space, side):
            traced.append(space)
            return computed(space, side)

        monkeypatch.setattr(characters, "computed_char", recording)
        argv = "table --n 3 --type C --by-ideal --level full --format tsv".split()
        assert cli.main(argv) == 2
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[1:]]
        assert [row[-1] for row in rows] == ["yes", "NO"] + ["yes"] * 8
        assert set(traced) == set(enumerate_hessenberg(LieType.C, 3))

    def test_large_rank_formula_row(self):
        r = run_cli("table", "--n", "8", "--format", "tsv")
        assert r.returncode == 0
        rows = {l.split("\t")[0]: l.split("\t") for l in r.stdout.splitlines()[1:]}
        row = rows["t2,t5,t6,t8"]
        assert row[1] == "5*1 + 2*h1 + h4 + delta"
        assert row[3] == "1158"


class TestChar:
    def test_tset_input(self):
        r = run_cli("char", "--n", "4", "--tset", "t4")
        assert r.returncode == 0
        assert "left_char: 2*1 + h1 + h2 + delta" in r.stdout
        assert "left_dim: 35" in r.stdout

    def test_ideal_input(self):
        r = run_cli(
            "char",
            "--n",
            "3",
            "--type",
            "C",
            "--ideal",
            "[100];[010];[001];[011];[021]",
        )
        assert r.returncode == 0
        assert "tset: t2,t3" in r.stdout

    def test_empty_tset_gives_parabolic_formula(self):
        r = run_cli("char", "--n", "4", "--tset", "")
        assert "left_char: h1 + h2 + h3 + h4 - chi" in r.stdout

    def test_invalid_ideal_names_offending_root(self):
        r = run_cli(
            "char", "--n", "3", "--type", "C", "--ideal", "[100];[010];[001];[021]"
        )
        assert r.returncode == 1
        assert "[011]" in r.stderr

    def test_full_level_verdicts(self):
        r = run_cli("char", "--n", "2", "--tset", "t1", "--level", "full")
        assert r.returncode == 0
        assert "left_verified: True" in r.stdout
        assert "left_h_positive: True" in r.stdout

    def test_full_level_defect_cell(self):
        r = run_cli(
            "char", "--n", "3", "--type", "C", "--tset", "t3", "--level", "full"
        )
        assert r.returncode == 2
        assert "left_verified: False" in r.stdout
        assert "left_computed_dim: 12" in r.stdout

    def test_full_level_rank_five_defect_cell(self):
        r = run_cli("char", "--n", "5", "--tset", "t5", "--level", "full")
        assert r.returncode == 2
        assert "left_verified: False" in r.stdout
        assert "left_computed_dim: 158" in r.stdout

    def test_full_level_rank_limit(self):
        for cmd in ("char", "verify"):
            extra = ("--tset", "t6") if cmd == "char" else ()
            r = run_cli(cmd, "--n", "6", *extra, "--level", "full")
            assert r.returncode == 1 and "needs n <= 5" in r.stderr

    def test_negative_h_terms_use_the_cycle_type_key(self, monkeypatch, capsys):
        from bcsplines import symfunc

        witness = [(((2, 1), ()), -1)]
        monkeypatch.setattr(symfunc, "h_positivity", lambda coeffs, n: (False, witness))
        assert cli.main(["char", "--n", "3", "--tset", "t1", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["left_h_negative_terms"] == [{"key": "2,1|", "coeff": "-1"}]

    def test_tsv_is_a_table_format_only(self):
        for args in (("char", "--n", "2", "--tset", "t1"), ("verify", "--n", "2")):
            r = run_cli(*args, "--format", "tsv")
            assert r.returncode == 1 and r.stdout == ""
            assert "invalid choice: 'tsv'" in r.stderr

    def test_formula_only_large_rank(self):
        r = run_cli("char", "--n", "8", "--tset", "t2,t5,t6,t8")
        assert r.returncode == 0
        assert "left_dim: 1158" in r.stdout


class TestVerify:
    def test_rank_two_passes_both_types(self):
        for lt in ("B", "C"):
            r = run_cli("verify", "--n", "2", "--type", lt, "--level", "full")
            assert r.returncode == 0, r.stdout
            assert "FAIL" not in r.stdout

    def test_rank_three_type_b_full_passes(self):
        r = run_cli("verify", "--n", "3", "--type", "B", "--level", "full")
        assert r.returncode == 0, r.stdout

    def test_rank_three_type_c_reports_failures(self):
        r = run_cli("verify", "--n", "3", "--type", "C", "--level", "full")
        assert r.returncode == 2
        assert "FAIL  descent-formula" in r.stdout
        assert "{t3}" in r.stdout

    def test_bases_suite_names_the_branch_tsets(self):
        # the generating set spans there; the left/right bases do not
        r = run_cli("verify", "--n", "3", "--type", "C", "--level", "full")
        assert "FAIL  bases: closed-form families do not span at t-sets: {t3}\n" in r.stdout
        assert "RankDeficientError" not in r.stdout

    @pytest.mark.parametrize("lie_type,code", [("B", 0), ("C", 2)])
    def test_rank_four_full_matches_golden(self, lie_type, code):
        r = run_cli("verify", "--n", "4", "--type", lie_type, "--level", "full")
        assert r.returncode == code
        assert r.stdout == (GOLDEN / f"verify_n4_{lie_type}_full.txt").read_text()

    def test_rank_out_of_range_is_invalid_input(self):
        for n in ("0", "7"):
            r = run_cli("verify", "--n", n)
            assert r.returncode == 1
            assert r.stdout == ""
            assert "rank must be between 2 and 6" in r.stderr

    def test_formula_level(self):
        r = run_cli("verify", "--n", "3", "--type", "B", "--level", "formula")
        assert r.returncode == 0
        assert "characters" not in r.stdout  # oracle-level suites skipped

    @pytest.mark.parametrize("lie, code", [("B", 0), ("C", 2)])
    def test_json_format_one_object_per_suite(self, lie, code):
        r = run_cli("verify", "--n", "3", "--type", lie, "--format", "json")
        assert r.returncode == code
        records = [json.loads(line) for line in r.stdout.splitlines()]
        assert [rec["name"] for rec in records] == [
            "group-laws",
            "length-bfs",
            "root-bijection",
            "descent-formula",
        ]
        for rec in records:
            assert set(rec) == {"name", "ok", "detail", "elapsed_s"}
            assert isinstance(rec["ok"], bool) and rec["elapsed_s"] >= 0
        assert records[1]["detail"] == "48 elements"
        assert [rec["ok"] for rec in records] == [True, True, True, code == 0]
        text = run_cli("verify", "--n", "3", "--type", lie).stdout.splitlines()
        assert text == [
            f"{'PASS' if rec['ok'] else 'FAIL'}  {rec['name']}: {rec['detail']}" for rec in records
        ]


class TestSplineSuites:
    """The spline-families and bases suites, in process.  The bases suite
    ranks every bundle it builds, and each must reach the dimension."""

    def test_families_check_phi_on_the_branch(self, monkeypatch):
        # x_1 at the identity only: its edges to the simple reflections fail
        def not_a_spline(sets, n):
            table = group.group_table(n)
            values = np.zeros((len(sets), table.size, n), dtype=np.int8)
            values[:, table.index_of(group.SignedPerm.identity(n)), 0] = 1
            return values

        monkeypatch.setattr(splines, "phi_family", not_a_spline)
        assert cli._suite_families(3, LieType.B)[0]  # no type-B t-set is on the branch
        assert cli._suite_families(3, LieType.C) == (
            False,
            "phi family fails on the divergent branch",
        )

    def test_fails_on_rank_deficient_left_basis(self, monkeypatch):
        # correctly sized, but its last row repeats its first
        real = splines.left_basis

        def deficient(space):
            bundle = real(space).copy()
            bundle[-1] = bundle[0]
            return bundle

        monkeypatch.setattr(splines, "left_basis", deficient)
        nonempty = [ts for ts in cli._in_order(realizable_tsets(LieType.B, 3)) if ts]
        assert cli._suite_bases(3, LieType.B) == (
            False,
            "closed-form families do not span at t-sets: "
            + "; ".join(f"{{{tset_str(ts)}}}" for ts in nonempty),
        )

    def test_rank_five_type_c(self):
        # no rank-5 verify runs in the suite; these are its bases and
        # spline-families lines
        assert cli._suite_bases(5, LieType.C) == (
            False,
            "closed-form families do not span at t-sets: {t5}; {t1,t5}; {t2,t5}; {t1,t2,t5}",
        )
        assert cli._suite_families(5, LieType.C) == (
            True,
            "converse: 0 hold / 560 fail (reported only)",
        )


class TestRankSixReferences:
    """Rank-6 output, in process, byte-identical to the benchmark's references."""

    def test_references_cover_both_commands(self):
        keys = [key for key, _ in _rank_six_references()]
        assert "verify --n 6 --type C" in keys
        assert sum(key.startswith("char ") for key in keys) >= 1

    @pytest.mark.parametrize(
        "key, ref", [pytest.param(key, ref, id=key) for key, ref in _rank_six_references()]
    )
    def test_output_matches_reference(self, capsys, key, ref):
        code = cli.main(key.split())
        assert (code, capsys.readouterr().out) == (ref["exit_code"], ref["stdout"])


def test_rank_six_verify_builds_no_element_per_scan_hit(monkeypatch, capsys):
    # the scan side is table indices; the 2,000 cross-checked products build
    # 6,000 elements and the closed forms the rest
    built = []
    real = SignedPerm.__init__

    def counting(self, window):
        built.append(None)
        real(self, window)

    monkeypatch.setattr(SignedPerm, "__init__", counting)
    assert cli.main(["verify", "--n", "6", "--type", "C"]) == 2
    assert len(built) <= 8000


def test_rank_six_suites_keep_whole_group_data_narrow():
    # traced in a fresh interpreter, in decimal MB, the suites in the order of
    # `verify --n 6 --type C`: what the table retains (int8 windows), the peak
    # of the length search over its start (int32 successors, int8 distances),
    # and what the descent suite retains (no count vector kept per space)
    code = (
        "import json, tracemalloc\n"
        "from bcsplines import cli\n"
        "from bcsplines.group import group_table\n"
        "from bcsplines.roots import LieType\n"
        "tracemalloc.start()\n"
        "group_table(6)\n"
        "out = {'table': tracemalloc.get_traced_memory()[0]}\n"
        "cli._suite_group_laws(6, LieType.C)\n"
        "start = tracemalloc.get_traced_memory()[0]\n"
        "tracemalloc.reset_peak()\n"
        "assert cli._suite_length_bfs(6, LieType.C)[0]\n"
        "out['bfs_peak'] = tracemalloc.get_traced_memory()[1] - start\n"
        "cli._suite_root_bijection(6, LieType.C)\n"
        "start = tracemalloc.get_traced_memory()[0]\n"
        "cli._suite_descents(6, LieType.C, 'formula')\n"
        "out['descents'] = tracemalloc.get_traced_memory()[0] - start\n"
        "print(json.dumps({k: v / 1e6 for k, v in out.items()}))\n"
    )
    got = json.loads(run_python(code))
    assert got["table"] <= 1.0, got
    assert got["bfs_peak"] <= 3.5, got
    assert got["descents"] <= 2.5, got


def _swap_first_entries(fn):
    """fn with window entries 1 and 2 swapped on every third row of its result."""

    def broken(*args):
        out = np.array(fn(*args))
        rows = np.flatnonzero(np.arange(len(out)) % 3 == 1)
        out[np.ix_(rows, [0, 1])] = out[np.ix_(rows, [1, 0])]
        return out

    return broken


class TestVerifyDetectsBrokenKernels:
    """The array-based group suites fail, naming an element, on a faulty kernel."""

    def test_broken_compose(self, monkeypatch, capsys):
        broken = _swap_first_entries(group.compose)
        monkeypatch.setattr(group, "compose", broken)
        assert cli.main(["verify", "--n", "3"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  group-laws: product fails at SignedPerm([" in out
        assert "FAIL  length-bfs: length mismatch at SignedPerm([" in out

    def test_broken_invert(self, monkeypatch, capsys):
        monkeypatch.setattr(group, "invert", _swap_first_entries(group.invert))
        assert cli.main(["verify", "--n", "3"]) == 2
        out = capsys.readouterr().out
        assert "FAIL  group-laws: inverse fails at SignedPerm([" in out
        assert "PASS  length-bfs: 48 elements" in out


class TestDescentSuiteNamesThePair:
    """A closed form changed at one (t-set, i) fails the descent-formula suite
    at exactly that pair, whether it loses an element or trades one for an
    element that also has a single H-inversion (same set size, same count)."""

    TSET, I = frozenset({1}), 2

    def patch(self, monkeypatch, change):
        real = hessenberg.published_descent_formula

        def patched(ts, n, i):
            out = real(ts, n, i)
            return change(out) if (frozenset(ts), i) == (self.TSET, self.I) else out

        monkeypatch.setattr(hessenberg, "published_descent_formula", patched)

    def run(self, capsys):
        assert cli.main(["verify", "--n", "3"]) == 2
        line = next(x for x in capsys.readouterr().out.splitlines() if "descent-formula" in x)
        detail = "closed form disagrees with the scan at: tset {t1} i=2"
        assert line == f"FAIL  descent-formula: {detail}"

    def test_unchanged_passes(self, capsys):
        assert cli.main(["verify", "--n", "3"]) == 0
        assert "PASS  descent-formula: 6 spaces checked" in capsys.readouterr().out

    def test_dropped_element(self, monkeypatch, capsys):
        self.patch(monkeypatch, lambda out: out - {min(out, key=lambda w: w.window)})
        self.run(capsys)

    def test_element_swapped_for_one_of_the_same_count(self, monkeypatch, capsys):
        space = from_tset(self.TSET, 3, LieType.B)
        k = h_descent_indices(space)[0][0]  # one H-inversion, alpha_1 instead of alpha_2
        assert _inversion_counts(space)[k] == 1
        other = SignedPerm(group_table(3).windows_array[k].tolist())

        def swap(out):
            new = (out - {min(out, key=lambda w: w.window)}) | {other}
            assert len(new) == len(out)
            return new

        self.patch(monkeypatch, swap)
        self.run(capsys)


class TestDumpSpline:
    def test_coset_support(self):
        r = run_cli("dump-spline", "--n", "2", "--family", "f", "--index", "1", "--set", "2")
        assert r.returncode == 0
        lines = dict(l.split("\t") for l in r.stdout.strip().splitlines())
        nonzero = {w for w, p in lines.items() if p != "0"}
        assert nonzero == {"2,1", "2,-1"}

    def test_dot_action_flag(self):
        r = run_cli(
            "dump-spline", "--n", "2", "--family", "f", "--index", "1",
            "--set", "2", "--act=-2,-1",
        )
        lines = dict(l.split("\t") for l in r.stdout.strip().splitlines())
        nonzero = {w for w, p in lines.items() if p != "0"}
        assert nonzero == {"-1,2", "-1,-2"}

    @pytest.mark.parametrize(
        "args",
        [
            ("--family", "f", "--index", "2", "--set", "-1,-2"),
            ("--family", "y", "--index", "1", "--k", "-2", "--act", "-3,-1,2"),
        ],
    )
    def test_negative_list_value_in_either_spelling(self, args):
        # "--set -1,-2" reads like an option to argparse; it means "--set=-1,-2"
        spaced = run_cli("dump-spline", "--n", "3", *args)
        joined = run_cli("dump-spline", "--n", "3", *args[:-2], f"{args[-2]}={args[-1]}")
        assert spaced.returncode == joined.returncode == 0, spaced.stderr
        assert spaced.stdout == joined.stdout and spaced.stdout.count("\n") == 48

    def test_parity_family(self):
        r = run_cli("dump-spline", "--n", "2", "--family", "h")
        lines = dict(l.split("\t") for l in r.stdout.strip().splitlines())
        assert lines["1,2"] == "0"
        assert lines["1,-2"] == "-1*x2"

    @pytest.mark.parametrize(
        "act,rows",
        [
            (None, {"-2,-1": "1*x1 - 1*x2", "-2,1": "-1*x1 - 1*x2"}),
            ("--act=-2,1", {"-1,-2": "-1*x1 + 1*x2", "-1,2": "-1*x1 - 1*x2"}),
        ],
    )
    def test_multi_term_text(self, act, rows):
        # the full output of y_{1,-2}, alone and acted on by (-2, 1)
        args = ["dump-spline", "--n", "2", "--family", "y", "--index", "1", "--k", "-2"]
        r = run_cli(*args, *([act] if act else []))
        assert r.returncode == 0
        windows = ["-2,-1", "-2,1", "-1,-2", "-1,2", "1,-2", "1,2", "2,-1", "2,1"]
        assert r.stdout == "".join(f"{w}\t{rows.get(w, '0')}\n" for w in windows)

    def test_parity_family_rank_three_matches_golden(self):
        r = run_cli("dump-spline", "--n", "3", "--family", "h")
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "dump_spline_n3_h.txt").read_text()

    @pytest.mark.parametrize("act,rank", [("1,2", 2), ("-1,-2,-3,-4", 4)])
    def test_act_window_of_another_rank(self, act, rank):
        r = run_cli("dump-spline", "--n", "3", "--family", "t", "--index", "1", f"--act={act}")
        assert r.returncode == 1 and not r.stdout
        assert r.stderr == (
            f"invalid parameters: rank mismatch: window {act} has rank {rank},"
            " the splines need rank 3\n"
        )

    def test_missing_parameters(self):
        assert run_cli("dump-spline", "--n", "2", "--family", "f").returncode == 1
        assert run_cli("dump-spline", "--n", "2", "--family", "y").returncode == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (("--family", "t", "--act", "garbage"), "window 'garbage'; expected e.g. \"-2,1,3\""),
            (("--family", "t", "--act", ""), "window ''; expected e.g. \"-2,1,3\""),
            (
                ("--family", "f", "--index", "2", "--set", "1,x"),
                "set '1,x'; expected e.g. \"2,-1\"",
            ),
            (("--family", "phi", "--set", "1,x"), "set '1,x'; expected e.g. \"2,-1\""),
        ],
        ids=["act", "act-empty", "set-f", "set-phi"],
    )
    def test_malformed_list_names_the_value(self, args, message):
        r = run_cli("dump-spline", "--n", "3", *args)
        want = f"invalid parameters: malformed {message}\n"
        assert (r.returncode, r.stdout, r.stderr) == (1, "", want)

    @pytest.mark.parametrize(
        "n, b, act",
        [(3, (1, -2, 3), None), (3, (-3, -1, 2), (2, -3, 1)), (4, (-4, 1, -2, 3), (-2, 1, 4, -3))],
    )
    def test_phi_family_prints_phi_spline(self, n, b, act):
        from bcsplines.characters import dot_action

        args = ["dump-spline", "--n", str(n), "--family", "phi", "--set", ",".join(map(str, b))]
        rho = splines.phi_spline(b, n)
        if act:
            args += ["--act", ",".join(map(str, act))]
            rho = dot_action(SignedPerm(act), rho)
        r = run_cli(*args)
        assert r.returncode == 0, r.stderr
        assert rho.any() and r.stdout == splines.dump(rho) + "\n"

    @pytest.mark.parametrize("given", [None, "1,2", "1,-1,2", "1,2,4", "0,1,2", "1,2,3,-4"])
    def test_phi_family_needs_an_unbalanced_n_set(self, given):
        args = ["dump-spline", "--n", "3", "--family", "phi"]
        r = run_cli(*args, *(["--set", given] if given else []))
        assert r.returncode == 1 and r.stdout == ""
        want = "family phi needs --set" if given is None else "unbalanced set of size 3"
        assert r.stderr.startswith("invalid parameters:") and want in r.stderr, r.stderr

    def test_index_out_of_range_is_invalid_input(self):
        for args in (
            ("--family", "t", "--index", "5"),
            ("--family", "t", "--index", "0"),
            ("--family", "r", "--index", "3"),
            ("--family", "f", "--index", "3", "--set", "1,2,3"),
            ("--family", "f", "--index", "2", "--set", "1,5"),
        ):
            r = run_cli("dump-spline", "--n", "2", *args)
            assert r.returncode == 1, args
            assert r.stdout == ""
            assert r.stderr.startswith("invalid parameters:"), r.stderr

    def test_determinism(self):
        a = run_cli("dump-spline", "--n", "3", "--family", "g", "--index", "2")
        b = run_cli("dump-spline", "--n", "3", "--family", "g", "--index", "2")
        assert a.stdout == b.stdout
