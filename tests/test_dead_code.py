"""Every function and class in the package is used by the package, or kept on
purpose with a stated reason, and every import of a module is read in it;
every reference in tests/reference.py is read by a test; every code name the
docs write in backticks names something that exists."""

import ast
import importlib
import re
from functools import lru_cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bcsplines"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# the definitions that nothing in the package reads, each with its reason
KEEP = {
    "_Parser.error": "argparse calls it on invalid input",
}


def _stores(nodes) -> set[str]:
    """Names the nodes assign (Store targets), nested scopes aside."""
    out, todo = set(), list(nodes)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return out


def reads(tree: ast.AST) -> set[str]:
    """The names the tree reads: every Attribute name, and every Name but
    those that an enclosing function binds itself (a parameter, or a Store
    target in its body), which are local variables.  A name that a function
    binds by `import` or `from ... import` still counts as a use, since that
    import reads a module-level definition."""
    refs = set()

    def visit(node, bound):
        if isinstance(node, ast.Name) and node.id not in bound:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        inner, body = bound, ()
        if isinstance(node, SCOPES):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            inner = bound | {p.arg for p in params if p} | _stores(body)
        for child in ast.iter_child_nodes(node):
            # decorators, defaults and annotations belong to the outer scope
            visit(child, inner if any(child is b for b in body) else bound)

    visit(tree, frozenset())
    return refs


def unreferenced_definitions() -> set[str]:
    """Module-level functions and classes, and methods other than dunders,
    whose name the package's modules never read (see `reads`; the exports of
    __init__ do not count as uses)."""
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        refs |= reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defs += [
                    (sub.name, f"{node.name}.{sub.name}")
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
    return {qualified for name, qualified in defs if name not in refs}


def test_unreferenced_definitions_are_the_keep_list():
    assert unreferenced_definitions() == set(KEEP)


def test_a_parameter_or_local_is_not_a_use():
    tree = ast.parse(
        "def a(length): return length\n"
        "def b(): width = 1; return width\n"
        "def c():\n    from m import depth\n    return depth\n"
        "def d(): return size\n"
    )
    assert reads(tree) == {"depth", "size"}


def test_every_reference_is_read_by_a_test():
    # directly, or through a reference that a test reads
    tree = ast.parse((TESTS / "reference.py").read_text())
    defs = {n.name: n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    read = set().union(*(reads(ast.parse(p.read_text())) for p in TESTS.glob("test_*.py")))
    used, todo = set(), [name for name in defs if name in read]
    while todo:
        name = todo.pop()
        if name not in used:
            used.add(name)
            todo += [other for other in reads(defs[name]) if other in defs]
    assert used == set(defs)


def unused_imports() -> set[str]:
    """module:name for each name a module imports and never reads (the
    package's __init__ and `from __future__` imports aside)."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {f"{path.stem}:{name}" for name in bound - read}
    return unused


def test_every_import_is_read():
    assert unused_imports() == set()


# maths notation the docs write in backticks, not code names
NOTATION = {"D_H", "h_n", "rho_w", "t_n", "OPENBLAS_NUM_THREADS"}
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def doc_code_names() -> dict[str, set[str]]:
    """Each code name written in backticks in README.md or in a docstring of
    the package, with the files it is written in: a dotted name, or an
    identifier that contains an underscore."""
    texts = [("README.md", (TESTS.parent / "README.md").read_text())]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                texts.append((path.name, ast.get_docstring(node) or ""))
    out: dict[str, set[str]] = {}
    for where, text in texts:
        for token in re.findall(r"`([^`\n]+)`", text):
            if DOTTED.fullmatch(token) and ("." in token or "_" in token):
                out.setdefault(token, set()).add(where)
    return out


@lru_cache(maxsize=None)
def _namespaces() -> tuple[dict, set[str], set[str]]:
    """The modules and classes of the package by name, the names set as
    `self.` attributes in the package, and the names tests/reference.py
    defines."""
    spaces = {}
    for path in SRC.glob("*.py"):
        module = importlib.import_module(
            "bcsplines" if path.stem == "__init__" else f"bcsplines.{path.stem}"
        )
        spaces[path.stem] = module
        spaces.update(
            (k, v)
            for k, v in vars(module).items()
            if isinstance(v, type) and v.__module__.startswith("bcsplines")
        )
    instance = {
        node.attr
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    reference = ast.parse((TESTS / "reference.py").read_text()).body
    defined = _stores(reference) | {
        n.name for n in reference if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    }
    return spaces, instance, defined


def exists(name: str) -> bool:
    """An undotted name is an attribute of a module or class of the package,
    a `self.` attribute, or a definition in tests/reference.py; a dotted one
    resolves part by part from a module or class of the package, its last
    part possibly a `self.` attribute of a class."""
    spaces, instance, defined = _namespaces()
    first, *rest = name.split(".")
    if not rest:
        return name in instance | defined or any(hasattr(obj, name) for obj in spaces.values())
    obj = spaces.get(first)
    for part in rest[:-1]:
        obj = getattr(obj, part, None)
    return hasattr(obj, rest[-1]) or (isinstance(obj, type) and rest[-1] in instance)


def test_doc_code_names_exist():
    names = doc_code_names()
    assert {name: names[name] for name in names.keys() - NOTATION if not exists(name)} == {}


def test_a_stale_doc_name_is_caught():
    assert exists("splines.witness_pivots") and exists("triangular_pivots")
    assert exists("GroupTable.windows_array") and exists("__init__")
    assert not exists("splines.triangular_pivots")
    assert not exists("no_such_name") and not exists("GroupTable.no_such_name")
