"""Every function and class in the package is used by the package, or kept on
purpose with a stated reason, and every import of a module is read in it;
every reference in tests/reference.py is read by a test."""

import ast
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
