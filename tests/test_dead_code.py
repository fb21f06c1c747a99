"""Every function and class in the package is used by the package, or kept on
purpose with a stated reason, and every import of a module is read in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bcsplines"

# the definitions that nothing in the package reads, each with its reason
KEEP = {
    "expand": "exact reference the tests compare the traces against",
    "is_spline": "per-spline reference the tests compare edges_ok against",
    "phi_spline": "one checked phi^B (N, n), the per-member reference the tests check phi_family against",
    "spline_space_basis": "kernel basis from the edge conditions, the tests' reference",
    "telescoping_identity": "acceptance criterion 4",
    "y_f_g_identity": "acceptance criterion 4",
    "descent_set": "per-element reference the tests check table.descents against",
    "_Parser.error": "argparse calls it on invalid input",
}


def unreferenced_definitions() -> set[str]:
    """Module-level functions and classes, and methods other than dunders,
    whose name appears as no Name or Attribute in the package's modules
    (the exports of __init__ do not count as uses)."""
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
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
