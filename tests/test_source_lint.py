"""Static checks on the package source: no unused imports, no private
function, class or method that nothing else in the package refers to."""

import ast
from collections import Counter
from pathlib import Path

import pseudoreal

SOURCES = sorted(Path(pseudoreal.__file__).parent.glob("*.py"))


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _names_read(tree):
    """Every bare identifier the module reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def test_every_module_level_import_is_used():
    unused = []
    for path in SOURCES:
        tree = _parse(path)
        used = _names_read(tree) | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def _references(tree):
    """How often each identifier is read or imported in the tree."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.asname or node.name] += 1
    return out


def test_every_private_definition_is_referenced_elsewhere():
    trees = {path.name: _parse(path) for path in SOURCES}
    total = sum((_references(tree) for tree in trees.values()), Counter())
    unreferenced = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.endswith("__"):
                continue
            # a reference inside the definition itself (recursion) does not count
            if total[node.name] - _references(node)[node.name] <= 0:
                unreferenced.append(f"{name}: {node.name}")
    assert unreferenced == []


def test_only_poly_gcd_reads_the_coprimality_certificate():
    # ``poly_gcd`` answers 1 when ``coprime_mod_p`` certifies a pair, so a
    # caller that asks the certificate itself keeps a second gcd path
    readers = []
    for path in SOURCES:
        refs = _references(_parse(path))
        if refs["coprime_mod_p"] and path.name not in ("modp.py", "polyring.py"):
            readers.append(path.name)
    assert readers == []
