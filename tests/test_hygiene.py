"""Static hygiene of the package source, read with the stdlib ast module.

Two kinds of dead code are rejected: an import that its module never uses,
and a private module-level name (one leading underscore) that nothing in
the package refers to outside its own definition.
"""

import ast
from pathlib import Path

import onejdom

SRC = Path(onejdom.__file__).parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py"))}


def _references(nodes):
    """Every name a load refers to: bare names, attributes and the names
    an import pulls from another module."""
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.ImportFrom):
                yield from (alias.name for alias in sub.names)


def _exported(tree):
    """The strings listed in a module's __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)} | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused


def test_every_private_module_level_name_is_referenced():
    dead = []
    for name, tree in TREES.items():
        for node in tree.body:
            for defined in _defined_names(node):
                if not defined.startswith("_") or defined.startswith("__"):
                    continue
                elsewhere = [n for t in TREES.values() for n in t.body if n is not node]
                if defined not in set(_references(elsewhere)):
                    dead.append(f"{name}:{node.lineno} {defined}")
    assert not dead
