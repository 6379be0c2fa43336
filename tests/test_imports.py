"""Every module-level import of the package is used.

A name a module imports must be referenced in it or listed in its
``__all__``; a leftover import (a helper the code stopped calling, a type
that no signature names any more) fails here.  ``__init__.py`` re-exports
by importing and is exempt, as are ``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import ids_stability

MODULES = sorted(
    p for p in Path(ids_stability.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    unused = [name for name in _imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"
