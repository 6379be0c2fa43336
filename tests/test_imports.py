"""Every module-level import of the package is used, and no module of the
package imports scipy: numpy is its only run-time dependency.

A name a module imports must be referenced in it or listed in its
``__all__``; a leftover import (a helper the code stopped calling, a type
that no signature names any more) fails here.  ``__init__.py`` re-exports
by importing and is exempt, as are ``__future__`` imports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ids_stability

SRC = str(Path(ids_stability.__file__).parent.parent)
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


def test_no_package_module_imports_scipy():
    # the walk enters function bodies, so a local import is caught too
    importers = set()
    for path in Path(ids_stability.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == "scipy" for m in modules):
                importers.add(path.name)
    assert not importers


def test_model_imports_no_other_package_module():
    # model is the bottom layer: every other module may import it, so it
    # imports none of them, at module level or inside a function
    path = Path(ids_stability.__file__).parent / "model.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.partition(".")[0] == "ids_stability"]
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").partition(".")[0] == "ids_stability":
                imported.append("." * node.level + (node.module or ""))
    assert not imported, f"model.py imports {imported}"


def test_importing_the_package_and_cli_loads_no_scipy():
    code = "import sys, ids_stability, ids_stability.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
