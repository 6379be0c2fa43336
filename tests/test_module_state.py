"""No module of the package keeps mutable state behind a ``global``
statement: data derived from a system, a trajectory or a functional's
witness is cached on that immutable value, not in a module-level memo.
Any ``global`` fails here.
"""

import ast
from pathlib import Path

import ids_stability

ALLOWED = set()


def _functions_with_global(tree: ast.Module):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(node, ast.Global) for node in ast.walk(fn)):
                yield fn.name


def test_no_module_uses_global():
    found = {
        (path.name, name)
        for path in Path(ids_stability.__file__).parent.glob("*.py")
        for name in _functions_with_global(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED
