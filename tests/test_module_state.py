"""No module of the package keeps mutable state behind a ``global``
statement: data derived from a system or a trajectory is cached on that
immutable value, not in a module-level memo.

One ``global`` remains, the folded-matrix memo of
``simulator._functional_terms``.  Its key compares the caller's witness
dict by value, and the functional API that evaluates an array of times
(ROADMAP item 5) removes it.  Any other ``global`` fails here.
"""

import ast
from pathlib import Path

import ids_stability

ALLOWED = {("simulator.py", "_functional_terms")}


def _functions_with_global(tree: ast.Module):
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(node, ast.Global) for node in ast.walk(fn)):
                yield fn.name


def test_only_the_functional_memo_uses_global():
    found = {
        (path.name, name)
        for path in Path(ids_stability.__file__).parent.glob("*.py")
        for name in _functions_with_global(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED
