"""No module of the package, and no script, imports a name it never uses:
a leftover import keeps a dependency, and a reader's search for callers,
that the code no longer has.  An import statement marked ``# noqa: F401``
on one of its lines is a deliberate re-export and is not checked."""

from __future__ import annotations

import ast

import pytest

from test_private_imports import SOURCES


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each name ``source`` imports and never reads.

    A name is read when it appears as a name anywhere in the module, or as
    a string in ``__all__``; ``import a.b`` binds ``a``.  ``__future__``
    imports and statements marked ``# noqa: F401`` are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for a in node.names:
            bound = a.asname or a.name.split(".")[0]
            if bound != "*" and bound not in used:
                found.append((node.lineno, bound))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_imported_name_is_unused(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .model import distance_matrix, column_distances\n"
     "d = distance_matrix(a, b)\n", ["column_distances"]),
    ("import numpy as np\n", ["np"]),
    ("import os.path\nos.path.join('a')\n", []),
    ("from .model import x as y\nx = 1\n", ["y"]),
    ("def f():\n    from .timing import response_time\n    return 1\n", ["response_time"]),
    ("from .timing import (execution_time,  # noqa: F401\n    response_time)\n", []),
    ("from .scenario import generate\n__all__ = ['generate']\n", []),
    ("from __future__ import annotations\n", []),
    ("from .planner import Plan\ndef f(p: Plan) -> None:\n    pass\n", []),
])
def test_the_check_finds_each_unused_import(source, found):
    assert [name for _, name in unused_imports(source)] == found
