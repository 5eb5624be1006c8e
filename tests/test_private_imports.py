"""No module of the package, and no script, imports a ``_``-prefixed name
from a ``firewatch`` module: a name one module shares with another is
public, so a rename or a change of meaning shows in the name.  Tests and
``bench/`` reach into internals on purpose and are not checked."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "firewatch"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def private_imports(source: str) -> list[tuple[int, str]]:
    """The (line, "module.name") of each ``_``-prefixed name ``source``
    imports from a firewatch module, relative imports included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] != "firewatch":
                continue
            # "from . import x" names ".x", "from .model import x" ".model.x"
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            found += [(node.lineno, prefix + a.name)
                      for a in node.names if a.name.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names
                      if a.name.split(".")[0] == "firewatch"
                      and any(part.startswith("_") for part in a.name.split("."))]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_name_is_imported(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, found", [
    ("from .emergency import _check, simulate\n", ".emergency._check"),
    ("from . import _private\n", "._private"),
    ("from firewatch.model import (AlgoParams,\n    _require)\n", "firewatch.model._require"),
    ("def main():\n    from firewatch.emergency import _check as check\n",
     "firewatch.emergency._check"),
    ("import firewatch._internal\n", "firewatch._internal"),
    ("from __future__ import annotations\nfrom os import _exit\n", None),
])
def test_the_check_finds_each_kind_of_import(source, found):
    assert [name for _, name in private_imports(source)] == ([found] if found else [])
