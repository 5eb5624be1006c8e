"""Only production code in the package: every module-level function and class
in ``src/firewatch`` is used by the program, its scripts or its benchmark.
A check or an experiment that only the tests run lives under ``tests/``.

A name counts as used when some non-test file under ``src/``, ``scripts/``
or ``bench/`` mentions it outside its own definition: as a name, an
attribute, an imported name, or a part of a dotted string (the benchmark's
tracer looks names up from strings).  Names are matched by spelling, not
resolved to their module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "firewatch"
USERS = sorted(p for d in ("src", "scripts", "bench") for p in (ROOT / d).rglob("*.py")
               if not p.name.startswith("test_"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentions(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier ``tree`` mentions, leaving out the subtree ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(part for part in node.value.split(".") if part.isidentifier())
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_definitions(module: Path, trees: dict[Path, ast.AST]) -> list[str]:
    """The module-level functions and classes of ``module`` that no file in
    ``trees`` mentions outside their own definition."""
    elsewhere = set().union(*(mentions(t) for p, t in trees.items() if p != module))
    tree = trees[module]
    return [node.name for node in tree.body
            if isinstance(node, DEFINITIONS)
            and node.name not in elsewhere and node.name not in mentions(tree, skip=node)]


@pytest.fixture(scope="module")
def trees():
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in USERS}


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_has_a_production_user(module, trees):
    assert unused_definitions(module, trees) == []


def test_the_check_finds_a_definition_only_tests_use(trees):
    """A function that only its own body and a test mention is reported;
    one mentioned in a dotted string, or by another file, is not."""
    module = PACKAGE / "example.py"
    source = ("def lonely():\n    return lonely()\n\n"
              "def wrapped():\n    pass\n\n"
              "class Used:\n    pass\n")
    user = ("from firewatch.example import Used\n"
            "WRAP = ('firewatch.example', 'wrapped')\n")
    trees = {module: ast.parse(source), ROOT / "scripts" / "user.py": ast.parse(user),
             ROOT / "tests" / "test_x.py": ast.parse("from firewatch.example import lonely\n")}
    used = {p: t for p, t in trees.items() if not p.name.startswith("test_")}
    assert unused_definitions(module, used) == ["lonely"]
