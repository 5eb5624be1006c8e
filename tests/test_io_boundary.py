"""One file boundary: ``firewatch.reader`` reads and writes every file the
program touches.  No other module of the package, and no script, opens a
file or calls a JSON or CSV reader or writer itself, so every output keeps
the one format ``write_json`` and ``write_csv`` give it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "firewatch"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
BOUNDARY = PACKAGE / "reader.py"

# the calls that open, read or write a file, or make or parse a file's text,
# by qualified name
FILE_CALLS = {"open", "io.open", "os.open", "json.dump", "json.dumps", "json.load",
              "json.loads", "csv.reader", "csv.writer", "csv.DictReader", "csv.DictWriter"}


def _qualified_names(tree: ast.AST) -> dict[str, str]:
    """Each name a module binds by import, mapped to what it names:
    ``import json as j`` binds j to "json", ``from csv import writer`` binds
    writer to "csv.writer"."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def file_calls(source: str) -> list[tuple[int, str]]:
    """The (line, qualified name) of each call in ``source`` that is in
    FILE_CALLS."""
    tree = ast.parse(source)
    names = _qualified_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = names.get(func.id, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            name = f"{names.get(func.value.id, func.value.id)}.{func.attr}"
        else:
            continue
        if name in FILE_CALLS:
            found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p != BOUNDARY],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_the_reader_touches_files(path):
    assert file_calls(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", [p for p in PACKAGE.glob("*.py") if p != BOUNDARY],
                         ids=lambda p: p.name)
def test_only_the_reader_imports_json_or_csv(path):
    names = _qualified_names(ast.parse(path.read_text(encoding="utf-8")))
    assert not {n.split(".")[0] for n in names.values()} & {"json", "csv"}


def test_the_reader_is_the_boundary():
    """The reader itself makes the calls: the check sees them."""
    calls = {name for _, name in file_calls(BOUNDARY.read_text(encoding="utf-8"))}
    assert calls == {"open", "json.dumps", "json.loads", "csv.DictWriter"}


@pytest.mark.parametrize("source, name", [
    ("import json\njson.dump(doc, f)\n", "json.dump"),
    ("from json import dumps\ndumps(doc)\n", "json.dumps"),
    ("import json as j\nj.loads(text)\n", "json.loads"),
    ("from json import load\nload(f)\n", "json.load"),
    ("import csv\ncsv.DictWriter(f, fieldnames=[])\n", "csv.DictWriter"),
    ("from csv import reader as r\nr(f)\n", "csv.reader"),
    ("with open(path) as f:\n    pass\n", "open"),
])
def test_the_check_finds_each_kind_of_call(source, name):
    assert [n for _, n in file_calls(source)] == [name]
