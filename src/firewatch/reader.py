"""Every file the program reads or writes goes through this module.

``read_text`` reads config files; ``read`` reads scenario, plan and events
files as a ``Doc``, a JSON value with its path, whose typed accessors raise
``InputError`` naming that path (``plan routes[0].waypoints[3]: 40 is not an
id in [0, 40)``); text that is not UTF-8 JSON raises it naming the file.
``write_json`` indents by one space and ends in a newline, keys sorted in
reports, and refuses a NaN or infinite number with ``OutputError``;
``write_csv`` writes a header, then one "\r\n"-ended line per row.
"""

from __future__ import annotations

import csv
import json
import math

from .model import INT_LIMIT

_SHOWN_CHARS = 80       # an offending value echoed in a message is cut past this


class InputError(ValueError):
    """A bad input document or value; the message names where it is."""


class OutputError(ValueError):
    """A document that cannot be written as JSON; the message names its file."""


def read_text(path: str) -> str:
    """The UTF-8 text at ``path``, every line ending read as "\n"."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None


def read(path: str, schema_version: int, name: str) -> Doc:
    """The JSON document at ``path``, whose ``schema_version`` field must be
    ``schema_version``; ``name`` (for example ``"plan "``) starts every error
    message about it.  Text that is not UTF-8 JSON, nests too deep or holds
    an integer literal too long to convert raises InputError naming ``path``."""
    text = read_text(path)
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:     # JSONDecodeError, the digit limit
        raise InputError(f"{path}: {exc}") from None
    doc = Doc(value, name, "")
    version = doc["schema_version"]
    if version.integer() != schema_version:
        version.fail(f"unsupported value {shown(version.value)}, expected {schema_version}")
    return doc


def write_json(path: str, doc, sort_keys: bool = False) -> None:
    """``doc`` as JSON at ``path``: indented by one space, a final newline.
    A NaN or infinite number, which JSON cannot hold, raises OutputError
    naming ``path`` before the file is opened."""
    try:
        text = json.dumps(doc, indent=1, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise OutputError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")


def write_csv(path: str, fields: list[str], rows) -> None:
    """A header line of ``fields``, then one line per dict of ``rows``."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def shown(value) -> str:
    """The repr of ``value`` when it is at most _SHOWN_CHARS characters,
    else its first _SHOWN_CHARS characters and "...": an error message is
    one line, whatever the document held."""
    text = repr(value)
    return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."


class Doc:
    """A JSON value, the name of its document and its path in it."""

    __slots__ = ("value", "name", "path")

    def __init__(self, value, name: str, path: str):
        self.value, self.name, self.path = value, name, path

    def fail(self, message: str):
        raise InputError(f"{self.name}{self.path or 'document'}: {message}")

    def __getitem__(self, key: str) -> Doc:
        """The field ``key`` of an object; a missing key is an error."""
        if not isinstance(self.value, dict):
            self.fail("expected a JSON object")
        path = f"{self.path}.{key}" if self.path else key
        if key not in self.value:
            Doc(None, self.name, path).fail("missing required field")
        return Doc(self.value[key], self.name, path)

    def items(self) -> list[tuple[str, Doc]]:
        """The fields of an object."""
        if not isinstance(self.value, dict):
            self.fail("expected a JSON object")
        return [(key, self[key]) for key in self.value]

    def rows(self) -> list[Doc]:
        """The entries of an array."""
        if not isinstance(self.value, list):
            self.fail("expected a JSON array")
        return [Doc(v, self.name, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def number(self) -> float:
        """A finite number (a bool is not one), as a float."""
        v = self.value
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.fail(f"must be a number, got {shown(v)}")
        if not (math.isfinite(v) if isinstance(v, float) else abs(v) < INT_LIMIT):
            self.fail(f"must be finite, got {shown(v)}")
        return float(v)

    def integer(self, floor: int | None = None) -> int:
        """An integer, at least ``floor`` when given; a bool or a float is not one."""
        v, lo = self.value, -INT_LIMIT if floor is None else floor
        if isinstance(v, bool) or not isinstance(v, int) or not lo <= v < INT_LIMIT:
            self.fail(f"must be an integer{'' if floor is None else f' >= {floor}'}, "
                      f"got {shown(v)}")
        return v

    def id(self, bound: int) -> int:
        """An integer id in [0, bound); numpy would wrap a negative one silently."""
        v = self.value
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < bound:
            self.fail(f"{shown(v)} is not an id in [0, {bound})")
        return v

    def string(self) -> str:
        if not isinstance(self.value, str):
            self.fail(f"must be a string, got {shown(self.value)}")
        return self.value

    def id_map(self, key_bound: int, value_bound: int) -> dict[int, int]:
        """An object whose keys are decimal ids in [0, key_bound), each
        mapping to an id in [0, value_bound)."""
        out = {}
        for key, entry in self.items():
            path = f"{self.path}[{json.dumps(key)}]"
            # short enough that int() always parses it, without leading zeros
            if not (key.isascii() and key.isdigit() and len(key) < 19 and str(int(key)) == key):
                Doc(key, self.name, path).fail("key is not a decimal id")
            sid = Doc(int(key), self.name, path).id(key_bound)
            out[sid] = Doc(entry.value, self.name, path).id(value_bound)
        return out

    def build(self, factory, *args, **kwargs):
        """``factory(*args, **kwargs)``; a ValueError from a value type's own
        checks fails at this path."""
        try:
            return factory(*args, **kwargs)
        except ValueError as exc:
            self.fail(str(exc))
