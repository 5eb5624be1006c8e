"""The README's CLI section names only flags the parser has."""

import argparse
import re
from pathlib import Path

from firewatch.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text: str, title: str) -> str:
    """The body of the ``## title`` section, up to the next ``## `` heading."""
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def _accepts(options: set[str], flag: str) -> bool:
    """Whether argparse takes ``flag`` as one of ``options``: the flag itself,
    or a prefix of exactly one of them."""
    return flag in options or len([o for o in options if o.startswith(flag)]) == 1


def _unknown_flags(cli_text: str) -> list[str]:
    """Each ``--flag`` inside a backticked span or fenced block of
    ``cli_text`` that no subcommand accepts."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    option_sets = [set(sp._option_string_actions) for sp in sub.choices.values()]
    spans = re.findall(r"```.*?```|`[^`]*`", cli_text, re.S)
    flags = {f for span in spans for f in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", span)}
    return sorted(f for f in flags if not any(_accepts(opts, f) for opts in option_sets))


def test_readme_cli_section_names_only_real_flags():
    cli_text = _section(README.read_text(encoding="utf-8"), "CLI")
    assert "`--se 1`" in cli_text      # an abbreviation counts as the flag it names
    assert _unknown_flags(cli_text) == []


def test_a_removed_flag_left_in_the_readme_is_caught():
    cli_text = _section(README.read_text(encoding="utf-8"), "CLI")
    assert _unknown_flags(cli_text + "\nThe distance weight (`--omega-d 0.7`).\n") == ["--omega-d"]
    # a prefix of two flags of every subcommand that has it is no flag
    assert _unknown_flags("`--omega 0.5`") == ["--omega"]
