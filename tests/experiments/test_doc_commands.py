"""Runnable doc examples name only options the CLI has.

Walks the fenced code blocks of the top-level docs and ``docs/*.md``,
takes every ``repro-bgp <verb> …`` command (lines continued with ``\\``
joined), and checks each ``--flag`` against :func:`build_parser`, so a
deleted option cannot leave a copy-paste recipe behind.  Prose mentions
of removed options are history and not scanned.
"""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")] + sorted(
    (ROOT / "docs").glob("*.md")
)

_FENCE = re.compile(r"^\s*(```|~~~)")
#: Where a command ends within its line: shell operators and comments.
_COMMAND_END = re.compile(r"\s(?:\|\|?|&&?|;|2?>|#)(?:\s|$)")


def _fenced_lines(path: Path):
    """``(line number, text)`` of the lines inside fenced code blocks,
    with backslash continuations joined onto their first line."""
    inside = False
    pending = None
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if _FENCE.match(line):
            inside = not inside
            pending = None
            continue
        if not inside:
            continue
        if pending is not None:
            start, text = pending
            text += " " + line.strip()
        else:
            start, text = number, line.strip()
        if text.endswith("\\"):
            pending = (start, text[:-1].rstrip())
            continue
        pending = None
        yield start, text


def _commands():
    found = []
    for path in DOCS:
        for number, text in _fenced_lines(path):
            at = text.find("repro-bgp ")
            if at < 0 or text[at - 1 : at] == "`":  # inline code in a listing
                continue
            command = _COMMAND_END.split(text[at:], maxsplit=1)[0]
            try:
                words = shlex.split(command)
            except ValueError:
                words = command.split()
            found.append(
                pytest.param(words[1:], id=f"{path.name}:{number}")
            )
    return found


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _options(parser: argparse.ArgumentParser) -> set:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--")
    }


COMMANDS = _commands()


def test_the_docs_hold_commands():
    assert len(COMMANDS) >= 20


@pytest.mark.parametrize("words", COMMANDS)
def test_doc_command_flags_exist(words):
    parser = build_parser()
    known = _options(parser)
    rest = list(words)
    if rest and not rest[0].startswith("-"):
        assert rest[0] in _subcommands(parser), f"no such verb: {rest[0]}"
    # Descend through the verb (and a sub-verb such as `topology generate`).
    while rest and rest[0] in _subcommands(parser):
        parser = _subcommands(parser)[rest.pop(0)]
        known |= _options(parser)
    flags = [word.split("=", 1)[0] for word in rest if word.startswith("--")]
    unknown = [flag for flag in flags if flag not in known]
    assert not unknown, f"repro-bgp {' '.join(words)}: unknown {unknown}"
