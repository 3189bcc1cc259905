"""Runnable doc examples name only options the CLI has.

Walks the fenced code blocks of the top-level docs and ``docs/*.md``,
takes every ``repro-bgp <verb> …`` command (lines continued with ``\\``
joined), and checks each ``--flag`` against :func:`build_parser`, so a
deleted option cannot leave a copy-paste recipe behind.  Prose mentions
of removed options are history and not scanned.
"""

import argparse
import hashlib
import re
import shlex
from collections import Counter
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
    """The lines inside fenced code blocks, with backslash continuations
    joined onto their first line."""
    inside = False
    pending = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if _FENCE.match(line):
            inside = not inside
            pending = None
            continue
        if not inside:
            continue
        text = line.strip() if pending is None else pending + " " + line.strip()
        if text.endswith("\\"):
            pending = text[:-1].rstrip()
            continue
        pending = None
        yield text


def _commands():
    """One case per command, keyed by file and command text (not line, so
    editing a doc does not rename its cases); a command repeated within a
    file gets an occurrence suffix ``#2``, ``#3``, …

    The id is ``FILE:DIGEST TEXT``: six hex digits of the keyed text's
    SHA-1 come first, so cases stay distinct in reports that cut a test
    name at 100 characters (``campaign --scale full -o …`` appears with
    several tails in one file)."""
    found = []
    seen = Counter()
    for path in DOCS:
        for text in _fenced_lines(path):
            at = text.find("repro-bgp ")
            if at < 0 or text[at - 1 : at] == "`":  # inline code in a listing
                continue
            command = _COMMAND_END.split(text[at:], maxsplit=1)[0]
            try:
                words = shlex.split(command)
            except ValueError:
                words = command.split()
            key = " ".join(command.split()[1:])
            seen[path.name, key] += 1
            if seen[path.name, key] > 1:
                key += f"#{seen[path.name, key]}"
            digest = hashlib.sha1(key.encode()).hexdigest()[:6]
            found.append(pytest.param(words[1:], id=f"{path.name}:{digest} {key}"))
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
