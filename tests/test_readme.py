"""README drift guard: every ``multipar`` command in README's ``sh`` blocks
parses with the CLI's own parser, so a renamed flag or subcommand fails here
instead of leaving the docs stale."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from multipar.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands() -> list[str]:
    """Each ``multipar ...`` command of README's ``sh`` blocks, with its
    backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("multipar "):
                commands.append(line)
    return commands


def test_readme_lists_every_documented_command():
    assert len(readme_commands()) == 12


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_parses(command):
    argv = shlex.split(command, comments=True)[1:]
    parser = build_parser()
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for subparser in subparsers.choices.values():
        subparser.allow_abbrev = False  # a flag's old name may be a prefix of its new one
    try:
        parser.parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {command}")
