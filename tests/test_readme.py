"""README drift guard: every ``multipar`` command in README's ``sh`` blocks
parses with the CLI's own parser, so a renamed flag or subcommand fails here
instead of leaving the docs stale, and the quickstart's data path runs as
written."""

import argparse
import json
import re
import shlex
from pathlib import Path

import pytest

from multipar.cli import build_parser, main
from multipar.datagen import TAGS

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


# a tag prefix as the strategies in TAGS write it
TAG = re.compile(r"<[^<>]*> ")


def test_readme_data_path_runs(tmp_path, monkeypatch):
    # the quickstart once tagged a tagged dataset, writing every tag twice
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bitexts").mkdir()
    for code in ("de", "fr", "nl"):
        (tmp_path / "bitexts" / f"{code}.tsv").write_text(
            "".join(f"sentence {i}\t{code} {i}\n" for i in range(120)), encoding="utf-8")
    runs = {}
    for command in readme_commands():
        argv = shlex.split(command, comments=True)[1:]
        runs.setdefault(argv[0], argv)
    for subcommand in ("mine", "build-ft", "tag"):
        assert main(runs[subcommand]) == 0, runs[subcommand]
    out = Path(runs["tag"][runs["tag"].index("--out") + 1])
    strategy = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["tag_strategy"]
    assert strategy != "none"
    records = (out / "records.tsv").read_text(encoding="utf-8").splitlines()
    assert records
    for record in records:
        src, tgt, *sides = record.split("\t")
        for template, text in zip(TAGS[strategy], sides):
            prefix = template.format(src=src, tgt=tgt)
            assert text.startswith(prefix) and not TAG.match(text[len(prefix):]), record
