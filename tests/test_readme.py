"""README drift guard: every ``multipar`` command in README's ``sh`` blocks
parses with the CLI's own parser, so a renamed flag or subcommand fails here
instead of leaving the docs stale, and the quickstart's data path runs as
written."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import multipar
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


def _write_bitexts(root: Path) -> None:
    (root / "bitexts").mkdir()
    for code in ("de", "fr", "nl"):
        (root / "bitexts" / f"{code}.tsv").write_text(
            "".join(f"sentence {i}\t{code} {i}\n" for i in range(120)), encoding="utf-8")


def data_path() -> list[list[str]]:
    """The first ``mine``, ``build-ft`` and ``tag`` commands of README, in
    that order, as argv lists."""
    runs = {}
    for command in readme_commands():
        argv = shlex.split(command, comments=True)[1:]
        runs.setdefault(argv[0], argv)
    return [runs[subcommand] for subcommand in ("mine", "build-ft", "tag")]


def test_readme_data_path_runs(tmp_path, monkeypatch):
    # the quickstart once tagged a tagged dataset, writing every tag twice
    monkeypatch.chdir(tmp_path)
    _write_bitexts(tmp_path)
    for argv in data_path():
        assert main(argv) == 0, argv
    tag = data_path()[-1]
    out = Path(tag[tag.index("--out") + 1])
    strategy = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["tag_strategy"]
    assert strategy != "none"
    records = (out / "records.tsv").read_text(encoding="utf-8").splitlines()
    assert records
    for record in records:
        src, tgt, *sides = record.split("\t")
        for template, text in zip(TAGS[strategy], sides):
            prefix = template.format(src=src, tgt=tgt)
            assert text.startswith(prefix) and not TAG.match(text[len(prefix):]), record


def test_readme_data_path_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # the other determinism tests run in one process, under one hash seed;
    # this runs the data path in two, with string hashing seeded apart
    package_root = str(Path(multipar.__file__).resolve().parent.parent)
    script = ("import json, sys\nfrom multipar.cli import main\n"
              "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))")
    files = []
    for seed in ("0", "1"):
        root = tmp_path / seed
        root.mkdir()
        _write_bitexts(root)
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": package_root}
        subprocess.run([sys.executable, "-c", script, json.dumps(data_path())],
                       cwd=root, env=env, check=True)
        files.append({str(p.relative_to(root)): p.read_bytes()
                      for p in sorted(root.rglob("*")) if p.is_file()})
    assert len(files[0]) > 10 and files[0] == files[1]
