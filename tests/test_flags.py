"""Every flag acts: each optional flag of each subcommand changes the exit
code or the output bytes, ``run.json`` aside, of some valid run, and
``--registry`` is taken, and digested, only where a registry is read.

The table has one row per flag, so a flag that no row drives, such as one
added to every subcommand whether it reads it or not, fails here.
"""

import argparse
import hashlib
import json
from pathlib import Path

import pytest

from multipar import __version__
from multipar.cli import build_parser, main
from multipar.corpus import save_corpus

from helpers import full_corpus

# output-invariant or run-plumbing flags, checked elsewhere
EXEMPT = {"out", "threads", "config", "json_errors"}

# a registry with another English pivot, and one with other families and tiers
PIVOT_REGISTRY = {
    "english_code": "eng",
    "languages": [{"code": c, "family": "Germanic", "tier": "High", "script": "Latn"}
                  for c in ("eng", "de", "nl")],
}
ALT_REGISTRY = {
    "english_code": "en",
    "languages": [{"code": c, "family": "Germanic", "tier": t, "script": "Latn"}
                  for c, t in (("en", "High"), ("de", "Low"), ("nl", "Medium"), ("fr", "Low"))],
}

CELLS = (("en", "de", 40), ("de", "en", 42), ("de", "nl", 30), ("nl", "de", 31),
         ("de", "fr", 25), ("fr", "nl", 27), ("nl", "fr", 24), ("fr", "de", 26))


def _scores(shift: int) -> str:
    return "src_lang\ttgt_lang\tmetric\tvalue\tcount\n" + "".join(
        f"{s}\t{t}\tchrf\t{v + shift * len(s + t)}\t10\n" for s, t, v in CELLS
    )


def _write_inputs(root: Path) -> None:
    """The inputs every row reads, under ``root``, which is the working
    directory of the runs."""
    (root / "bitexts").mkdir()
    for code in ("de", "nl"):
        (root / "bitexts" / f"{code}.tsv").write_text(
            "".join(f"sentence {i}\t{code} {i}\n" for i in range(6)), encoding="utf-8")
    save_corpus(full_corpus(["en", "de", "nl", "fr"], 8), root / "corpus")
    (root / "dicts").mkdir()
    for pivot in ("en", "eng"):
        for code in ("de", "nl", "fr"):
            # several words per headword, so the seed picks among them
            words = "".join(f"{w}{pivot}\t{code}{w}{k}\n"
                            for w in ("dog", "cat", "sun", "sea") for k in range(3))
            (root / "dicts" / f"{pivot}-{code}.txt").write_text(words, encoding="utf-8")
    (root / "sizes.tsv").write_text("de-en\t10\nnl-en\t300\nfr-en\t4000\n", encoding="utf-8")
    (root / "scores.tsv").write_text(_scores(0), encoding="utf-8")
    (root / "baseline.tsv").write_text(_scores(-1), encoding="utf-8")
    for name, registry in (("pivot.json", PIVOT_REGISTRY), ("alt.json", ALT_REGISTRY)):
        (root / name).write_text(json.dumps(registry), encoding="utf-8")


# each subcommand's required flags, sized small
BASE = {
    "mine": ["--bitexts", "bitexts"],
    "build-ft": ["--corpus", "corpus", "--threads", "1"],
    "probe-numbers": ["--lines", "2", "--threads", "1"],
    "probe-words": ["--dictionaries", "dicts", "--threads", "1"],
    "buckets": ["--corpus", "corpus", "--num-buckets", "2", "--threads", "1"],
    "mix": ["--sizes", "sizes.tsv", "--temperature", "5"],
    "lid-train": ["--corpus", "corpus", "--threads", "1"],
    "report": ["--scores", "scores.tsv"],
}

# (subcommand, flag): (the context the flag acts in, the flag with a value)
ROWS = {
    ("mine", "--registry"): ([], ["--registry", "pivot.json"]),
    ("build-ft", "--rows"): ([], ["--rows", "3"]),
    ("build-ft", "--tag"): ([], ["--tag", "one_tag"]),
    ("build-ft", "--format"): ([], ["--format", "split_files"]),
    ("build-ft", "--fraction"): ([], ["--fraction", "0.5"]),
    ("build-ft", "--family"): ([], ["--family", "Germanic"]),
    ("build-ft", "--exclude"): ([], ["--exclude", "nl"]),
    ("build-ft", "--no-english-centric"): ([], ["--no-english-centric"]),
    ("build-ft", "--registry"): (["--family", "Germanic"], ["--registry", "alt.json"]),
    ("build-ft", "--seed"): (["--rows", "3"], ["--seed", "1"]),
    ("probe-numbers", "--languages"): ([], ["--languages", "en", "de"]),
    ("probe-numbers", "--lines"): ([], ["--lines", "3"]),
    ("probe-numbers", "--token-budget"): ([], ["--token-budget", "40000"]),
    ("probe-numbers", "--tokens-per-line"): ([], ["--tokens-per-line", "4"]),
    ("probe-numbers", "--digit-min"): ([], ["--digit-min", "500"]),
    ("probe-numbers", "--digit-max"): ([], ["--digit-max", "20"]),
    ("probe-numbers", "--format"): (["--languages", "en", "de"], ["--format", "split_files"]),
    ("probe-numbers", "--fraction"): ([], ["--fraction", "0.5"]),
    ("probe-numbers", "--family"): ([], ["--family", "Germanic"]),
    ("probe-numbers", "--exclude"): ([], ["--exclude", "de"]),
    ("probe-numbers", "--no-english-centric"): ([], ["--no-english-centric"]),
    ("probe-numbers", "--registry"): ([], ["--registry", "alt.json"]),
    ("probe-numbers", "--seed"): ([], ["--seed", "1"]),
    ("probe-words", "--format"): ([], ["--format", "split_files"]),
    ("probe-words", "--fraction"): ([], ["--fraction", "0.5"]),
    ("probe-words", "--family"): ([], ["--family", "Germanic"]),
    ("probe-words", "--exclude"): ([], ["--exclude", "nl"]),
    ("probe-words", "--no-english-centric"): ([], ["--no-english-centric"]),
    ("probe-words", "--registry"): ([], ["--registry", "pivot.json"]),
    ("probe-words", "--seed"): ([], ["--seed", "1"]),
    ("buckets", "--languages"): (["--setting", "multi_parallel"], ["--languages", "de", "en"]),
    ("buckets", "--setting"): ([], ["--setting", "multi_parallel"]),
    ("buckets", "--bucket"): (["--setting", "multi_parallel"], ["--bucket", "1"]),
    ("buckets", "--format"): (["--setting", "multi_parallel"], ["--format", "split_files"]),
    ("buckets", "--seed"): ([], ["--seed", "1"]),
    ("mix", "--schedule-length"): ([], ["--schedule-length", "5"]),
    ("mix", "--seed"): (["--schedule-length", "20"], ["--seed", "1"]),
    ("lid-train", "--max-order"): ([], ["--max-order", "2"]),
    ("lid-train", "--alpha"): ([], ["--alpha", "0.5"]),
    ("report", "--baseline"): ([], ["--baseline", "baseline.tsv"]),
    ("report", "--scheme"): ([], ["--scheme", "english_centric"]),
    ("report", "--format"): ([], ["--format", "json"]),
    ("report", "--registry"): ([], ["--registry", "alt.json"]),
}


def _flags(parser: argparse.ArgumentParser):
    """``(subcommand, flag)`` of each optional, non-exempt flag."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in subparsers.choices.items():
        for action in subparser._actions:
            if (action.option_strings and not action.required
                    and action.dest not in EXEMPT | {"help"}):
                yield name, action.option_strings[0]


def test_every_optional_flag_has_a_row():
    flags = sorted(_flags(build_parser()))
    assert len(flags) == 43
    assert flags == sorted(ROWS)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Run a subcommand on argv in the inputs' directory, into a fresh
    ``--out``; return the exit code and every output file's bytes but
    ``run.json``'s.  Runs are cached by argv."""
    root = tmp_path_factory.mktemp("flags")
    _write_inputs(root)
    cache = {}

    def go(*argv, rerun=False):
        if (argv, rerun) not in cache:
            out = root / f"out{len(cache)}"
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            cache[argv, rerun] = code, {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.json"
            }
        return cache[argv, rerun]

    with pytest.MonkeyPatch.context() as mp:  # a module-scoped chdir
        mp.chdir(root)
        yield go


@pytest.mark.parametrize("subcommand, flag", sorted(ROWS), ids=[" ".join(r) for r in sorted(ROWS)])
def test_flag_changes_the_output(run, subcommand, flag):
    context, value = ROWS[subcommand, flag]
    base = (subcommand, *BASE[subcommand], *context)
    code, files = run(*base)
    assert code == 0 and files
    assert run(*base, *value) != (code, files)


@pytest.mark.parametrize("subcommand", sorted(BASE))
def test_a_rerun_into_another_out_writes_the_same_bytes(run, subcommand):
    # so the rows' differences come from their flags, not from --out
    assert run(subcommand, *BASE[subcommand]) == run(subcommand, *BASE[subcommand], rerun=True)


# --- --registry where a registry is read, and nowhere else ----------------------

# each subcommand that reads no registry, with its required flags
NO_REGISTRY = {
    "buckets": ["--corpus", "c", "--num-buckets", "2"],
    "tag": ["--dataset", "d", "--tag", "one_tag"],
    "mix": ["--sizes", "s.tsv", "--temperature", "5"],
    "score": ["--hypotheses", "h.txt", "--references", "r.txt", "--metric", "chrf",
              "--src-lang", "de", "--tgt-lang", "nl"],
    "lid-train": ["--corpus", "c"],
    "lid-eval": ["--model", "m.json", "--hypotheses", "h.tsv"],
    "ontarget": ["--model", "m.json", "--hypotheses", "h.tsv"],
}


@pytest.mark.parametrize("subcommand", sorted(NO_REGISTRY))
def test_registry_flag_is_a_usage_error_where_no_registry_is_read(tmp_path, subcommand):
    out = tmp_path / "out"
    argv = [subcommand, *NO_REGISTRY[subcommand], "--out", str(out)]
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--registry", str(tmp_path / "missing.json")])
    assert exc.value.code == 2
    assert not out.exists()


def test_config_registry_key_is_ignored_where_no_registry_is_read(tmp_path):
    (tmp_path / "sizes.tsv").write_text("de-en\t10\nnl-en\t30\n", encoding="utf-8")
    (tmp_path / "run.conf").write_text(f"registry = {tmp_path / 'missing.json'}\n",
                                       encoding="utf-8")
    out = tmp_path / "mix"
    assert main(["mix", "--sizes", str(tmp_path / "sizes.tsv"), "--temperature", "5",
                 "--config", str(tmp_path / "run.conf"), "--out", str(out)]) == 0
    assert "registry" not in json.loads((out / "run.json").read_text())["args"]


REGISTRY_FOR = {"mine": "pivot.json", "build-ft": "alt.json", "probe-numbers": "alt.json",
                "probe-words": "pivot.json", "report": "alt.json"}


@pytest.mark.parametrize("subcommand", sorted(REGISTRY_FOR))
def test_run_json_digests_the_registry(tmp_path, monkeypatch, subcommand):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    registry = REGISTRY_FOR[subcommand]

    def digests(out):
        assert main([subcommand, *BASE[subcommand], "--registry", registry, "--out", out]) == 0
        recorded = json.loads(Path(out, "run.json").read_text())["inputs"][registry]
        assert recorded == hashlib.sha256(Path(registry).read_bytes()).hexdigest()
        return recorded

    before = digests("before")
    # the same registry in other bytes
    Path(registry).write_text(json.dumps(json.loads(Path(registry).read_text()), indent=1))
    assert digests("after") != before


# sha256 of each run.json below, its version blanked, as written before the
# registry was digested: a run without --registry records no registry digest
RUN_JSON = {
    "build-ft": "ee2af09db6504876be048804c65f7d5c242cc7f6ddf4008fe7f5855c3d0edd57",
    "mine": "a5d7c395b1f41eaeff974dc9145038146f147a8c9b9ba84879935fc08cd19f2c",
    "probe-numbers": "07483116be303abda643160ac91b68580e97c45a1b26eefed430da319b3efcd6",
    "probe-words": "dbe888d3611b8d6f81a9c00e63b48d760b99720005475909185451bde71949a0",
    "report": "c76650d334c21451f74797dafc82bdf16156c83d4586c8240b2830208ba1c464",
}


@pytest.mark.parametrize("subcommand", sorted(REGISTRY_FOR))
def test_run_json_without_registry_is_unchanged(tmp_path, monkeypatch, subcommand):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main([subcommand, *BASE[subcommand], "--out", "out"]) == 0
    text = Path("out", "run.json").read_text().replace(f'"{__version__}"', '""', 1)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_JSON[subcommand]
