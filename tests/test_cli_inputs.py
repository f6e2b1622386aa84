"""Hostile text and JSON inputs through ``main()``: exit 0 or 1 with a typed
message naming the file, never a traceback."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar.corpus import MultiParallelCorpus, save_corpus
from multipar import cli
from multipar.cli import main

from helpers import full_corpus, synthetic_sentences

SCORE_HEADER = b"src_lang\ttgt_lang\tmetric\tvalue\tcount\n"

# byte strings biased towards the separators, codes and numbers the inputs hold
TOKENS = [
    b"\n", b"\r", b"\r\n", b"\t", b" ", b"=", b"#", b"-", b"de", b"nl", b"en", b"aa",
    b"bb", b"aa-bb", b"dog", b"Hund", b"0", b"1", b"-1", b"1e308", b"nan", b"inf",
    b"x", b"\xc3\xa9", b"\xff", b"\xc3", b"\x00", b"\x0b", b"\xc2\x85", SCORE_HEADER,
]
FILE_BYTES = st.one_of(
    st.binary(max_size=48),
    st.lists(st.sampled_from(TOKENS), max_size=24).map(b"".join),
)


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def lid_model(tmp_path_factory):
    root = tmp_path_factory.mktemp("lid")
    for code, alphabet in (("aa", "abcdefgh"), ("bb", "qrstuvwx")):
        lines = synthetic_sentences(alphabet, 30, seed=len(alphabet) + ord(code[0]))
        write(root / "corpus" / f"{code}.txt", "".join(s + "\n" for s in lines))
    assert main(["lid-train", "--corpus", str(root / "corpus"), "--out", str(root / "model")]) == 0
    return root / "model" / "lid_model.json"


def stage(kind, root, model):
    """``(argv, path, first)``: the argv of a run that reads the input
    ``kind`` at ``path``, and a valid first line for it.  Every other input
    of the run is written valid."""
    if kind == "bitext":
        write(root / "bitexts" / "de.tsv", "hello\thallo\nbye\ttschüss\n")
        argv = ["mine", "--bitexts", str(root / "bitexts")]
        path, first = root / "bitexts" / "nl.tsv", b"hello\thallo"
    elif kind == "corpus column":
        save_corpus(full_corpus(["en", "de", "nl"], 3), root / "corpus")
        argv = ["build-ft", "--corpus", str(root / "corpus")]
        path, first = root / "corpus" / "de.txt", b"x"
    elif kind == "dictionary":
        write(root / "dicts" / "en-de.txt", "dog Hund\ncat Katze\n")
        argv = ["probe-words", "--dictionaries", str(root / "dicts")]
        path, first = root / "dicts" / "en-nl.txt", b"dog hond"
    elif kind == "sizes":
        path, first = root / "sizes.tsv", b"a\t1"
        argv = ["mix", "--sizes", str(path), "--temperature", "2", "--schedule-length", "3"]
    elif kind == "records.tsv":
        path, first = root / "dataset" / "records.tsv", b"de\tnl\ta\tb"
        path.parent.mkdir(exist_ok=True)
        argv = ["tag", "--dataset", str(path.parent), "--tag", "two_tag"]
    elif kind == "score TSV":
        path, first = root / "scores.tsv", SCORE_HEADER.rstrip()
        argv = ["report", "--scores", str(path)]
    elif kind in ("lid-eval", "ontarget"):
        path = root / "hyps.tsv"
        first = b"aa\tabc" if kind == "lid-eval" else b"aa-bb\t0\tabc"
        argv = [kind, "--model", str(model), "--hypotheses", str(path)]
    elif kind in ("hypotheses", "references"):
        other = "references" if kind == "hypotheses" else "hypotheses"
        write(root / other, "the cat\nsat on the mat\n")
        path, first = root / kind, b"a cat"
        argv = ["score", f"--{kind}", str(path), f"--{other}", str(root / other),
                "--metric", "chrfpp", "--src-lang", "de", "--tgt-lang", "en"]
    elif kind == "config":
        write(root / "sizes.tsv", "a\t1\nb\t3\n")
        path, first = root / "run.cfg", b"# a comment"
        argv = ["mix", "--sizes", str(root / "sizes.tsv"), "--temperature", "1",
                "--config", str(path)]
    else:
        raise AssertionError(kind)
    return [*argv, "--out", str(root / "out")], path, first


KINDS = [
    "bitext", "corpus column", "dictionary", "sizes", "records.tsv", "score TSV",
    "lid-eval", "ontarget", "hypotheses", "references", "config",
]


def run(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a config value
        return exc.code


@pytest.mark.parametrize("kind", KINDS)
def test_undecodable_input_names_file_and_line(kind, tmp_path, lid_model, capsys):
    argv, path, first = stage(kind, tmp_path, lid_model)
    path.write_bytes(first + b"\nok \xff\n")
    assert run(argv) == 1
    assert f"{path}:2: invalid UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=FILE_BYTES)
@example(data=b"de\t1e308\nnl\t1e308\n")  # sizes summing past the float range
def test_any_bytes_exit_0_or_1(kind, tmp_path_factory, lid_model, data):
    argv, path, _ = stage(kind, tmp_path_factory.mktemp("fuzz"), lid_model)
    path.write_bytes(data)
    assert run(argv) in ((0, 1, 2) if kind == "config" else (0, 1))


# --- accepted inputs: one blank-line policy ------------------------------------------


@pytest.mark.parametrize(
    "kind, data",
    [
        ("bitext", b"\nhello\thallo\n \n\r\nbye\tdoei\n"),
        ("records.tsv", b"de\tnl\ta\tb\n\n \t \nde\tnl\tc\td\n\n"),
        ("score TSV", SCORE_HEADER + b"\n \nde\tnl\tchrf\t40\t10\n\n"),
        ("lid-eval", b"aa\tabc\n\n  \nbb\tqrs\n"),
        ("ontarget", b"aa-bb\t0\tabc\n\naa-bb\t1\tqrs\n\r"),
    ],
    ids=["bitext", "records.tsv", "score TSV", "lid-eval", "ontarget"],
)
def test_record_files_skip_blank_lines(kind, data, tmp_path, lid_model):
    argv, path, _ = stage(kind, tmp_path, lid_model)
    path.write_bytes(data)
    assert run(argv) == 0


def test_line_aligned_files_keep_blank_lines(tmp_path, lid_model):
    argv, path, _ = stage("hypotheses", tmp_path, lid_model)
    path.write_text("the cat\n\n", encoding="utf-8")
    assert run(argv) == 0  # two lines, like the references
    path.write_text("the cat\n", encoding="utf-8")
    assert run(argv) == 1


def test_sizes_record_with_empty_fields_is_an_error(tmp_path, lid_model, capsys):
    argv, path, _ = stage("sizes", tmp_path, lid_model)
    path.write_text("a\t1\n\t\nb\t2\n", encoding="utf-8")
    assert run(argv) == 1
    assert f"{path}:2: could not convert" in capsys.readouterr().err


# --- config --------------------------------------------------------------------


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read {cfg}: "), (b"seed = 1\nseed 2\n", "{cfg}:2: expected key = value"),
     (b"seed = 1\n\xff\n", "{cfg}:2: invalid UTF-8")],
    ids=["missing", "no-equals", "undecodable"],
)
@pytest.mark.parametrize("json_errors", [False, True])
def test_config_errors_exit_1_naming_the_file(
    tmp_path, lid_model, capsys, content, message, json_errors
):
    argv, cfg, _ = stage("config", tmp_path, lid_model)
    if content is not None:
        cfg.write_bytes(content)
    assert run(argv + ["--json-errors"] * json_errors) == 1
    err = capsys.readouterr().err
    assert message.format(cfg=cfg) in (json.loads(err)["message"] if json_errors else err)
    assert not (tmp_path / "out").exists()


def test_invalid_config_value_stays_a_usage_error(tmp_path, lid_model):
    argv, cfg, _ = stage("config", tmp_path, lid_model)
    cfg.write_text("seed = x\n", encoding="utf-8")
    assert run(argv) == 2


def test_config_keys_that_name_no_flag_are_ignored(tmp_path, lid_model):
    # func and subcommand are parser defaults, not flags: they were passed
    # on as --func and --subcommand, a usage error
    argv, cfg, _ = stage("config", tmp_path, lid_model)
    cfg.write_text("func = x\ninputs = y\nsubcommand = z\nhelp = true\n", encoding="utf-8")
    assert run(argv) == 0


# --- JSON inputs ---------------------------------------------------------------


def json_error(argv, capsys) -> dict:
    assert main(argv + ["--json-errors"]) == 1
    return json.loads(capsys.readouterr().err)


@pytest.mark.parametrize(
    "argv", [["build-ft"], ["buckets", "--num-buckets", "2"], ["lid-train"]],
    ids=["build-ft", "buckets", "lid-train"],
)
@pytest.mark.parametrize(
    "manifest, message",
    [("{}", ': "languages" must be a list'), ("[1]", ": expected a JSON object"),
     ('{"languages": ["en", "de"], "row_ids": [true]}', ': "row_ids" must be a list'),
     ("{", ":1:2: Expecting property name"),
     ('{"languages": ["en", "de", "de"]}', ": language code 'de' is listed twice")],
    ids=["no-languages", "list", "row-ids", "malformed", "duplicate-code"],
)
def test_bad_corpus_manifest_is_a_corpus_error(tmp_path, capsys, argv, manifest, message):
    corpus = tmp_path / "corpus"
    save_corpus(full_corpus(["en", "de", "nl"], 4), corpus)
    write(corpus / "manifest.json", manifest)
    envelope = json_error([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "out")], capsys)
    assert envelope["error"] == "CorpusError"
    assert f"{corpus / 'manifest.json'}{message}" in envelope["message"]


@pytest.mark.parametrize("code", ["../outside", "..", ".", "", "sub/de", "/outside"])
def test_manifest_code_that_is_not_a_file_name_is_a_corpus_error(tmp_path, capsys, code):
    corpus = tmp_path / "corpus"
    save_corpus(full_corpus(["en", "de", "nl"], 4), corpus)
    # a well-formed column the code would reach outside the corpus directory
    write(tmp_path / "outside.txt", (corpus / "nl.txt").read_text(encoding="utf-8"))
    write(corpus / "manifest.json", json.dumps({"languages": ["en", "de", code]}))
    out = tmp_path / "out"
    envelope = json_error(["build-ft", "--corpus", str(corpus), "--out", str(out)], capsys)
    assert envelope["error"] == "CorpusError"
    assert envelope["message"] == (
        f"{corpus / 'manifest.json'}: language code {code!r} is not a file name"
    )
    assert not out.exists()


def test_mine_without_a_shared_pivot_is_an_error(tmp_path, capsys):
    bitexts = tmp_path / "bitexts"
    write(bitexts / "de.tsv", "hello\thallo\n")
    write(bitexts / "nl.tsv", "bye\tdoei\n")
    out = tmp_path / "mined"
    envelope = json_error(["mine", "--bitexts", str(bitexts), "--out", str(out)], capsys)
    assert envelope["error"] == "CorpusError"
    assert envelope["message"] == (
        f"no English pivot is shared by every bitext ({bitexts / 'de.tsv'}, {bitexts / 'nl.tsv'})"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "manifest, message", [("[1]", ": expected a JSON object"), ("", ":1:1: Expecting value")],
    ids=["list", "empty"],
)
def test_bad_dataset_manifest_is_a_datagen_error(tmp_path, capsys, manifest, message):
    write(tmp_path / "records.tsv", "de\tnl\ta\tb\n")
    write(tmp_path / "manifest.json", manifest)
    argv = ["tag", "--dataset", str(tmp_path), "--tag", "one_tag", "--out", str(tmp_path / "out")]
    envelope = json_error(argv, capsys)
    assert envelope["error"] == "DatagenError"
    assert f"{tmp_path / 'manifest.json'}{message}" in envelope["message"]


@pytest.mark.parametrize("command", ["lid-eval", "ontarget"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: {"schema_version": 1}, "'languages' is missing"),
        (lambda m: [m], "expected a JSON object"),
        (lambda m: {**m, "max_order": "3"}, "'max_order' is missing or not"),
        (lambda m: {**m, "priors": {"aa": 0.5}}, "name different languages"),
        (lambda m: {**m, "priors": {"aa": 0.5, "bb": "x"}}, "priors must be positive"),
        (lambda m: {**m, "vocab_sizes": [1]}, "vocab_sizes must be 3 integers"),
        (lambda m: {**m, "counts": {**m["counts"], "bb": [{}]}}, "counts must hold 3 tables"),
        (lambda m: {**m, "counts": {**m["counts"], "bb": [{"q": "1"}, {}, {}]}},
         "counts must hold 3 tables"),
        # each of these passed the load check and failed only at scoring
        (lambda m: {**m, "priors": {"aa": math.inf, "bb": 0.5}}, "priors must be positive"),
        (lambda m: {**m, "vocab_sizes": [0, 0, 0], "counts": {c: [{}, {}, {}] for c in m["counts"]}},
         "vocab_sizes must be 3 integers >= 1"),
        (lambda m: {**m, "counts": {**m["counts"], "bb": [{"a": -1}, {}, {}]}},
         "integer counts >= 0"),
        (lambda m: {**m, "counts": {**m["counts"], "bb": [{"a": 10**400}, {}, {}]}},
         "an unseen n-gram gets probability 0"),
        (lambda m: {**m, "alpha": 5e-324}, "an unseen n-gram gets probability 0"),
    ],
    ids=["empty", "list", "max_order", "priors", "prior", "vocab", "tables", "count",
         "infinite-prior", "zero-vocab", "negative-count", "huge-count", "tiny-alpha"],
)
def test_bad_lid_model_is_a_lid_error(tmp_path, lid_model, capsys, command, edit, message):
    argv, hyps, first = stage(command, tmp_path, lid_model)
    hyps.write_bytes(first + b"\n")
    model = tmp_path / "lid_model.json"
    write(model, json.dumps(edit(json.loads(lid_model.read_text(encoding="utf-8")))))
    envelope = json_error([a if a != str(lid_model) else str(model) for a in argv], capsys)
    assert envelope["error"] == "LidError"
    assert envelope["message"].startswith(f"{model}: ") and message in envelope["message"]


def test_lid_train_alpha_too_small_for_the_counts_is_a_lid_error(tmp_path, lid_model, capsys):
    # every load of such a model fails, so training must not write it
    corpus = lid_model.parent.parent / "corpus"
    out = tmp_path / "model"
    argv = ["lid-train", "--corpus", str(corpus), "--alpha", "5e-324", "--out", str(out)]
    envelope = json_error(argv, capsys)
    assert envelope["error"] == "LidError"
    assert envelope["message"] == (
        "an unseen n-gram gets probability 0: counts too large for alpha 5e-324"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "registry, message",
    [
        ('{"languages": [{"code": "en", "tier": "High", "script": "Latn"}]}',
         ": language 0 lacks"),
        ('{"languages": [{"code": "en", "family": "G", "tier": "High", "script": 1}]}',
         ": language 0 lacks"),
        ('{"languages": {}}', ': "languages" must be a list'),
        ("[]", ": expected a JSON object"),
        ('{"languages": [\n  {"code": "en",}\n]}', ":2:17: Expecting property name"),
    ],
    ids=["no-family", "int-script", "languages-object", "list", "malformed"],
)
def test_bad_registry_is_a_registry_error(tmp_path, capsys, registry, message):
    path = tmp_path / "registry.json"
    write(path, registry)
    argv = ["probe-numbers", "--languages", "en", "de", "--registry", str(path),
            "--out", str(tmp_path / "out")]
    envelope = json_error(argv, capsys)
    assert envelope["error"] == "RegistryError"
    assert envelope["message"].startswith(f"{path}{message}")


# --- language codes ------------------------------------------------------------


@pytest.mark.parametrize(
    "line", ["\tnl\tx\ty", "de\t\tx\ty", "de\tde\tx\ty"], ids=["no-src", "no-tgt", "same"]
)
def test_tag_rejects_bad_direction_with_file_line(tmp_path, capsys, line):
    write(tmp_path / "records.tsv", f"de\tnl\ta\tb\n{line}\n")
    argv = ["tag", "--dataset", str(tmp_path), "--tag", "one_tag", "--out", str(tmp_path / "out")]
    envelope = json_error(argv, capsys)
    assert envelope["error"] == "DatagenError"
    assert envelope["message"].startswith(f"{tmp_path / 'records.tsv'}:2: direction with")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
@pytest.mark.parametrize("subcommand", ["probe-numbers", "score"])
def test_language_code_with_a_tab_or_line_break_is_an_error(tmp_path, capsys, subcommand, char):
    # both exited 0 with a records.tsv or scores.tsv that tag or report rejected
    code = f"a{char}b"
    if subcommand == "probe-numbers":
        argv = ["probe-numbers", "--languages", code, "de", "--lines", "1"]
    else:
        write(tmp_path / "hyp", "the cat\n")
        argv = ["score", "--hypotheses", str(tmp_path / "hyp"), "--references",
                str(tmp_path / "hyp"), "--metric", "chrf", "--src-lang", code, "--tgt-lang", "de"]
    out = tmp_path / "out"
    envelope = json_error([*argv, "--out", str(out)], capsys)
    assert envelope["error"] == "DatagenError"
    assert envelope["message"].startswith("direction with a tab or line break in a language code")
    assert not out.exists()


def test_score_on_empty_files_names_both(tmp_path, capsys):
    for name in ("hyp", "ref"):
        write(tmp_path / name, "")
    argv = ["score", "--hypotheses", str(tmp_path / "hyp"), "--references", str(tmp_path / "ref"),
            "--metric", "bleu", "--src-lang", "de", "--tgt-lang", "en", "--out", str(tmp_path / "out")]
    envelope = json_error(argv, capsys)
    assert envelope == {
        "error": "MetricError",
        "message": f"no lines to score in {tmp_path / 'hyp'} and {tmp_path / 'ref'}",
    }


# --- a failing run leaves --out as it found it -------------------------------------


def failing_run(subcommand, root, model):
    """The argv, without ``--out``, of a ``subcommand`` run that exits 1."""
    corpus = root / "corpus"
    save_corpus(full_corpus(["en", "de", "nl"], 6), corpus)
    if subcommand == "mine":
        write(root / "bitexts" / "de.tsv", "hello\thallo\n")
        write(root / "bitexts" / "nl.tsv", "bye\tdoei\n")
        return ["mine", "--bitexts", str(root / "bitexts")]
    if subcommand == "build-ft":
        return ["build-ft", "--corpus", str(corpus), "--rows", "7"]
    if subcommand == "probe-numbers":
        return ["probe-numbers", "--languages", "a\tb", "de", "--lines", "1"]
    if subcommand == "probe-words":
        write(root / "dicts" / "en-de.txt", "dog Hund\n")
        return ["probe-words", "--dictionaries", str(root / "dicts")]
    if subcommand == "buckets-multi_parallel":
        return ["buckets", "--corpus", str(corpus), "--num-buckets", "2",
                "--setting", "multi_parallel", "--bucket", "9"]
    if subcommand == "buckets-multi_directional":
        # 3 languages give 3 pairs, for 4 buckets
        return ["buckets", "--corpus", str(corpus), "--num-buckets", "4",
                "--setting", "multi_directional"]
    if subcommand == "tag":
        write(root / "dataset" / "records.tsv", "de\tnl\ta\tb\nde\tde\ta\tb\n")
        return ["tag", "--dataset", str(root / "dataset"), "--tag", "one_tag"]
    if subcommand == "mix":
        write(root / "sizes.tsv", "a\t1\nb\t3\n")
        return ["mix", "--sizes", str(root / "sizes.tsv"), "--temperature", "1",
                "--schedule-length", "-3"]
    if subcommand == "score":
        write(root / "hyp", "a\nb\n")
        write(root / "ref", "a\n")
        return ["score", "--hypotheses", str(root / "hyp"), "--references", str(root / "ref"),
                "--metric", "chrf", "--src-lang", "de", "--tgt-lang", "en"]
    if subcommand == "lid-train":
        return ["lid-train", "--corpus", str(corpus), "--alpha", "nan"]
    if subcommand == "lid-eval":
        write(root / "hyps.tsv", "aa\tabc\nzz\tabc\n")
        return ["lid-eval", "--model", str(model), "--hypotheses", str(root / "hyps.tsv")]
    if subcommand == "ontarget":
        write(root / "hyps.tsv", "aa-bb\t0\tabc\naa-bb\t0\tqrs\n")
        return ["ontarget", "--model", str(model), "--hypotheses", str(root / "hyps.tsv")]
    if subcommand == "report":
        write(root / "scores.tsv", SCORE_HEADER.decode() + "de\tnl\tchrf\t1e308\t1\n"
              "nl\tde\tchrf\t1e308\t1\n")
        return ["report", "--scores", str(root / "scores.tsv")]
    raise AssertionError(subcommand)


@pytest.mark.parametrize(
    "subcommand",
    ["mine", "build-ft", "probe-numbers", "probe-words", "buckets-multi_parallel",
     "buckets-multi_directional", "tag", "mix", "score", "lid-train", "lid-eval", "ontarget",
     "report"],
)
def test_a_failing_run_leaves_out_as_it_found_it(tmp_path, lid_model, subcommand):
    argv = failing_run(subcommand, tmp_path, lid_model)
    new = tmp_path / "new" / "nested" / "out"
    assert main([*argv, "--out", str(new)]) == 1
    assert not (tmp_path / "new").exists()
    old = tmp_path / "old"
    old.mkdir()
    (old / "sentinel").write_text("kept\n", encoding="utf-8")
    assert main([*argv, "--out", str(old)]) == 1
    assert [p.name for p in old.iterdir()] == ["sentinel"]
    assert (old / "sentinel").read_text(encoding="utf-8") == "kept\n"
    # the staging directory is hidden
    assert [p for p in tmp_path.rglob(".*")] == []


def test_a_failing_run_keeps_what_another_run_wrote_into_a_parent_it_made(tmp_path, monkeypatch):
    # two runs into fresh siblings both find res/scores missing; the one that
    # fails must not remove the other's committed outputs
    sibling = tmp_path / "res" / "scores" / "de-nl"

    def fails_after_a_sibling_commits(args, staging):
        sibling.mkdir()
        (sibling / "scores.tsv").write_text("kept\n", encoding="utf-8")
        raise ValueError("failed")

    monkeypatch.setattr(cli, "cmd_mix", fails_after_a_sibling_commits)
    write(tmp_path / "sizes.tsv", "a\t1\n")
    out = tmp_path / "res" / "scores" / "de-fr"
    argv = ["mix", "--sizes", str(tmp_path / "sizes.tsv"), "--temperature", "1"]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    assert [p.name for p in (tmp_path / "res" / "scores").iterdir()] == ["de-nl"]
    assert (sibling / "scores.tsv").read_text(encoding="utf-8") == "kept\n"


# --- unwritable records ----------------------------------------------------------


def test_unwritable_record_fails_before_anything_is_written(tmp_path, capsys):
    # a tab in the last cell used to leave a records.tsv of 4,999 lines
    n = 5000
    columns = {
        "en": tuple(f"en {i}" for i in range(n)),
        "de": tuple(f"de {i}" for i in range(n - 1)) + ("de\tlast",),
    }
    save_corpus(MultiParallelCorpus(columns, tuple(range(10_000, 10_000 + n))), tmp_path / "corpus")
    out = tmp_path / "out"
    envelope = json_error(["build-ft", "--corpus", str(tmp_path / "corpus"), "--out", str(out)], capsys)
    assert envelope["error"] == "DatagenError"
    assert envelope["message"] == (
        "de-en row 14999: embedded tab/newline in record text: 'de\\tlast'"
    )
    assert not (out / "records.tsv").exists()
    assert not out.exists()
