"""Hostile text and JSON inputs through ``main()``: exit 0 or 1 with a typed
message naming the file, never a traceback."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar.corpus import MultiParallelCorpus, save_corpus
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
