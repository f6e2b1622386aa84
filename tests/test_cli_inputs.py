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


def test_a_sizes_key_listed_twice_is_an_error(tmp_path, lid_model, capsys):
    argv, path, _ = stage("sizes", tmp_path, lid_model)
    path.write_text("de\t10\nnl\t5\nde\t20\n", encoding="utf-8")
    assert main(argv + ["--json-errors"]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "SamplingError", "message": f"{path}:3: duplicate key 'de' (first at line 1)",
    }
    assert not (tmp_path / "out").exists()


# --- config --------------------------------------------------------------------


@pytest.mark.parametrize(
    "content, message",
    [(None, "cannot read {cfg}: "), (b"seed = 1\nseed 2\n", "{cfg}:2: expected key = value"),
     (b"seed = 1\n\xff\n", "{cfg}:2: invalid UTF-8"),
     (b"seed = 2\nseed = 9\n", "{cfg}:2: duplicate key 'seed' (first at line 1)"),
     (b"schedule_length = 5\n# spelt with a dash\nschedule-length = 7\n",
      "{cfg}:3: duplicate key 'schedule-length' (first at line 1)"),
     # a switch set to anything but true or false was once left unset
     (b"seed = 1\njson_errors = ture\n",
      "{cfg}:2: --json-errors takes 1/true/yes or 0/false/no, got 'ture'")],
    ids=["missing", "no-equals", "undecodable", "duplicate", "duplicate-spelling",
         "mistyped-switch"],
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


def test_config_cannot_set_a_required_flag(tmp_path, lid_model, capsys):
    # argparse checks required flags before the config file is read
    _, cfg, _ = stage("config", tmp_path, lid_model)
    cfg.write_text("temperature = 1\n", encoding="utf-8")
    argv = ["mix", "--sizes", str(tmp_path / "sizes.tsv"), "--config", str(cfg),
            "--out", str(tmp_path / "out")]
    assert run(argv) == 2
    assert "required: --temperature" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
    "name, message",
    [("pt-BR.tsv", "bitext with a '-' in a language code"),
     ("pt\tBR.tsv", "bitext with a tab or line break in a language code")],
    ids=["hyphen", "tab"],
)
def test_mine_names_a_bitext_file_with_a_bad_code(tmp_path, capsys, name, message):
    # a code that no direction can hold is refused where it enters, naming its file
    bitexts = tmp_path / "bitexts"
    for file in ("de.tsv", name):
        write(bitexts / file, "hello\thallo\n")
    out = tmp_path / "mined"
    envelope = json_error(["mine", "--bitexts", str(bitexts), "--out", str(out)], capsys)
    assert envelope == {"error": "CorpusError", "message": f"{bitexts / name}: {message}"}
    assert not out.exists()


def hand_made_corpus(root):
    """A corpus directory without a manifest, one column coded ``pt-BR``."""
    for code in ("de", "nl", "pt-BR"):
        write(root / "corpus" / f"{code}.txt", "".join(f"{code} {i}\n" for i in range(4)))
    return root / "corpus"


@pytest.mark.parametrize(
    "argv",
    [["build-ft"], ["build-ft", "--exclude", "nl"],
     ["buckets", "--num-buckets", "2", "--setting", "multi_parallel"],
     ["buckets", "--num-buckets", "3", "--setting", "multi_directional"]],
    ids=["build-ft", "build-ft-exclude", "multi_parallel", "multi_directional"],
)
def test_a_corpus_code_no_direction_can_hold_is_named_by_its_file(tmp_path, capsys, argv):
    # these exited 1 at the first direction, naming no file
    corpus = hand_made_corpus(tmp_path)
    out = tmp_path / "out"
    envelope = json_error([*argv, "--corpus", str(corpus), "--out", str(out)], capsys)
    assert envelope == {
        "error": "CorpusError",
        "message": f"{corpus / 'pt-BR.txt'}: corpus column with a '-' in a language code",
    }
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["lid-train"], ["buckets", "--num-buckets", "2"], ["build-ft", "--exclude", "pt-BR"],
     ["buckets", "--num-buckets", "1", "--setting", "multi_directional", "--languages", "de", "nl"]],
    ids=["lid-train", "buckets-none", "build-ft-exclude", "buckets-languages"],
)
def test_a_corpus_code_that_makes_no_direction_is_accepted(tmp_path, argv):
    corpus = hand_made_corpus(tmp_path)
    assert main([*argv, "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0


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
        (lambda m: {**m, "languages": ["aa", "bb", "aa"]}, "language code 'aa' is listed twice"),
        # lid-eval once counted such a model's empty hypotheses on target,
        # while ontarget left them out
        (lambda m: {**m, "empty_is_off_target": False},
         "'empty_is_off_target' must be true: empty text is always off target"),
        (lambda m: {k: v for k, v in m.items() if k != "empty_is_off_target"},
         "'empty_is_off_target' must be true"),
    ],
    ids=["empty", "list", "max_order", "priors", "prior", "vocab", "tables", "count",
         "infinite-prior", "zero-vocab", "negative-count", "huge-count", "tiny-alpha",
         "duplicate-language", "empty-on-target", "no-empty-policy"],
)
def test_bad_lid_model_is_a_lid_error(tmp_path, lid_model, capsys, command, edit, message):
    argv, hyps, first = stage(command, tmp_path, lid_model)
    hyps.write_bytes(first + b"\n")
    model = tmp_path / "lid_model.json"
    write(model, json.dumps(edit(json.loads(lid_model.read_text(encoding="utf-8")))))
    envelope = json_error([a if a != str(lid_model) else str(model) for a in argv], capsys)
    assert envelope["error"] == "LidError"
    assert envelope["message"].startswith(f"{model}: ") and message in envelope["message"]


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("lid-eval", b"aa\tabc\tx", "expected 2 fields, got 3"),
        ("ontarget", b"aa-bb\tabc", "expected 3 fields, got 2"),
        ("ontarget", b"aa-bb\tx\tabc", "row id 'x' is not an integer"),
        ("ontarget", b"bb\t0\tabc", "direction with an empty language code ''-'bb'"),
        ("ontarget", b"-bb\t1\tabc", "direction with an empty language code ''-'bb'"),
        ("ontarget", b"bb-bb\t0\tabc", "direction with identical endpoints 'bb'"),
    ],
    ids=["lid-eval-fields", "ontarget-fields", "row-id", "no-source", "empty-source",
         "same-sides"],
)
def test_a_bad_lid_input_line_is_a_lid_error(tmp_path, lid_model, capsys, command, line, message):
    argv, path, first = stage(command, tmp_path, lid_model)
    path.write_bytes(first + b"\n" + line + b"\n")
    assert json_error(argv, capsys) == {"error": "LidError", "message": f"{path}:2: {message}"}
    assert not (tmp_path / "out").exists()


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
        ('{"languages": [{"code": "", "family": "G", "tier": "High", "script": "Latn"}]}',
         ": language code must be nonempty"),
    ],
    ids=["no-family", "int-script", "languages-object", "list", "malformed", "empty-code"],
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


@pytest.mark.parametrize("fmt", ["split_files", "tsv"])
def test_language_code_with_a_hyphen_is_an_error(tmp_path, capsys, fmt):
    # a-b -> c and a -> b-c were both named a-b-c: split_files wrote one over
    # the other, and tsv merged their counts, exiting 0 either way
    save_corpus(full_corpus(["a-b", "c", "a", "b-c"], 2), tmp_path / "corpus")
    out = tmp_path / "out"
    argv = ["build-ft", "--corpus", str(tmp_path / "corpus"), "--format", fmt,
            "--out", str(out)]
    envelope = json_error(argv, capsys)
    assert envelope == {
        "error": "CorpusError",
        "message": f"{tmp_path / 'corpus' / 'a-b.txt'}: corpus column with a '-' in a language code",
    }
    assert not out.exists()


def test_ontarget_names_a_direction_with_a_hyphen_code(tmp_path, capsys, lid_model):
    hyps = tmp_path / "hyps.tsv"
    write(hyps, "bb-aa\t0\tabc\nbb-x-aa\t0\tabc\n")
    argv = ["ontarget", "--model", str(lid_model), "--hypotheses", str(hyps),
            "--out", str(tmp_path / "out")]
    assert json_error(argv, capsys) == {
        "error": "LidError",
        "message": f"{hyps}:2: direction with a '-' in a language code 'bb-x'-'aa'",
    }


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



@pytest.mark.parametrize(
    "name, message",
    [("en-.txt", "dictionary with an empty language code"),
     ("en-en.txt", "dictionary pair with identical languages"),
     ("en-pt-BR.txt", "dictionary with a '-' in a language code")],
    ids=["empty", "english", "hyphen"],
)
def test_probe_words_names_a_dictionary_file_with_a_bad_code(tmp_path, capsys, name, message):
    dicts = tmp_path / "dicts"
    for file in ("en-de.txt", "en-nl.txt", name):
        write(dicts / file, "dog\tHund\n")
    out = tmp_path / "out"
    envelope = json_error(["probe-words", "--dictionaries", str(dicts), "--out", str(out)], capsys)
    assert envelope == {"error": "ProbeError", "message": f"{dicts / name}: {message}"}
    assert not out.exists()

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


# --- writing into an input directory -----------------------------------------------


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_tag_in_place_digests_the_records_it_read(tmp_path):
    dataset = tmp_path / "d"
    write(dataset / "records.tsv", "de\tnl\tHund\thond\nnl\tde\tkat\tKatze\n")
    read = cli._sha256(dataset / "records.tsv")
    assert main(["tag", "--dataset", str(dataset), "--tag", "two_tag", "--out", str(dataset)]) == 0
    digests = json.loads((dataset / "run.json").read_text(encoding="utf-8"))["inputs"]
    assert digests == {str(dataset / "records.tsv"): read}
    assert cli._sha256(dataset / "records.tsv") != read


def write_bitexts(root):
    for code, word in (("de", "Hund"), ("nl", "hond")):
        write(root / "b" / f"{code}.tsv", "".join(f"dog {i}\t{word} {i}\n" for i in range(6)))
    return root / "b"


@pytest.mark.parametrize("argv", [
    ["build-ft", "--corpus", "{c}", "--out", "{c}"],
    ["build-ft", "--corpus", "{c}", "--format", "split_files", "--out", "{c}"],
    # buckets writes its dataset into <out>/dataset, here the corpus
    ["buckets", "--corpus", "{c}", "--num-buckets", "1", "--setting", "multi_parallel",
     "--out", "{c}/.."],
])
def test_a_run_that_would_replace_an_input_file_is_refused(tmp_path, capsys, argv):
    corpus = tmp_path / "dataset"
    assert main(["mine", "--bitexts", str(write_bitexts(tmp_path)), "--out", str(corpus)]) == 0
    before = tree_bytes(tmp_path)
    envelope = json_error([a.format(c=corpus) for a in argv], capsys)
    assert envelope["error"] == "ValueError"
    assert "refusing to replace an input of this run" in envelope["message"]
    assert tree_bytes(tmp_path) == before
    # the corpus still loads
    assert main(["lid-train", "--corpus", str(corpus), "--out", str(tmp_path / "m")]) == 0


@pytest.mark.parametrize("argv, replaced", [
    # probe-numbers reads nothing, so no input file guards the corpus
    (["probe-numbers", "--languages", "de", "nl", "--lines", "2", "--out", "{c}"], "corpus"),
    (["mine", "--bitexts", "{b}", "--out", "{d}"], "dataset"),
], ids=["probe-numbers-into-corpus", "mine-into-dataset"])
def test_a_manifest_of_the_other_kind_is_not_replaced(tmp_path, capsys, argv, replaced):
    corpus, dataset = tmp_path / "c", tmp_path / "d"
    bitexts = write_bitexts(tmp_path)
    assert main(["mine", "--bitexts", str(bitexts), "--out", str(corpus)]) == 0
    assert main(["build-ft", "--corpus", str(corpus), "--out", str(dataset)]) == 0
    before = tree_bytes(tmp_path)
    envelope = json_error([a.format(b=bitexts, c=corpus, d=dataset) for a in argv], capsys)
    target = (corpus if replaced == "corpus" else dataset) / "manifest.json"
    assert envelope["error"] == "ValueError"
    assert envelope["message"].startswith(f"{target}: refusing to replace a {replaced} manifest")
    assert tree_bytes(tmp_path) == before
    assert main(["lid-train", "--corpus", str(corpus), "--out", str(tmp_path / "m")]) == 0
    # a rerun of the same kind still replaces its own manifest
    assert main(["build-ft", "--corpus", str(corpus), "--out", str(dataset)]) == 0
    assert main(["mine", "--bitexts", str(bitexts), "--out", str(corpus)]) == 0


def test_a_corpus_manifest_without_row_ids_is_not_replaced(tmp_path, capsys):
    # the manifest load_corpus_dir needs lists only the languages
    write(tmp_path / "c" / "de.txt", "a\nb\n")
    write(tmp_path / "c" / "nl.txt", "c\nd\n")
    write(tmp_path / "c" / "manifest.json", '{"languages": ["de", "nl"]}\n')
    before = tree_bytes(tmp_path)
    envelope = json_error(["probe-numbers", "--languages", "de", "nl", "--lines", "2",
                           "--out", str(tmp_path / "c")], capsys)
    assert envelope["message"].startswith(f"{tmp_path / 'c' / 'manifest.json'}: refusing")
    assert tree_bytes(tmp_path) == before



@pytest.mark.parametrize(
    "manifest", ["{", "[1]", '{"note": "neither kind"}'], ids=["malformed", "list", "kind-less"]
)
def test_a_manifest_of_no_kind_is_replaced(tmp_path, manifest):
    write(tmp_path / "out" / "manifest.json", manifest)
    assert main(["probe-numbers", "--languages", "de", "nl", "--lines", "2",
                 "--out", str(tmp_path / "out")]) == 0
    written = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert written["corpus_id"] == "number_pairs"


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


# --- direction checks ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, unknown",
    [
        (["build-ft", "--exclude", "zz"], "zz"),
        (["build-ft", "--exclude", "yy", "de", "xx"], "xx, yy"),
        (["probe-numbers", "--languages", "en", "de", "--exclude", "xx"], "xx"),
    ],
    ids=["build-ft", "build-ft-two", "probe-numbers"],
)
def test_an_exclusion_naming_no_language_is_an_error(tmp_path, capsys, argv, unknown):
    # each kept every language and exited 0, so a typo went unnoticed
    if argv[0] == "build-ft":
        save_corpus(full_corpus(["en", "de", "nl"], 3), tmp_path / "corpus")
        argv = [*argv, "--corpus", str(tmp_path / "corpus")]
    out = tmp_path / "out"
    envelope = json_error([*argv, "--out", str(out)], capsys)
    assert envelope == {
        "error": "DatagenError",
        "message": f"excluded languages not among the codes: {unknown}",
    }
    assert not out.exists()


@pytest.mark.parametrize("hypotheses", ["present", "missing"])
def test_score_checks_its_direction_before_reading_pairs(tmp_path, capsys, monkeypatch, hypotheses):
    # it scored every pair before it failed, or reported the missing file
    write(tmp_path / "ref", "the cat\n")
    if hypotheses == "present":
        write(tmp_path / "hyp", "the cat\n")
    monkeypatch.setattr(cli, "read_lines", lambda *a: pytest.fail("read the pairs"))
    out = tmp_path / "out"
    argv = ["score", "--hypotheses", str(tmp_path / "hyp"), "--references", str(tmp_path / "ref"),
            "--metric", "chrf", "--src-lang", "de", "--tgt-lang", "de", "--out", str(out)]
    envelope = json_error(argv, capsys)
    assert envelope == {
        "error": "DatagenError", "message": "direction with identical endpoints 'de'",
    }
    assert not out.exists()
