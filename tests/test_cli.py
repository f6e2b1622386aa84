import hashlib
import json
import tracemalloc

import pytest

from multipar.cli import main
from multipar.corpus import MultiParallelCorpus, save_corpus
from multipar.registry import ec30
from multipar.textio import CHUNK_CHARS

from helpers import full_corpus, make_mining_fixture, synthetic_sentences, write_ec30_scores


def write_bitexts(directory, bitexts):
    directory.mkdir(parents=True, exist_ok=True)
    for code, pairs in bitexts.items():
        # pivots with embedded tabs cannot ride a two-column TSV; spaces
        # trim to the same normalized pivot
        lines = "".join(f"{en.replace(chr(9), ' ')}\t{fr}\n" for en, fr in pairs)
        (directory / f"{code}.tsv").write_text(lines, encoding="utf-8")


@pytest.fixture
def corpus_dir(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["en", "de", "nl"], 20), path)
    return path


def test_mine_subcommand(tmp_path):
    bitexts = {code: pairs[:50] for code, pairs in make_mining_fixture(100).items()}
    write_bitexts(tmp_path / "bitexts", bitexts)
    out = tmp_path / "mined"
    assert main(["mine", "--bitexts", str(tmp_path / "bitexts"), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["languages"] == ["en", "de", "fr", "nl"]
    stats = json.loads((out / "mining_stats.json").read_text())
    assert stats["yield_rows"] == manifest["rows"] > 0
    run = json.loads((out / "run.json").read_text())
    assert run["subcommand"] == "mine"
    assert run["inputs"]  # input digests recorded


def test_build_ft_counts_and_manifest(corpus_dir, tmp_path):
    out = tmp_path / "ft"
    rc = main(
        ["build-ft", "--corpus", str(corpus_dir), "--out", str(out),
         "--rows", "10", "--tag", "one_tag", "--seed", "3"]
    )
    assert rc == 0
    lines = (out / "records.tsv").read_text().splitlines()
    assert len(lines) == 6 * 10  # 3 languages -> 6 directions
    assert all("\t<2" in line for line in lines)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tag_strategy"] == "one_tag"


def test_build_ft_direction_flags(corpus_dir, tmp_path):
    out = tmp_path / "zs"
    rc = main(
        ["build-ft", "--corpus", str(corpus_dir), "--out", str(out),
         "--no-english-centric", "--seed", "0"]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["counts"]["per_direction"]) == ["de-nl", "nl-de"]


def test_build_ft_family_without_directions_exits_1(corpus_dir, tmp_path, capsys):
    out = tmp_path / "ft"
    assert main(["build-ft", "--corpus", str(corpus_dir), "--family", "Romance",
                 "--out", str(out)]) == 1
    assert "no directions fall within family 'Romance'" in capsys.readouterr().err
    assert not out.exists()

def test_probe_numbers_with_budget(tmp_path):
    out = tmp_path / "numbers"
    rc = main(
        ["probe-numbers", "--languages", "en", "de", "--out", str(out),
         "--token-budget", "200", "--tokens-per-line", "10", "--seed", "1"]
    )
    assert rc == 0
    lines = (out / "records.tsv").read_text().splitlines()
    assert len(lines) == 20  # 200 tokens / (10 per line) over 2 directions
    src = lines[0].split("\t")[2]
    assert all(1 <= int(tok) <= 1000 for tok in src.split())


def test_probe_words(tmp_path):
    dict_dir = tmp_path / "dicts"
    dict_dir.mkdir()
    (dict_dir / "en-de.txt").write_text("dog Hund\ncat Katze\n", encoding="utf-8")
    (dict_dir / "en-nl.txt").write_text("dog hond\ncat kat\n", encoding="utf-8")
    out = tmp_path / "words"
    rc = main(["probe-words", "--dictionaries", str(dict_dir), "--out", str(out), "--seed", "0"])
    assert rc == 0
    lines = (out / "records.tsv").read_text().splitlines()
    # 3 languages -> 6 directions, 2 shared headwords each
    assert len(lines) == 12
    assert "de\tnl\tHund\thond" in lines


def test_buckets_multidirectional(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["de", "en", "nl"], 30), path)
    out = tmp_path / "buckets"
    rc = main(
        ["buckets", "--corpus", str(path), "--num-buckets", "3",
         "--setting", "multi_directional", "--out", str(out), "--seed", "5"]
    )
    assert rc == 0
    buckets = json.loads((out / "buckets.json").read_text())
    assert buckets["num_buckets"] == 3
    lines = (out / "dataset" / "records.tsv").read_text().splitlines()
    assert len(lines) == 60  # every row appears in exactly 2 directions


def test_tag_subcommand_and_double_tag_error(corpus_dir, tmp_path):
    plain = tmp_path / "plain"
    assert main(["build-ft", "--corpus", str(corpus_dir), "--out", str(plain)]) == 0
    tagged = tmp_path / "tagged"
    assert main(["tag", "--dataset", str(plain), "--tag", "two_tag", "--out", str(tagged)]) == 0
    line = (tagged / "records.tsv").read_text().splitlines()[0]
    fields = line.split("\t")
    assert fields[2].startswith("<src:") and fields[3].startswith("<tgt:")
    # tagging the tagged dataset fails cleanly
    again = tmp_path / "again"
    assert main(["tag", "--dataset", str(tagged), "--tag", "one_tag", "--out", str(again)]) == 1


@pytest.mark.parametrize("kind", ["none", "one_tag", "two_tag"])
def test_tag_refuses_a_tagged_dataset_for_every_tag(corpus_dir, tmp_path, capsys, kind):
    # `--tag none` once wrote every record's tags a second time and exited 0
    ft = tmp_path / "ft"
    assert main(["build-ft", "--corpus", str(corpus_dir), "--tag", "one_tag", "--out", str(ft)]) == 0
    out = tmp_path / "out"
    argv = ["tag", "--dataset", str(ft), "--tag", kind, "--out", str(out), "--json-errors"]
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DatagenError",
        "message": f"{ft / 'manifest.json'}: dataset is already tagged with 'one_tag'",
    }
    assert not out.exists()


def test_tag_keeps_interleaved_direction_order(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "records.tsv").write_text(
        "de\ten\ta\tb\nen\tde\tc\td\nde\ten\te\tf\n", encoding="utf-8"
    )
    tagged = tmp_path / "tagged"
    assert main(["tag", "--dataset", str(plain), "--tag", "one_tag", "--out", str(tagged)]) == 0
    assert (tagged / "records.tsv").read_text().splitlines() == [
        "de\ten\t<2en> a\tb", "en\tde\t<2de> c\td", "de\ten\t<2en> e\tf"
    ]
    manifest = json.loads((tagged / "manifest.json").read_text())
    assert manifest["counts"] == {"records": 3, "per_direction": {"de-en": 2, "en-de": 1}}


# --- tag streams records.tsv in chunks ------------------------------------------


def tsv_lines(count, start=0):
    """Records whose direction changes every 50 lines and recurs."""
    dirs = [("de", "nl"), ("nl", "de"), ("de", "en")]
    return [
        "{}\t{}\tsentence {} ünï\tzin {}".format(*dirs[i // 50 % 3], i, i)
        for i in range(start, start + count)
    ]


def two_tagged(lines):
    out = []
    for line in lines:
        s, t, a, b = line.split("\t")
        out.append(f"{s}\t{t}\t<src:{s}> {a}\t<tgt:{t}> {b}\n")
    return "".join(out)


def tag(dataset, out, kind="two_tag"):
    return main(["tag", "--dataset", str(dataset), "--tag", kind, "--out", str(out)])


@pytest.mark.parametrize(
    "bad, message",
    [(b"de\tnl\tthree fields", "expected 4 fields, got 3"),
     (b"de\tde\ta\tb", "direction with identical endpoints 'de'"),
     (b"de\tnl\t\xff\tb", "invalid UTF-8")],
    ids=["fields", "direction", "utf-8"],
)
@pytest.mark.parametrize("out_exists", [False, True], ids=["new-out", "old-out"])
def test_tag_failing_past_the_first_chunk_leaves_nothing(
    tmp_path, capsys, bad, message, out_exists
):
    head = ["", "  ", " \t "]  # blank lines are skipped, yet counted
    while sum(len(line) + 1 for line in head) <= CHUNK_CHARS:
        head += tsv_lines(100, len(head))
    tail = tsv_lines(10)
    data = "".join(line + "\n" for line in head).encode() + bad + b"\n"
    (tmp_path / "records.tsv").write_bytes(data + "".join(line + "\n" for line in tail).encode())
    out = tmp_path / "new" / "out"
    if out_exists:
        out.mkdir(parents=True)
        (out / "records.tsv").write_text("old\n", encoding="utf-8")
    assert tag(tmp_path, out) == 1
    assert f"{tmp_path / 'records.tsv'}:{len(head) + 1}: {message}" in capsys.readouterr().err
    if out_exists:
        assert [p.name for p in out.iterdir()] == ["records.tsv"]
        assert (out / "records.tsv").read_text(encoding="utf-8") == "old\n"
    else:
        assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("data", [b"", b"\n \r\n\t\n"], ids=["empty", "blank"])
def test_tag_of_an_empty_dataset_leaves_nothing(tmp_path, capsys, data):
    (tmp_path / "records.tsv").write_bytes(data)
    assert tag(tmp_path, tmp_path / "out") == 1
    assert "refusing to emit an empty dataset" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tag_reads_crlf_and_cr_line_ends_as_lf(tmp_path):
    lines, at = [], 0  # at: bytes of the lines as CRLF
    while at < CHUNK_CHARS - 100:
        lines += tsv_lines(1, len(lines))
        at += len(lines[-1].encode()) + 2
    # a line whose CRLF falls across byte CHUNK_CHARS of the CRLF file
    lines.append("de\tnl\tx\t" + "y" * (CHUNK_CHARS - 1 - at - len("de\tnl\tx\t")))
    lines += tsv_lines(300, len(lines))
    crlf = "".join(line + "\r\n" for line in lines).encode()
    assert crlf[CHUNK_CHARS - 1:CHUNK_CHARS + 1] == b"\r\n"
    written = {}
    for end in ("\n", "\r\n", "\r"):
        dataset = tmp_path / repr(end)
        dataset.mkdir()
        (dataset / "records.tsv").write_bytes("".join(line + end for line in lines).encode())
        for kind in ("two_tag", "none"):
            assert tag(dataset, dataset / kind, kind) == 0
            written[end, kind] = [(dataset / kind / name).read_bytes()
                                  for name in ("records.tsv", "manifest.json")]
    lf = "".join(line + "\n" for line in lines).encode()
    for end in ("\n", "\r\n", "\r"):
        assert written[end, "two_tag"][0] == two_tagged(lines).encode()
        assert written[end, "none"][0] == lf  # --tag none copies
        assert written[end, "two_tag"][1] == written["\n", "two_tag"][1]
    manifest = json.loads(written["\n", "two_tag"][1])
    per_direction = {}
    for line in lines:  # de-nl recurs after nl-de and de-en
        key = "-".join(line.split("\t")[:2])
        per_direction[key] = per_direction.get(key, 0) + 1
    assert manifest["counts"] == {"records": len(lines), "per_direction": per_direction}


def test_tag_in_place_replaces_the_records_it_reads(tmp_path):
    lines = tsv_lines(3000)
    text = "".join(line + "\n" for line in lines)
    assert len(text) > CHUNK_CHARS
    (tmp_path / "records.tsv").write_text(text, encoding="utf-8")
    assert tag(tmp_path, tmp_path) == 0
    assert (tmp_path / "records.tsv").read_bytes() == two_tagged(lines).encode()
    assert json.loads((tmp_path / "manifest.json").read_text())["tag_strategy"] == "two_tag"


def test_tag_memory_does_not_grow_with_the_input(tmp_path):
    def peak(count):
        dataset = tmp_path / str(count)
        dataset.mkdir()
        text = "".join(line + "\n" for line in tsv_lines(count))
        (dataset / "records.tsv").write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            assert tag(dataset, dataset / "out") == 0
            return len(text), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    size, small = peak(10_000)
    assert size > 4 * CHUNK_CHARS
    assert peak(100_000)[1] <= 1.5 * small


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_lid_train_rejects_non_finite_alpha(corpus_dir, tmp_path, capsys, value):
    out = tmp_path / "lid"
    rc = main(["lid-train", "--corpus", str(corpus_dir), "--alpha", value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert value in err and "Traceback" not in err
    assert not (out / "lid_model.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_mix_rejects_non_finite_temperature(tmp_path, capsys, value):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("a\t10\nb\t1\n", encoding="utf-8")
    out = tmp_path / "mix"
    rc = main(["mix", "--sizes", str(sizes), "--temperature", value, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert value in err and "Traceback" not in err
    assert not (out / "weights.tsv").exists()


def test_mix_subcommand(tmp_path):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("high\t5000000\nmed\t1000000\nlow\t100000\n", encoding="utf-8")
    out = tmp_path / "mix"
    rc = main(
        ["mix", "--sizes", str(sizes), "--temperature", "5",
         "--schedule-length", "100", "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    weights = dict(
        line.split("\t") for line in (out / "weights.tsv").read_text().splitlines()
    )
    assert abs(sum(float(v) for v in weights.values()) - 1.0) < 1e-9
    schedule = (out / "schedule.txt").read_text().splitlines()
    assert len(schedule) == 100
    assert set(schedule) <= {"high", "med", "low"}


def test_score_subcommand_and_threads_invariance(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat on the mat\nhello world\n", encoding="utf-8")
    ref.write_text("the cat sat on a mat\nhello there world\n", encoding="utf-8")
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"score{threads}"
        rc = main(
            ["score", "--hypotheses", str(hyp), "--references", str(ref),
             "--metric", "chrfpp", "--src-lang", "de", "--tgt-lang", "en",
             "--threads", threads, "--out", str(out)]
        )
        assert rc == 0
        outputs.append((out / "scores.tsv").read_bytes())
    assert outputs[0] == outputs[1]


def test_score_single_pair_in_range_and_scale(tmp_path):
    def score(hyp, ref):
        (tmp_path / "hyp.txt").write_text(hyp + "\n", encoding="utf-8")
        (tmp_path / "ref.txt").write_text(ref + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(
            ["score", "--hypotheses", str(tmp_path / "hyp.txt"), "--references",
             str(tmp_path / "ref.txt"), "--metric", "chrfpp", "--src-lang", "de",
             "--tgt-lang", "en", "--out", str(out)]
        ) == 0
        _, _, metric, value, count = (out / "scores.tsv").read_text().splitlines()[1].split("\t")
        assert (metric, count) == ("chrfpp", "1")
        return float(value)

    assert 0.0 < score("the cat sat", "the cat sat on the mat") < 100.0
    assert score("same text", "same text") == pytest.approx(100.0)


def test_score_chrf_of_all_empty_hypotheses_is_zero(tmp_path):
    # no character n-gram order has a hypothesis n-gram to average over
    (tmp_path / "hyp.txt").write_text("\n\n", encoding="utf-8")
    (tmp_path / "ref.txt").write_text("the cat\nsat\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["score", "--hypotheses", str(tmp_path / "hyp.txt"), "--references",
                 str(tmp_path / "ref.txt"), "--metric", "chrf", "--src-lang", "de",
                 "--tgt-lang", "en", "--out", str(out)]) == 0
    _, _, metric, value, count = (out / "scores.tsv").read_text().splitlines()[1].split("\t")
    assert (metric, float(value), count) == ("chrf", 0.0, "2")

def test_score_line_count_mismatch(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("one\n", encoding="utf-8")
    ref.write_text("one\ntwo\n", encoding="utf-8")
    rc = main(
        ["score", "--hypotheses", str(hyp), "--references", str(ref),
         "--metric", "bleu", "--src-lang", "de", "--tgt-lang", "en",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1


def lid_fixture(tmp_path):
    corpus = tmp_path / "lid_corpus"
    corpus.mkdir()
    a = synthetic_sentences("abcdefgh", 60, seed=1)
    b = synthetic_sentences("qrstuvwx", 60, seed=2)
    (corpus / "aa.txt").write_text("".join(s + "\n" for s in a), encoding="utf-8")
    (corpus / "bb.txt").write_text("".join(s + "\n" for s in b), encoding="utf-8")
    return corpus, a, b


def test_lid_train_eval_and_ontarget(tmp_path):
    corpus, a, b = lid_fixture(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["lid-train", "--corpus", str(corpus), "--out", str(model_dir)]) == 0
    model_path = model_dir / "lid_model.json"

    hyps = tmp_path / "hyps.tsv"
    hyps.write_text(
        f"aa\t{a[0]}\naa\t{b[0]}\nbb\t{b[1]}\n", encoding="utf-8"
    )
    eval_dir = tmp_path / "eval"
    assert main(
        ["lid-eval", "--model", str(model_path), "--hypotheses", str(hyps),
         "--out", str(eval_dir)]
    ) == 0
    report = json.loads((eval_dir / "off_target.json").read_text())
    assert report["per_direction"]["aa"] == {"total": 2, "off_target": 1, "rate": 0.5}
    assert report["overall"]["off_target"] == 1

    ontarget_in = tmp_path / "baseline.tsv"
    ontarget_in.write_text(
        f"bb-aa\t0\t{a[1]}\nbb-aa\t1\t{b[2]}\naa-bb\t0\t{b[3]}\n", encoding="utf-8"
    )
    on_dir = tmp_path / "ontarget"
    assert main(
        ["ontarget", "--model", str(model_path), "--hypotheses", str(ontarget_in),
         "--out", str(on_dir)]
    ) == 0
    subsets = json.loads((on_dir / "on_target.json").read_text())
    assert subsets == {"aa-bb": [0], "bb-aa": [0]}


def test_report_subcommand_with_baseline_delta(tmp_path):
    header = "src_lang\ttgt_lang\tmetric\tvalue\tcount\n"
    scores = tmp_path / "scores.tsv"
    scores.write_text(header + "de\tnl\tchrf\t40\t10\nnl\tde\tchrf\t42\t10\n")
    baseline = tmp_path / "baseline.tsv"
    baseline.write_text(header + "de\tnl\tchrf\t30\t10\nnl\tde\tchrf\t41\t10\n")
    out = tmp_path / "report"
    rc = main(
        ["report", "--scores", str(scores), "--baseline", str(baseline),
         "--scheme", "resource_grid", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads((out / "report.json").read_text())
    values = {c["metric"]: c["value"] for c in payload["matrix"]["cells"]}
    assert values["chrf"] in (10.0, 1.0)
    grid = payload["summaries"]["chrf"]["resource_grid"]
    assert grid["H-H"] == pytest.approx((10.0 + 1.0) / 2)


def test_config_file_sets_defaults_flags_override(tmp_path):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("a\t1\nb\t1\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text("# probe config\nschedule-length = 10\nseed = 9\n", encoding="utf-8")
    out = tmp_path / "mix"
    rc = main(
        ["mix", "--sizes", str(sizes), "--temperature", "1",
         "--config", str(config), "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    assert len((out / "schedule.txt").read_text().splitlines()) == 10  # from config
    run = json.loads((out / "run.json").read_text())
    assert run["seed"] == 2  # flag overrides config


def test_json_errors_envelope(tmp_path, capsys):
    rc = main(
        ["mine", "--bitexts", str(tmp_path / "missing"), "--out",
         str(tmp_path / "out"), "--json-errors"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    envelope = json.loads(err.strip())
    assert envelope["error"] == "CorpusError"
    assert "message" in envelope


def test_plain_error_message(tmp_path, capsys):
    rc = main(
        ["mine", "--bitexts", str(tmp_path / "missing"), "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_rerun_is_byte_identical(corpus_dir, tmp_path):
    out = tmp_path / "ft"
    args = ["build-ft", "--corpus", str(corpus_dir), "--out", str(out),
            "--rows", "5", "--fraction", "0.5", "--seed", "7"]
    assert main(args) == 0
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


@pytest.mark.parametrize("seed_flag", [["--seed=5"], ["--se", "5"]])
def test_config_loses_to_flag_in_any_spelling(tmp_path, seed_flag):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("a\t1\nb\t1\n", encoding="utf-8")
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\n", encoding="utf-8")
    out = tmp_path / "mix"
    rc = main(
        ["mix", "--sizes", str(sizes), "--temperature", "1",
         "--config", str(config), *seed_flag, "--out", str(out)]
    )
    assert rc == 0
    assert json.loads((out / "run.json").read_text())["seed"] == 5


def test_config_values_parse_like_flags(corpus_dir, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("exclude = de\nno-english-centric = no\n", encoding="utf-8")
    out = tmp_path / "ft"
    rc = main(
        ["build-ft", "--corpus", str(corpus_dir), "--config", str(config),
         "--out", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["counts"]["per_direction"]) == ["en-nl", "nl-en"]



@pytest.mark.parametrize(
    "value, directions",
    [("1", ["de-nl", "nl-de"]), ("TRUE", ["de-nl", "nl-de"]), ("Yes", ["de-nl", "nl-de"]),
     ("0", ["de-en", "de-nl", "en-de", "en-nl", "nl-de", "nl-en"]),
     ("False", ["de-en", "de-nl", "en-de", "en-nl", "nl-de", "nl-en"])],
)
def test_config_switch_takes_true_or_false_in_any_case(corpus_dir, tmp_path, value, directions):
    config = tmp_path / "run.cfg"
    config.write_text(f"no_english_centric = {value}\n", encoding="utf-8")
    out = tmp_path / "ft"
    assert main(["build-ft", "--corpus", str(corpus_dir), "--config", str(config),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["counts"]["per_direction"]) == directions



SCORE_HEADER = "src_lang\ttgt_lang\tmetric\tvalue\tcount\n"


def test_report_rejects_languages_outside_registry(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + "de\tnl\tchrf\t40\t10\nxx\tyy\tchrf\t42\t10\n")
    out = tmp_path / "report"
    rc = main(["report", "--scores", str(scores), "--format", "json", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "xx-yy" in err and "outside the registry" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_report_rejects_non_finite_score(tmp_path, capsys, value):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + f"de\tnl\tchrf\t{value}\t10\n")
    out = tmp_path / "report"
    rc = main(["report", "--scores", str(scores), "--format", "json", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{scores}:2" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_mix_rejects_non_finite_size(tmp_path, capsys, value):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text(f"a\t{value}\nb\t1\n", encoding="utf-8")
    out = tmp_path / "mix"
    rc = main(["mix", "--sizes", str(sizes), "--temperature", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{sizes}:1" in err and "Traceback" not in err
    assert not (out / "weights.tsv").exists()


@pytest.mark.parametrize(
    "fmt, name, rendered",
    [
        ("json", "report.json", '"X-EN": null'),
        ("tsv", "summary.tsv", "chrf\tenglish_centric\toverall/X-EN\tnull"),
        ("markdown", "report.md", "Overall EN-X 40.0, X-EN null"),
    ],
)
def test_report_with_one_english_centric_orientation(tmp_path, capsys, fmt, name, rendered):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + "en\tde\tchrf\t40\t10\n")
    out = tmp_path / "report"
    rc = main(["report", "--scores", str(scores), "--format", fmt, "--out", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert rendered in (out / name).read_text()


def test_report_rejects_unknown_family_without_zero_shot_directions(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + "en\tde\tchrf\t40\t10\nde\ten\tchrf\t42\t10\n")
    out = tmp_path / "report"
    rc = main(
        ["report", "--scores", str(scores), "--scheme", "family:Nope", "--format", "json",
         "--out", str(out)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown family" in err and "Traceback" not in err
    assert not (out / "report.json").exists()


def test_report_rejects_negative_count_with_file_line(tmp_path, capsys):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + "de\tnl\tchrf\t1\t-1\n")
    rc = main(["report", "--scores", str(scores), "--out", str(tmp_path / "report")])
    assert rc == 1
    assert f"{scores}:2: cell count must be >= 0" in capsys.readouterr().err


def test_mix_rejects_non_numeric_size_with_file_line(tmp_path, capsys):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("b\t1\na\tx\n", encoding="utf-8")
    rc = main(["mix", "--sizes", str(sizes), "--temperature", "1", "--out", str(tmp_path / "mix")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{sizes}:2" in err and "Traceback" not in err


def test_ontarget_rejects_non_integer_row_id_with_file_line(tmp_path, capsys):
    corpus, a, _ = lid_fixture(tmp_path)
    model_dir = tmp_path / "model"
    assert main(["lid-train", "--corpus", str(corpus), "--out", str(model_dir)]) == 0
    hyps = tmp_path / "hyps.tsv"
    hyps.write_text(f"aa-bb\t0\t{a[0]}\naa-bb\tone\t{a[1]}\n", encoding="utf-8")
    rc = main(
        ["ontarget", "--model", str(model_dir / "lid_model.json"), "--hypotheses", str(hyps),
         "--out", str(tmp_path / "ontarget")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{hyps}:2" in err and "Traceback" not in err


def test_mix_rejects_weights_outside_the_float_range(tmp_path, capsys):
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("a\t1e308\nb\t1e308\n", encoding="utf-8")
    argv = ["mix", "--sizes", str(sizes), "--temperature", "1", "--out", str(tmp_path / "m1")]
    assert main(argv) == 1
    assert "sizes sum beyond the float range" in capsys.readouterr().err
    sizes.write_text("a\t1\nb\t1\n", encoding="utf-8")
    argv = ["mix", "--sizes", str(sizes), "--temperature", "1e-5", "--out", str(tmp_path / "m2")]
    assert main(argv) == 1
    assert "every weight underflows to 0" in capsys.readouterr().err
    assert not (tmp_path / "m1").exists() and not (tmp_path / "m2").exists()


@pytest.mark.parametrize("fmt", ["tsv", "json", "markdown"])
def test_report_rejects_a_mean_beyond_the_float_range(tmp_path, capsys, fmt):
    scores = tmp_path / "scores.tsv"
    scores.write_text(SCORE_HEADER + "de\tnl\tchrf\t1e308\t1\nnl\tde\tchrf\t1e308\t1\n")
    out = tmp_path / "report"
    rc = main(["report", "--scores", str(scores), "--format", fmt, "--out", str(out)])
    assert rc == 1
    assert "the mean of 2 values overflows" in capsys.readouterr().err
    assert not out.exists()


def out_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize(
    "argv, key, values",
    [
        (["probe-numbers", "--languages", "en", "de", "fr", "nl", "--lines", "1"],
         "exclude", ["de", "fr"]),
        (["probe-numbers", "--lines", "1"], "languages", ["en", "de"]),
        (["report", "--format", "json"], "scheme", ["english_centric", "family:Germanic"]),
    ],
    ids=["exclude", "languages", "scheme"],
)
def test_config_sets_a_multi_value_flag_like_the_command_line(tmp_path, argv, key, values):
    if argv[0] == "report":
        scores = tmp_path / "scores.tsv"
        scores.write_text(SCORE_HEADER + "en\tde\tchrf\t40\t10\nde\tnl\tchrf\t30\t10\n")
        argv = argv + ["--scores", str(scores)]
    out = tmp_path / "out"
    argv = argv + ["--out", str(out)]
    assert main(argv + [f"--{key}", *values]) == 0
    from_flags = out_bytes(out)
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {' '.join(values)}\n", encoding="utf-8")
    assert main(argv + ["--config", str(config)]) == 0
    assert out_bytes(out) == from_flags


@pytest.mark.parametrize("data", [b"", b"\n \r\n  \n"], ids=["empty", "blank"])
@pytest.mark.parametrize("subcommand", ["lid-eval", "ontarget"])
def test_lid_eval_and_ontarget_reject_a_file_without_hypotheses(tmp_path, capsys, subcommand, data):
    corpus, _a, _b = lid_fixture(tmp_path)
    assert main(["lid-train", "--corpus", str(corpus), "--out", str(tmp_path / "model")]) == 0
    hyps = tmp_path / "hyps.tsv"
    hyps.write_bytes(data)
    out = tmp_path / "out"
    argv = [subcommand, "--model", str(tmp_path / "model" / "lid_model.json"),
            "--hypotheses", str(hyps), "--out", str(out), "--json-errors"]
    assert main(argv) == 1
    envelope = json.loads(capsys.readouterr().err)
    assert envelope == {"error": "LidError", "message": f"{hyps}: no hypotheses"}
    assert not out.exists()


def test_report_markdown_renders_the_resource_grid(tmp_path):
    scores = tmp_path / "scores.tsv"
    # two H-H directions and one L-L: the other seven groups have no data
    scores.write_text(SCORE_HEADER + "de\tfr\tchrf\t10\t1\nfr\tde\tchrf\t20\t1\naf\tro\tchrf\t40\t1\n")
    out = tmp_path / "report"
    argv = ["report", "--scores", str(scores), "--scheme", "resource_grid",
            "--format", "markdown", "--out", str(out)]
    assert main(argv) == 0
    assert (out / "report.md").read_text(encoding="utf-8") == (
        "### Zero-shot chrf by resource group\n\n"
        "| H-H | H-M | H-L | M-H | M-M | M-L | L-H | L-M | L-L | AVG |\n"
        "|---|---|---|---|---|---|---|---|---|---|\n"
        "| 15.0 | null | null | null | null | null | null | null | 40.0 | 27.5 |\n\n"
        "AVG is the mean of group means; direction-weighted mean: 23.33\n"
    )


@pytest.mark.parametrize(
    "fmt, digests",
    [
        ("tsv", {
            "scores.tsv": "75b6009eb956cbf7a86fa900d1b52d34743fafe6f2ed8032ab4c3a2de229d2d7",
            "summary.tsv": "d549c0a09cb434837423b50bca4d1dce47cf6c10dd01fca99ae92c38776cc782",
        }),
        ("json", {"report.json": "4b9081b9b336709263cd3d519707caf6dcbddad50f28f3bd5631acd1255055c6"}),
        ("markdown", {"report.md": "032ad1370b00a7705f462753056a4b7623c9b5f8aae6ea5102bda91eace5955b"}),
    ],
)
def test_report_bytes_are_pinned(tmp_path, fmt, digests):
    write_ec30_scores(tmp_path / "scores.tsv", seed=21)
    write_ec30_scores(tmp_path / "baseline.tsv", seed=12)
    out = tmp_path / "report"
    assert main(["report", "--scores", str(tmp_path / "scores.tsv"),
                 "--baseline", str(tmp_path / "baseline.tsv"),
                 "--scheme", "resource_grid", "english_centric", "family:Germanic",
                 "family:Romance", "--format", fmt, "--out", str(out)]) == 0
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir()) if p.name != "run.json"
    }
    assert written == digests


def test_buckets_multi_parallel(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["de", "en", "nl", "fr"], 30), path)
    out = tmp_path / "buckets"
    rc = main(
        ["buckets", "--corpus", str(path), "--num-buckets", "3", "--languages", "de", "en", "nl",
         "--setting", "multi_parallel", "--bucket", "1", "--out", str(out), "--seed", "5"]
    )
    assert rc == 0
    mapping = json.loads((out / "buckets.json").read_text())["mapping"]
    bucket_rows = sorted(int(row) for row, bucket in mapping.items() if bucket == 1)
    manifest = json.loads((out / "dataset" / "manifest.json").read_text())
    assert manifest["setting"] == "multi_parallel" and manifest["bucket"] == 1
    assert manifest["rows"] == bucket_rows and len(bucket_rows) == 10
    # every direction of the chosen languages, over the bucket's rows only
    assert manifest["counts"]["per_direction"] == {
        d: 10 for d in ["de-en", "de-nl", "en-de", "en-nl", "nl-de", "nl-en"]
    }
    lines = (out / "dataset" / "records.tsv").read_text().splitlines()
    # a full_corpus cell is "<code> r <row> alpha beta"
    assert {int(line.split("\t")[2].split()[2]) for line in lines} == set(bucket_rows)


@pytest.mark.parametrize("setting", ["multi_parallel", "multi_directional"])
@pytest.mark.parametrize("languages", [["de"], ["de", "de"]])
def test_buckets_with_one_language_names_the_flag(tmp_path, capsys, setting, languages):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["de", "en", "nl"], 3), path)
    out = tmp_path / "buckets"
    rc = main(["buckets", "--corpus", str(path), "--num-buckets", "1", "--setting", setting,
               "--languages", *languages, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"--languages {' '.join(languages)}: " in err and "at least 2 languages" in err
    assert "exclusions" not in err
    assert not out.exists()


BUCKETS_JSON = "df1c2e60cde83112039731780bd07c9a8075fc770109c9c73ee4357c8d6f7a1a"


@pytest.mark.parametrize(
    "argv, digests",
    [
        ([], {}),
        (["--setting", "multi_parallel", "--bucket", "1"], {
            "dataset/manifest.json": "3aec5ac7731098185c66fac134b9e9a2d61e94c776e9827c0715d9f7bc6d6168",
            "dataset/records.tsv": "b6f32cf7d9c2603e1a4b3b538c8aa6cca7b5fb33a33adb0a1c9db3118610b3e0",
        }),
        (["--setting", "multi_directional"], {
            "dataset/manifest.json": "705e1e06b31645b234ab6c59d030fdac301685e5f0135fe0f8771c87d172f303",
            "dataset/records.tsv": "c9cf8c5720cd8ba5b1a5ecedf522d52f71c64b6657599325ba667e1e3e87a227",
        }),
        (["--setting", "multi_directional", "--format", "split_files"], {
            "dataset/manifest.json": "9cdb2d75d12a949d61d274b90743789cb1fe52a5ce38a71aaefded664fd38d10",
            "dataset/de-en.src": "2d54d6d0d757caa001a1d1014ec8ea8227e3b5c4ed6e7eede27662a89f626f00",
            "dataset/de-en.tgt": "4b9719912ec8ee5a79ee7365006dca3e13435910378d317bcdc1ff19116f3108",
            "dataset/de-fr.src": "d6a709e31fb9af5bd6559cff253a5e437b60496fa26e652df3453877b648345c",
            "dataset/de-fr.tgt": "4add20370bc992aba9442c00dc47696cd3a0efc7366aab15a7f09b038d216556",
            "dataset/de-nl.src": "38b7e90df491bee9616b08b5a72867b702d384cd626c7d00a3776eb6237924b7",
            "dataset/de-nl.tgt": "2e83b042768cab75da3633ba99ca97e54453e5ee244cc3bd4bc1bdd049d81844",
            "dataset/en-de.src": "4b9719912ec8ee5a79ee7365006dca3e13435910378d317bcdc1ff19116f3108",
            "dataset/en-de.tgt": "2d54d6d0d757caa001a1d1014ec8ea8227e3b5c4ed6e7eede27662a89f626f00",
            "dataset/en-fr.src": "7b4691d745f12f7d7e262a3e447e0e576377e0ce43a1a591c4a5c50d5c261df4",
            "dataset/en-fr.tgt": "c08823209e42fed2ff0eaae5552fc2596012d243a1fe3b7948896e8f3923bf79",
            "dataset/en-nl.src": "d9bbfea0886dc913f8f5a09ffdca644cf71cbfece2e4b803d91baef880970143",
            "dataset/en-nl.tgt": "62994fb5ccb8dce9c2667167885fd5dea4edc4e29c63e33d523303bf21defcb8",
            "dataset/fr-de.src": "4add20370bc992aba9442c00dc47696cd3a0efc7366aab15a7f09b038d216556",
            "dataset/fr-de.tgt": "d6a709e31fb9af5bd6559cff253a5e437b60496fa26e652df3453877b648345c",
            "dataset/fr-en.src": "c08823209e42fed2ff0eaae5552fc2596012d243a1fe3b7948896e8f3923bf79",
            "dataset/fr-en.tgt": "7b4691d745f12f7d7e262a3e447e0e576377e0ce43a1a591c4a5c50d5c261df4",
            "dataset/fr-nl.src": "b65858d7b4f38f5fa11622c1f6bea50aeedeb0f6f0ca3156e511ac51312ab076",
            "dataset/fr-nl.tgt": "54e0f754c37e664cc12d36ced71635e811ca2a3a313913e32f458ae148bb56f3",
            "dataset/nl-de.src": "2e83b042768cab75da3633ba99ca97e54453e5ee244cc3bd4bc1bdd049d81844",
            "dataset/nl-de.tgt": "38b7e90df491bee9616b08b5a72867b702d384cd626c7d00a3776eb6237924b7",
            "dataset/nl-en.src": "62994fb5ccb8dce9c2667167885fd5dea4edc4e29c63e33d523303bf21defcb8",
            "dataset/nl-en.tgt": "d9bbfea0886dc913f8f5a09ffdca644cf71cbfece2e4b803d91baef880970143",
            "dataset/nl-fr.src": "54e0f754c37e664cc12d36ced71635e811ca2a3a313913e32f458ae148bb56f3",
            "dataset/nl-fr.tgt": "b65858d7b4f38f5fa11622c1f6bea50aeedeb0f6f0ca3156e511ac51312ab076",
        }),
    ],
    ids=["none", "multi_parallel", "multi_directional", "multi_directional-split_files"],
)
def test_bucket_bytes_are_pinned(tmp_path, argv, digests):
    # 4 languages with gaps give 6 pairs, one per bucket; the row ids are not
    # positions and are not consecutive
    codes = ("de", "en", "fr", "nl")
    columns = {
        c: tuple(
            "" if (c == "de" and i % 7 == 3) or (c == "nl" and i % 5 == 1) else f"{c} row {i} ünï"
            for i in range(45)
        )
        for c in codes
    }
    row_ids = tuple(1000 - 7 * i for i in range(45))
    save_corpus(MultiParallelCorpus(columns, row_ids, {"source": "golden"}), tmp_path / "corpus")
    out = tmp_path / "buckets"
    assert main(["buckets", "--corpus", str(tmp_path / "corpus"), "--num-buckets", "6",
                 *argv, "--seed", "3", "--out", str(out)]) == 0
    written = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.json"
    }
    assert written == {"buckets.json": BUCKETS_JSON, **digests}


def test_family_flag_restricts_build_ft_and_probe_numbers(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["de", "en", "fr", "nl"], 4), path)
    directions = {}
    for name, argv in {
        "germanic": ["build-ft", "--corpus", str(path), "--family", "Germanic"],
        "zero_shot": ["build-ft", "--corpus", str(path), "--family", "Germanic",
                      "--no-english-centric"],
        "romance": ["probe-numbers", "--lines", "1", "--family", "Romance"],
    }.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        directions[name] = sorted(manifest["counts"]["per_direction"])
    assert directions["germanic"] == ["de-en", "de-nl", "en-de", "en-nl", "nl-de", "nl-en"]
    assert directions["zero_shot"] == ["de-nl", "nl-de"]
    romance = ec30().members_of_family("Romance")
    assert directions["romance"] == sorted(f"{a}-{b}" for a in romance for b in romance if a != b)


def test_probe_numbers_defaults_to_the_registry_languages(tmp_path):
    out = tmp_path / "numbers"
    assert main(["probe-numbers", "--lines", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    codes = ec30().codes
    assert len(codes) == 31
    assert manifest["directions"] == [f"{a}-{b}" for a in sorted(codes) for b in sorted(codes)
                                      if a != b]


def gapped_corpus_dir(directory):
    """A seeded 4-language corpus of 24 rows with four empty cells."""
    codes = ["en", "de", "nl", "fr"]
    columns = {c: synthetic_sentences("abcdefghij", 24, seed=i, words=3)
               for i, c in enumerate(codes)}
    for code, row in (("de", 3), ("nl", 5), ("nl", 17), ("fr", 11)):
        columns[code][row] = ""
    corpus = MultiParallelCorpus({c: tuple(v) for c, v in columns.items()},
                                 tuple(range(10, 82, 3)))
    save_corpus(corpus, directory)
    return directory


def tree_digest(out):
    """sha256 of a sorted sha256sum listing of every file under ``out`` but run.json."""
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(out).as_posix()}\n"
        for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.json"
    )
    return hashlib.sha256(listing.encode()).hexdigest()


@pytest.mark.parametrize(
    "case, digest",
    [
        pytest.param(case, digest, id=case.replace(" ", "-"))
        for case, digest in [
            ("build-ft tsv none",
             "2a234da38ddcc0fbdec62a05995abd73fc5d5972da6ffdc1c4a2db387d009723"),
            ("build-ft tsv one_tag",
             "2270a83a4f06d3a7308716090b6dc07fab9e99f736a273658d1d199de38f77ad"),
            ("build-ft tsv two_tag",
             "d6aeb6cf88d28697df6533ad790ec20c45e095261d64edd9fac8e1f60d1df713"),
            ("build-ft split_files none",
             "8aad5ccd9c58c61f77398068509d5cde585a6cd7f78a752c19cf231e5bc80457"),
            ("build-ft split_files one_tag",
             "ee994d7a994b7cbc0858536705985d67ce585a399c18eb370a7830a1d681e35b"),
            ("build-ft split_files two_tag",
             "9c4df916d5795cef419d9bc833a18b3ef3ac22cb528e88574689c3786bdf39b1"),
            ("tag new",
             "17350154cffcfc803ff6e0e40cef5de381854edbfe62b3d748c3045f8c1d473b"),
            ("tag in_place",
             "9f1cbb2a9f194f1425df831d30b80cf2b5ba8d73929c7af87d5382e56559771c"),
            ("buckets multi_parallel",
             "89659f062dfd20e5960ae87b34f6b5774206e21c36bab117681aaad47e9fd32e"),
            ("buckets multi_directional",
             "863d07c00d5858524467ed8389ac70983ef0d2bd1b77bfa4ae9bf0fcf203ed9f"),
        ]
    ],
)
def test_dataset_bytes_are_pinned(tmp_path, case, digest):
    corpus = gapped_corpus_dir(tmp_path / "corpus")
    out = tmp_path / "out"
    command, setting, *tag = case.split()
    if command == "build-ft":
        assert main(["build-ft", "--corpus", str(corpus), "--format", setting, "--tag", *tag,
                     "--rows", "16", "--fraction", "0.5", "--seed", "7", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["skipped"]
    elif command == "tag":
        plain = tmp_path / "plain"
        assert main(["build-ft", "--corpus", str(corpus), "--out", str(plain)]) == 0
        if setting == "new":
            assert main(["tag", "--dataset", str(plain), "--tag", "two_tag", "--out", str(out)]) == 0
        else:
            out = plain
            assert main(["tag", "--dataset", str(out), "--tag", "one_tag", "--out", str(out)]) == 0
    else:
        extra = ["--num-buckets", "3", "--bucket", "2"] if setting == "multi_parallel" else [
            "--num-buckets", "6"]
        assert main(["buckets", "--corpus", str(corpus), "--setting", setting, *extra,
                     "--seed", "3", "--out", str(out)]) == 0
        assert json.loads((out / "dataset" / "manifest.json").read_text())["skipped"]
    assert tree_digest(out) == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["build-ft", "--family", "Germanic", "--no-english-centric"],
         "f408b3f02dfe127d07c632a4e7e92d173437a925c839f00fee0e64c1ff5a7615"),
        (["build-ft", "--exclude", "fr"],
         "b46255e64fd6fea19cc6b85b99e9fbc09e56cb272c4febfd5a3d579b29aad77e"),
        (["build-ft", "--family", "Germanic", "--exclude", "nl", "--fraction", "0.5"],
         "ebdc3ec92f20fc22cd481e088f2a66cfc36025c8ab1d989865d9befb6d165555"),
        (["probe-numbers", "--languages", "en", "de", "nl", "fr", "--fraction", "0.5",
          "--lines", "3"],
         "a328317473479f2a4455a33f898c8093b6d3c2515248aef8ce64591de49d7f33"),
        (["mix", "--temperature", "5", "--schedule-length", "50"],
         "d5220d846bd7542e90076d8cd32d6d77887fd4bc9810c24cf0830d3dbc5f9198"),
    ],
    ids=["family-zero-shot", "exclude", "family-exclude-fraction", "probe-numbers-fraction",
         "mix-schedule"],
)
def test_direction_selection_bytes_are_pinned(tmp_path, argv, digest):
    # the manifest's directions and direction_provenance, and mix's weights
    # and schedule
    if argv[0] == "build-ft":
        argv = [*argv, "--corpus", str(gapped_corpus_dir(tmp_path / "corpus"))]
    elif argv[0] == "mix":
        sizes = tmp_path / "sizes.tsv"
        sizes.write_text("de-nl\t300\nen-de\t5000\nen-nl\t1200\nfr-nl\t40\n", encoding="utf-8")
        argv = [*argv, "--sizes", str(sizes)]
    out = tmp_path / "out"
    assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
    assert tree_digest(out) == digest
