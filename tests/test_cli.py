import json

import pytest

from multipar import save_corpus
from multipar.cli import main

from helpers import full_corpus, make_mining_fixture, synthetic_sentences


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


def test_buckets_ignores_registry_flag(tmp_path):
    path = tmp_path / "corpus"
    save_corpus(full_corpus(["de", "en", "nl"], 30), path)
    out = tmp_path / "buckets"
    rc = main(
        ["buckets", "--corpus", str(path), "--num-buckets", "3",
         "--registry", str(tmp_path / "missing.json"), "--out", str(out)]
    )
    assert rc == 0
    assert json.loads((out / "buckets.json").read_text())["num_buckets"] == 3


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
