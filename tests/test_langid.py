import hashlib
import json
import math
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar import langid
from multipar.cli import main
from multipar.langid import (
    MAX_ORDER,
    UNKNOWN,
    LidConfig,
    LidError,
    LidModel,
    _ngrams,
    lid_classify,
    lid_train,
    off_target_rate,
    on_target_subset,
)

from helpers import synthetic_sentences

ALPHA_A = "abcdefgh"
ALPHA_B = "qrstuvwx"


@pytest.fixture(scope="module")
def disjoint_model():
    train = {
        "aa": synthetic_sentences(ALPHA_A, 200, seed=1),
        "bb": synthetic_sentences(ALPHA_B, 200, seed=2),
    }
    return lid_train(train)


def test_train_validation():
    with pytest.raises(LidError):
        lid_train({"aa": ["text"]})
    with pytest.raises(LidError):
        lid_train({"aa": ["text"], "bb": []})
    with pytest.raises(LidError):
        LidConfig(max_order=0)
    with pytest.raises(LidError):
        LidConfig(alpha=0)


def test_hand_computed_order1_log_score():
    config = LidConfig(max_order=1, alpha=0.5)
    model = lid_train({"aa": ["ab"], "bb": ["bb"]}, config)
    # shared order-1 vocabulary {a, b} plus one unseen slot -> size 3
    assert model.vocab_sizes == (3,)
    # counts: aa has a:1 b:1 (total 2); priors uniform 1/2
    denom = 2 + 0.5 * 3
    expected = math.log(0.5) + math.log(1.5 / denom) + math.log(1.5 / denom)
    assert model.log_score("ab", "aa") == pytest.approx(expected, abs=1e-12)
    # unseen character falls back to the smoothing mass
    expected_unseen = math.log(0.5) + math.log(0.5 / denom)
    assert model.log_score("z", "aa") == pytest.approx(expected_unseen, abs=1e-12)


def test_disjoint_alphabets_high_heldout_accuracy(disjoint_model):
    heldout = {
        "aa": synthetic_sentences(ALPHA_A, 200, seed=3),
        "bb": synthetic_sentences(ALPHA_B, 200, seed=4),
    }
    correct = total = 0
    for lang, sentences in heldout.items():
        for s in sentences:
            correct += lid_classify(s, disjoint_model) == lang
            total += 1
    assert correct / total >= 0.99


def test_classify_empty_text_is_unknown(disjoint_model):
    assert lid_classify("", disjoint_model) is UNKNOWN
    assert lid_classify("   \t", disjoint_model) is UNKNOWN


def test_a_language_coded_unknown_is_not_empty_text():
    # "unknown" is a legal code: its text is on target, and empty text is
    # never on target for it
    model = lid_train({
        "unknown": synthetic_sentences(ALPHA_A, 200, seed=1),
        "de": synthetic_sentences(ALPHA_B, 200, seed=2),
    })
    text = synthetic_sentences(ALPHA_A, 1, seed=3)[0]
    assert lid_classify(text, model) == "unknown"
    report = off_target_rate([(text, "unknown"), ("", "unknown")], model)
    assert report.per_direction["unknown"] == {"total": 2, "off_target": 1, "rate": 0.5}
    subsets = on_target_subset({"de-unknown": {0: "", 1: text}}, model)
    assert subsets == {"de-unknown": {1}}


def test_classify_tie_breaks_lexicographically():
    model = lid_train({"bb": ["xy"], "aa": ["xy"]}, LidConfig(max_order=1))
    assert lid_classify("xy", model) == "aa"


def hand_model(tmp_path, languages, priors):
    """A saved and reloaded order-2 model whose languages share one count table."""
    tables = [{"x": 2, "y": 1}, {"xy": 1}]
    data = {
        "schema_version": 1, "languages": languages, "max_order": 2, "alpha": 0.1,
        "empty_is_off_target": True, "priors": priors, "vocab_sizes": [3, 2],
        "counts": {lang: tables for lang in languages},
    }
    (tmp_path / "lid_model.json").write_text(json.dumps(data), encoding="utf-8")
    return LidModel.load(tmp_path / "lid_model.json")


def test_a_tie_in_a_model_listing_its_languages_unsorted_goes_to_the_smallest_code(tmp_path):
    model = hand_model(tmp_path, ["bb", "aa"], {"aa": 0.5, "bb": 0.5})
    assert model.languages == ("bb", "aa")
    for text in ["xy", "yx x", "zz"]:
        assert lid_classify(text, model) == "aa"


def test_the_empty_text_scores_its_log_prior(tmp_path, disjoint_model):
    model = hand_model(tmp_path, ["bb", "aa"], {"aa": 0.25, "bb": 0.75})
    assert model.log_score("", "aa") == math.log(0.25)
    assert model.log_score("", "bb") == math.log(0.75)
    assert disjoint_model.log_score("", "bb") == math.log(0.5)


def test_off_target_rate_exact_hand_counts(disjoint_model):
    a = synthetic_sentences(ALPHA_A, 8, seed=10)
    b = synthetic_sentences(ALPHA_B, 8, seed=11)
    hyps = (
        [(s, "aa") for s in a[:6]]          # 6 correct
        + [(s, "aa") for s in b[:2]]        # 2 off-target
        + [(s, "bb") for s in b[:4]]        # 4 correct
        + [("", "bb")]                      # empty counts as off-target
    )
    report = off_target_rate(hyps, disjoint_model)
    assert report.per_direction["aa"] == {"total": 8, "off_target": 2, "rate": 0.25}
    assert report.per_direction["bb"] == {"total": 5, "off_target": 1, "rate": 0.2}
    assert report.overall_total == 13
    assert report.overall_off_target == 3
    assert report.overall_rate == pytest.approx(3 / 13)


def test_lid_eval_and_ontarget_agree_on_empty_hypotheses(disjoint_model, tmp_path):
    disjoint_model.save(tmp_path / "model.json")
    a = synthetic_sentences(ALPHA_A, 1, seed=5)[0]
    b = synthetic_sentences(ALPHA_B, 1, seed=6)[0]
    hyps = [("aa", a), ("aa", ""), ("aa", "  "), ("bb", b), ("bb", a), ("bb", "")]
    (tmp_path / "eval.tsv").write_text(
        "".join(f"{code}\t{text}\n" for code, text in hyps), encoding="utf-8")
    (tmp_path / "rows.tsv").write_text(
        "".join(f"xx-{code}\t{i}\t{text}\n" for i, (code, text) in enumerate(hyps)),
        encoding="utf-8")
    for subcommand, name in [("lid-eval", "eval.tsv"), ("ontarget", "rows.tsv")]:
        argv = [subcommand, "--model", str(tmp_path / "model.json"),
                "--hypotheses", str(tmp_path / name), "--out", str(tmp_path / subcommand)]
        assert main(argv) == 0
    off = json.loads((tmp_path / "lid-eval" / "off_target.json").read_text(encoding="utf-8"))
    on = json.loads((tmp_path / "ontarget" / "on_target.json").read_text(encoding="utf-8"))
    assert on == {"xx-aa": [0], "xx-bb": [3]}
    for code in ("aa", "bb"):
        entry = off["per_direction"][code]
        assert entry["total"] - entry["off_target"] == len(on[f"xx-{code}"]) == 1


def lid_error(tmp_path, capsys, model, subcommand, hyps):
    """The JSON error envelope of ``subcommand`` run on the ``hyps`` lines;
    asserts exit 1 and that nothing is written."""
    model.save(tmp_path / "model.json")
    (tmp_path / "hyps.tsv").write_text(hyps, encoding="utf-8")
    out = tmp_path / "out"
    argv = [subcommand, "--model", str(tmp_path / "model.json"),
            "--hypotheses", str(tmp_path / "hyps.tsv"), "--out", str(out), "--json-errors"]
    assert main(argv) == 1
    assert not out.exists()
    return json.loads(capsys.readouterr().err)


def test_off_target_unknown_expected_code(disjoint_model, tmp_path, capsys):
    for line, code in [("zz\ttext", "zz"), ("\t", "")]:
        envelope = lid_error(tmp_path, capsys, disjoint_model, "lid-eval", f"aa\tabc\n{line}\n")
        assert envelope == {
            "error": "LidError",
            "message": f"{tmp_path / 'hyps.tsv'}:2: expected code {code!r} absent from model",
        }


def test_on_target_subset_and_zero_residual_rate(disjoint_model):
    a = synthetic_sentences(ALPHA_A, 6, seed=20)
    b = synthetic_sentences(ALPHA_B, 6, seed=21)
    baseline = {
        "bb-aa": {0: a[0], 1: b[0], 2: a[1], 3: ""},
        "aa-bb": {0: b[1], 1: a[2], 2: b[2]},
    }
    subsets = on_target_subset(baseline, disjoint_model)
    assert subsets["bb-aa"] == {0, 2}
    assert subsets["aa-bb"] == {0, 2}
    # off-target rate on the on-target subset is exactly zero
    residual = [
        (text, direction.rpartition("-")[2])
        for direction, rows in baseline.items()
        for rid, text in rows.items()
        if rid in subsets[direction]
    ]
    assert off_target_rate(residual, disjoint_model).overall_rate == 0.0


def test_on_target_subset_validation(disjoint_model, tmp_path, capsys):
    for line, message in [
        ("aa-zz\t0\tx", "target 'zz' of 'aa-zz' absent from model"),
        ("aabb\t0\tx", "target 'aabb' of 'aabb' absent from model"),
        ("aa-bb\t1\ty", "duplicate row id 1 in direction 'aa-bb'"),
    ]:
        hyps = f"aa-bb\t1\tx\nbb-aa\t1\tx\n{line}\n"
        envelope = lid_error(tmp_path, capsys, disjoint_model, "ontarget", hyps)
        assert envelope == {"error": "LidError", "message": f"{tmp_path / 'hyps.tsv'}:3: {message}"}


def test_model_json_round_trip(tmp_path, disjoint_model):
    path = tmp_path / "model.json"
    disjoint_model.save(path)
    loaded = LidModel.load(path)
    assert loaded.languages == disjoint_model.languages
    assert loaded.config == disjoint_model.config
    text = synthetic_sentences(ALPHA_A, 1, seed=30)[0]
    assert lid_classify(text, loaded) == lid_classify(text, disjoint_model)


def test_model_schema_version_checked(tmp_path, disjoint_model):
    data = disjoint_model.to_json_dict()
    data["schema_version"] = 999
    with pytest.raises(LidError):
        LidModel.from_json_dict(data)


def test_log_score_unknown_language(disjoint_model):
    with pytest.raises(LidError):
        disjoint_model.log_score("text", "zz")


# --- exactness of the table-driven scoring path ---------------------------------
# The references below slice strings and apply the smoothed formula term by
# term, straight from the counts a model writes.


def slice_ngrams(text, n):
    return [text[i : i + n] for i in range(len(text) - n + 1)]


def reference_log_score(data, text, language):
    alpha = data["alpha"]
    score = math.log(data["priors"][language])
    for order in range(1, data["max_order"] + 1):
        table = data["counts"][language][order - 1]
        denom = sum(table.values()) + alpha * data["vocab_sizes"][order - 1]
        for gram in slice_ngrams(text, order):
            score += math.log((table.get(gram, 0) + alpha) / denom)
    return score


def reference_classify(data, text):
    scored = sorted((-reference_log_score(data, text, lang), lang) for lang in data["languages"])
    return scored[0][1]


# non-BMP and combining characters alongside ASCII
TEXT = st.text(alphabet=st.sampled_from("ab \u00e9\u0301\u4e2d\U0001f600\U00010348"), max_size=12)


@given(text=st.one_of(TEXT, st.text(max_size=12)), n=st.integers(1, 14))
def test_ngrams_equal_slicing(text, n):
    assert list(_ngrams(text, n)) == slice_ngrams(text, n)


@pytest.mark.parametrize("max_order", [1, 2, 3, 4])
def test_log_score_and_classify_equal_the_formula(tmp_path, max_order):
    train = {
        "aa": synthetic_sentences("abcdefgh", 40, seed=5),
        "bb": synthetic_sentences("efghijkl", 40, seed=6),
        "cc": synthetic_sentences("abcd\u00e9\U0001f600", 40, seed=7),
    }
    model = lid_train(train, LidConfig(max_order=max_order, alpha=0.3))
    model.save(tmp_path / "model.json")
    loaded = LidModel.load(tmp_path / "model.json")
    data = model.to_json_dict()
    # seen text, mixed alphabets, grams no language has seen, and short texts
    texts = [
        *synthetic_sentences("abcdefghijkl\u00e9", 12, seed=8),
        "zzz xyz", "a", "ab", "\U0001f600\U0001f600 qq", "hgfe dcba",
    ]
    for text in texts:
        for lang in model.languages:
            expected = reference_log_score(data, text, lang)
            assert model.log_score(text, lang) == expected
            assert loaded.log_score(text, lang) == expected
        assert lid_classify(text, model) == reference_classify(data, text)
        assert lid_classify(text, loaded) == reference_classify(data, text)


def test_trained_counts_equal_slicing_counts():
    train = {
        "aa": synthetic_sentences("abcdefgh", 30, seed=9) + ["", "a", "\U0001f600x\U0001f600"],
        "bb": synthetic_sentences("qrstuvwx", 30, seed=10),
    }
    data = lid_train(train, LidConfig(max_order=4)).to_json_dict()
    expected = {
        lang: [
            dict(Counter(g for s in sentences for g in slice_ngrams(s, n))) for n in range(1, 5)
        ]
        for lang, sentences in train.items()
    }
    assert data["counts"] == expected
    assert data["vocab_sizes"] == [
        len(set(expected["aa"][n]) | set(expected["bb"][n])) + 1 for n in range(4)
    ]


# sentence lists with "", 1-character sentences, sentences shorter than the
# top order, and non-BMP or combining characters
SENTENCES = st.lists(st.one_of(TEXT, st.sampled_from(["", "a", "\u0301", "\U0001f600"])),
                     min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(aa=SENTENCES, bb=SENTENCES, max_order=st.integers(1, 5))
def test_trained_counts_equal_slicing_counts_for_any_sentences(aa, bb, max_order):
    train = {"aa": aa, "bb": bb}
    data = lid_train(train, LidConfig(max_order=max_order)).to_json_dict()
    assert data["counts"] == {
        lang: [
            dict(Counter(g for s in sentences for g in slice_ngrams(s, n)))
            for n in range(1, max_order + 1)
        ]
        for lang, sentences in train.items()
    }


def test_a_training_sentence_holding_a_line_feed_is_rejected():
    for sentences in (["ab", "c\nd"], ["\n"], ["", "\n", ""]):
        with pytest.raises(LidError, match="a training sentence holds a line feed"):
            lid_train({"aa": sentences, "bb": ["xy"]})


def memo_sizes(model):
    return [len(memo) for memo, *_ in model._vectors[1]]


def test_the_memo_holds_only_grams_some_language_has_counted():
    train = {"aa": synthetic_sentences(ALPHA_A, 30, seed=1), "bb": synthetic_sentences(ALPHA_B, 30, seed=2)}
    model = lid_train(train)
    # no language has counted any gram of these texts
    for text in ["zzz", "\U0001f600\u4e2d9", "y\u0301y"]:
        lid_classify(text, model)
    assert memo_sizes(model) == [0, 0, 0]
    texts = [s + "zz\U0001f600" for s in synthetic_sentences(ALPHA_A + ALPHA_B, 20, seed=41)]
    for text in texts:
        lid_classify(text, model)
    counts = model.to_json_dict()["counts"]
    for n, (memo, *_) in enumerate(model._vectors[1], 1):
        counted = set(counts["aa"][n - 1]) | set(counts["bb"][n - 1])
        seen = {g for text in texts for g in slice_ngrams(text, n)}
        assert set(memo) == seen & counted


# --- the model written one language at a time, and its memory -------------------

# non-ASCII and astral characters, quotes, backslashes and control characters
GRAM = st.text(alphabet=st.one_of(st.sampled_from('a"\\\x00\x1f\x7fé \U0001f600'),
                                  st.characters()), max_size=3)


@st.composite
def models(draw):
    """A small model, valid or not, over unsorted, possibly odd codes; its
    tables may be empty."""
    max_order = draw(st.integers(1, 3))
    codes = draw(st.lists(GRAM, unique=True, max_size=4))
    table = st.dictionaries(GRAM, st.integers(0, 2**70), max_size=4)
    counts = {code: [draw(table) for _ in range(max_order)] for code in codes}
    priors = {code: draw(st.floats(0, 1, exclude_min=True)) for code in codes}
    return LidModel(
        languages=tuple(codes),
        config=LidConfig(max_order=max_order, alpha=draw(st.floats(1e-3, 10))),
        counts=counts,
        priors=priors,
        vocab_sizes=tuple(draw(st.integers(1, 99)) for _ in range(max_order)),
    )


@settings(max_examples=150, deadline=None)  # disk I/O per example
@given(models())
@example(LidModel(("zz", "aa"), LidConfig(), {"zz": [{}, {}, {}], "aa": [{}, {}, {}]},
                  {"zz": 0.5, "aa": 0.5}, (1, 1, 1)))
@example(LidModel((), LidConfig(), {}, {}, (1, 1, 1)))
def test_the_saved_bytes_are_the_one_shot_encoding(model):
    with tempfile.TemporaryDirectory() as tmp:
        model.save(Path(tmp) / "lid_model.json")
        written = (Path(tmp) / "lid_model.json").read_bytes()
    one_shot = json.dumps(model.to_json_dict(), sort_keys=True, allow_nan=False) + "\n"
    assert written == one_shot.encode("utf-8")


def traced_peak(fn):
    """The traced peak of ``fn()`` above the memory traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_save_memory_does_not_grow_with_the_languages(tmp_path):
    # every language holds the same 3 x 3,000 grams, over 100 KB of JSON
    tables = [{f"{i:05d}{'x' * order}": i % 97 + 1 for i in range(3000)} for order in range(3)]

    def peak(n):
        codes = [f"l{i:02d}" for i in range(n)]
        model = LidModel(tuple(codes), LidConfig(), dict.fromkeys(codes, tables),
                         dict.fromkeys(codes, 1 / n), (3001, 3001, 3001))
        return traced_peak(lambda: model.save(tmp_path / f"{n}.json"))

    assert peak(32) <= 1.5 * peak(8)


def test_building_the_vectors_adds_under_a_tenth_of_the_model(tmp_path):
    train = {code: synthetic_sentences(alphabet, 300, seed=i)
             for i, (code, alphabet) in enumerate(
                 [("aa", "abcdefgh"), ("bb", "efghijkl"), ("cc", "ijklmnop"), ("dd", "mnopqrst")])}
    lid_train(train, LidConfig(max_order=4)).save(tmp_path / "lid_model.json")
    tracemalloc.start()
    try:
        model = LidModel.load(tmp_path / "lid_model.json")
        loaded = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced_peak(lambda: model._vectors) < loaded / 10


# --- pinned bytes of the three LID stages ---------------------------------------

# one language's grams are non-ASCII, and hold '"' and '\'
PINNED_ALPHABETS = {"de": "abcdefgh", "el": 'αβγδεζ"\\', "nl": "efghijkl"}


def lid_stage_digests(root, max_order):
    """Run ``lid-train`` at ``max_order`` over a seeded corpus, then
    ``lid-eval`` and ``ontarget`` over seeded hypotheses, some misread and
    some empty; return each written file's sha256 but ``run.json``'s."""
    codes = sorted(PINNED_ALPHABETS)
    corpus = root / "corpus"
    corpus.mkdir()
    for i, code in enumerate(codes):
        column = synthetic_sentences(PINNED_ALPHABETS[code], 60, seed=70 + i)
        (corpus / f"{code}.txt").write_text("".join(s + "\n" for s in column), encoding="utf-8")
    held_out = {c: synthetic_sentences(PINNED_ALPHABETS[c], 40, seed=80 + i, words=2)
                for i, c in enumerate(codes)}
    hyps, baseline = [], []
    for i in range(40):
        code, other = codes[i % 3], codes[(i + 1) % 3]
        text = "" if i % 11 == 0 else held_out[other if i % 4 == 0 else code][i]
        hyps.append(f"{code}\t{text}\n")
        baseline.append(f"{other}-{code}\t{1000 - 7 * i}\t{text}\n")
    (root / "hyps.tsv").write_text("".join(hyps), encoding="utf-8")
    (root / "baseline.tsv").write_text("".join(baseline), encoding="utf-8")
    model = str(root / "train" / "lid_model.json")
    for argv in (
        ["lid-train", "--corpus", str(corpus), "--max-order", str(max_order),
         "--out", str(root / "train")],
        ["lid-eval", "--model", model, "--hypotheses", str(root / "hyps.tsv"),
         "--out", str(root / "eval")],
        ["ontarget", "--model", model, "--hypotheses", str(root / "baseline.tsv"),
         "--out", str(root / "ontarget")],
    ):
        assert main(argv) == 0
    return {
        f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for stage in ("train", "eval", "ontarget")
        for p in sorted((root / stage).iterdir()) if p.name != "run.json"
    }


@pytest.mark.parametrize(
    "max_order, digests",
    [
        (3, {
            "train/lid_model.json": "3f1f6fbe66336c2c1f9b0e0f26626375adbeef63470b5becd525c431bbf24fda",
            "eval/off_target.json": "31595a8854d021df79eb7bd2c3b7f0012c4d6885a9d7f085022873289202ef00",
            "ontarget/on_target.json": "048917f5f41e5f302133b93b45ee4bb5a61348fce94c8edf5d9b39cabeb850df",
        }),
        (5, {
            "train/lid_model.json": "b0618058c4c01e4e50ebc6c740d2035b337e008304513a82ed260531480c4659",
            "eval/off_target.json": "31595a8854d021df79eb7bd2c3b7f0012c4d6885a9d7f085022873289202ef00",
            "ontarget/on_target.json": "048917f5f41e5f302133b93b45ee4bb5a61348fce94c8edf5d9b39cabeb850df",
        }),
    ],
)
def test_lid_bytes_are_pinned(tmp_path, max_order, digests):
    assert lid_stage_digests(tmp_path, max_order) == digests


def test_max_order_above_the_ceiling_is_refused_before_counting(tmp_path, capsys, monkeypatch):
    assert LidConfig(max_order=MAX_ORDER).max_order == 10
    with pytest.raises(LidError, match="^max_order must be at most 10, got 11$"):
        LidConfig(max_order=11)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for code, alphabet in (("aa", ALPHA_A), ("bb", ALPHA_B)):
        (corpus / f"{code}.txt").write_text(alphabet + "\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept.txt").write_text("old\n", encoding="utf-8")

    def no_counting(*args):
        raise AssertionError("counted at an order above the ceiling")

    monkeypatch.setattr(langid, "_count_orders", no_counting)
    argv = ["lid-train", "--corpus", str(corpus), "--max-order", "11", "--out", str(out)]
    assert main(argv + ["--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert "max_order must be at most 10, got 11" in err and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == ["kept.txt"]
    assert (out / "kept.txt").read_text(encoding="utf-8") == "old\n"


def test_a_saved_model_above_the_ceiling_is_refused_on_load(tmp_path):
    data = lid_train({"aa": [ALPHA_A], "bb": [ALPHA_B]}, LidConfig(max_order=2)).to_json_dict()
    data["max_order"] = 11
    data["vocab_sizes"] += [1] * 9
    for tables in data["counts"].values():
        tables += [{}] * 9
    path = tmp_path / "lid_model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(LidError, match=f"^{re.escape(str(path))}: max_order must be at most 10"):
        LidModel.load(path)
