import json
import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from multipar.cli import main
from multipar.langid import (
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
            label, margin = lid_classify(s, disjoint_model)
            correct += label == lang
            total += 1
            assert margin >= 0
    assert correct / total >= 0.99


def test_classify_empty_text_is_unknown(disjoint_model):
    assert lid_classify("", disjoint_model) == (UNKNOWN, 0.0)
    assert lid_classify("   \t", disjoint_model) == (UNKNOWN, 0.0)


def test_classify_tie_breaks_lexicographically():
    model = lid_train({"bb": ["xy"], "aa": ["xy"]}, LidConfig(max_order=1))
    label, margin = lid_classify("xy", model)
    assert label == "aa"
    assert margin == pytest.approx(0.0, abs=1e-12)


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


def test_off_target_empty_policy_configurable():
    train = {
        "aa": synthetic_sentences(ALPHA_A, 50, seed=1),
        "bb": synthetic_sentences(ALPHA_B, 50, seed=2),
    }
    lenient = lid_train(train, LidConfig(empty_is_off_target=False))
    report = off_target_rate([("", "aa")], lenient)
    assert report.overall_off_target == 0


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
    return scored[0][1], scored[1][0] - scored[0][0]


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
