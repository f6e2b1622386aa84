import json
import re
import string
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar.datagen import Direction
from multipar.metrics import (
    BLEU_MAX_ORDER,
    CHAR_ORDER,
    CHRF,
    CHRF_PP,
    MetricConfig,
    MetricError,
    ScorePair,
    _bleu_pair_stats,
    _chrf_pair_stats,
    bleu,
    chrf,
    tokenize_13a,
)
from multipar.report import ReportError, load_scores
from oracles import tokenize_13a_regex
from oracles.make_metric_fixture import char_ngrams, split_off_punct, word_ngrams

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "metric_fixture.json").read_text(encoding="utf-8")
)
PAIRS = [ScorePair(row["hyp"], row["ref"]) for row in FIXTURE["pairs"]]


# --- 13a tokenizer -----------------------------------------------------------------


def test_tokenizer_matches_reference_on_fixture():
    for row in FIXTURE["tokenizer"]:
        assert tokenize_13a(row["text"]) == row["tokens"], row["text"]


def test_tokenizer_basics():
    assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]
    assert tokenize_13a("3.14") == ["3.14"]  # dot between digits stays
    assert tokenize_13a("ends.") == ["ends", "."]
    assert tokenize_13a("2-3 and a-b") == ["2", "-", "3", "and", "a-b"]
    assert tokenize_13a("&quot;x&quot;") == ['"', "x", '"']
    assert tokenize_13a("") == []


# --- exact per-pair statistics ---------------------------------------------------

EVERY_CODE_POINT = "".join(map(chr, range(0x110000)))
# pieces that stress the tokenizers and the n-gram counts: every character
# str.isspace accepts, combining marks, non-BMP characters, 13a entities and
# markers, and digits next to the dot, comma and dash rules
ADVERSARIAL = sorted(
    {c for c in EVERY_CODE_POINT if c.isspace()}
    | set(string.ascii_letters[:6] + string.digits[:3] + string.punctuation)
    | {"\u0301", "\u0308", "e\u0301", "\U0001F600", "\U0001D518", "\U00020000", "ß", "кот", "猫"}
    | {"&quot;", "&amp;", "&lt;", "&gt;", "&amp;quot;", "<skipped>", "-\n", "\n"}
    | {"3.14", "1,000", "2-3", "a.b", "5.", ".5", "x-1", "1-x", "-1", "1,a", "a,1"}
)
texts = st.lists(st.sampled_from(ADVERSARIAL), max_size=24).map("".join)


def slicing_chrf_stats(hyp, ref, word_order):
    """Per-pair chrF / chrF++ statistics from the oracle's slicing counters."""
    stats = []
    h, r = re.sub(r"\s+", "", hyp), re.sub(r"\s+", "", ref)
    for n in range(1, CHAR_ORDER + 1):
        hg, rg = char_ngrams(h, n), char_ngrams(r, n)
        stats += [sum(hg.values()), sum(rg.values()), sum((hg & rg).values())]
    hw, rw = split_off_punct(hyp), split_off_punct(ref)
    for n in range(1, word_order + 1):
        hg, rg = word_ngrams(hw, n), word_ngrams(rw, n)
        stats += [sum(hg.values()), sum(rg.values()), sum((hg & rg).values())]
    return stats


def slicing_bleu_stats(hyp, ref):
    """Per-pair BLEU statistics: hypothesis n-grams, reference n-grams and
    matches per order, over the regex tokenizer's tokens."""
    h, r = tokenize_13a_regex.tokenize_13a(hyp), tokenize_13a_regex.tokenize_13a(ref)
    stats = []
    for n in range(1, BLEU_MAX_ORDER + 1):
        hg, rg = word_ngrams(h, n), word_ngrams(r, n)
        stats += [sum(hg.values()), sum(rg.values()), sum((hg & rg).values())]
    return stats


def test_str_split_and_regex_whitespace_agree_on_every_code_point():
    assert "".join(EVERY_CODE_POINT.split()) == re.sub(r"\s+", "", EVERY_CODE_POINT)


@settings(max_examples=300, deadline=None)
@given(hyp=texts, ref=texts, same=st.booleans())
@example(hyp="a\u3000b\x1cc", ref="ab c", same=False)
@example(hyp="1.5-2,x &amp; <skipped>y-\nz", ref="", same=True)
@example(hyp="", ref="\U0001F600\U0001F600", same=False)
def test_pair_statistics_equal_the_slicing_reference(hyp, ref, same):
    if same:
        ref = hyp
    pair = ScorePair(hyp, ref)
    chrf_stats = _chrf_pair_stats(pair, CHRF)
    assert chrf_stats == slicing_chrf_stats(hyp, ref, 0)
    chrfpp_stats = _chrf_pair_stats(pair, CHRF_PP)
    assert chrfpp_stats == slicing_chrf_stats(hyp, ref, 2)
    assert chrfpp_stats[: 3 * CHAR_ORDER] == chrf_stats
    bleu_stats = _bleu_pair_stats(pair)
    assert bleu_stats == slicing_bleu_stats(hyp, ref)
    # the unigram columns are the token counts BLEU's brevity penalty reads
    assert bleu_stats[:2] == [len(tokenize_13a(hyp)), len(tokenize_13a(ref))]


@settings(max_examples=300, deadline=None)
@given(text=texts)
@example(text="a\x1c.b , 1-2 &lt;x&gt; <skipped>-\nq")
def test_tokenize_13a_equals_the_regex_tokenizer(text):
    assert tokenize_13a(text) == tokenize_13a_regex.tokenize_13a(text)


# --- frozen corpus-level scores ------------------------------------------------------


def test_bleu_matches_reference_within_tolerance():
    assert bleu(PAIRS) == pytest.approx(FIXTURE["expected"]["bleu"], abs=0.05)


def test_chrf_matches_reference_within_tolerance():
    assert chrf(PAIRS, CHRF) == pytest.approx(FIXTURE["expected"]["chrf"], abs=0.05)


def test_chrfpp_matches_reference_within_tolerance():
    assert chrf(PAIRS, CHRF_PP) == pytest.approx(FIXTURE["expected"]["chrfpp"], abs=0.05)


# --- metric properties ----------------------------------------------------------------


def test_identical_corpus_scores_100():
    pairs = [ScorePair(r.reference, r.reference) for r in PAIRS]
    assert bleu(pairs) == pytest.approx(100.0, abs=1e-9)
    assert chrf(pairs, CHRF) == pytest.approx(100.0, abs=1e-9)
    assert chrf(pairs, CHRF_PP) == pytest.approx(100.0, abs=1e-9)


def test_disjoint_corpus_scores_0():
    pairs = [ScorePair("aaaa bbbb", "cccc dddd")] * 3
    assert bleu(pairs) == 0.0
    assert chrf(pairs, CHRF) == 0.0


def test_bleu_zero_when_an_order_has_no_hypothesis_ngrams():
    # two-token hypotheses have no 3-grams or 4-grams anywhere
    pairs = [ScorePair("the cat", "the cat sat on the mat")] * 5
    assert bleu(pairs) == 0.0


def test_corpus_scores_invariant_under_pair_permutation():
    reordered = list(reversed(PAIRS))
    assert bleu(reordered) == pytest.approx(bleu(PAIRS), abs=1e-12)
    assert chrf(reordered, CHRF_PP) == pytest.approx(chrf(PAIRS, CHRF_PP), abs=1e-12)


def test_corruption_strictly_decreases_chrf():
    clean = [ScorePair(p.reference, p.reference) for p in PAIRS]
    corrupted = [
        ScorePair(p.reference.replace("e", "q"), p.reference) for p in PAIRS
    ]
    assert chrf(corrupted, CHRF_PP) < chrf(clean, CHRF_PP)


def test_empty_pair_list_rejected():
    with pytest.raises(MetricError):
        bleu([])
    with pytest.raises(MetricError):
        chrf([])


def test_config_validation():
    with pytest.raises(MetricError):
        MetricConfig(word_order=-1)


# --- external score ingestion ---------------------------------------------------------


HEADER = "src_lang\ttgt_lang\tmetric\tvalue\tcount\n"


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        HEADER + "de\tnl\tcomet\t0.82\t100\nnl\tde\tcomet\t0.79\t100\n",
        encoding="utf-8",
    )
    matrix = load_scores(path)
    assert len(matrix) == 2
    assert matrix[(Direction("de", "nl"), "comet")][0] == pytest.approx(0.82)
    assert matrix[(Direction("de", "nl"), "comet")][1] == 100


def test_ingest_rejects_missing_header(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("de\tnl\tcomet\t0.8\t1\n", encoding="utf-8")
    with pytest.raises(ReportError):
        load_scores(path)


def test_ingest_reports_line_numbers_for_all_errors(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        HEADER
        + "de\tnl\tcomet\t0.8\t1\n"
        + "de\tnl\tcomet\t0.9\t1\n"  # duplicate cell
        + "de\tnl\tbleu\tnot-a-number\t1\n"  # bad value
        + "de\tnl\tchrf\t1.0\n",  # missing field
        encoding="utf-8",
    )
    with pytest.raises(ReportError) as err:
        load_scores(path)
    message = str(err.value)
    assert ":3" in message and ":4" in message and ":5" in message
    assert "duplicate" in message
