import json
from pathlib import Path

import pytest

from multipar.datagen import Direction
from multipar.metrics import (
    CHRF,
    CHRF_PP,
    MetricConfig,
    MetricError,
    ScorePair,
    bleu,
    chrf,
    tokenize_13a,
)
from multipar.report import ReportError, ScoreMatrix

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
    matrix = ScoreMatrix.load_tsv(path)
    assert len(matrix) == 2
    assert matrix.get(Direction("de", "nl"), "comet").value == pytest.approx(0.82)
    assert matrix.get(Direction("de", "nl"), "comet").count == 100


def test_ingest_rejects_missing_header(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("de\tnl\tcomet\t0.8\t1\n", encoding="utf-8")
    with pytest.raises(ReportError):
        ScoreMatrix.load_tsv(path)


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
        ScoreMatrix.load_tsv(path)
    message = str(err.value)
    assert ":3" in message and ":4" in message and ":5" in message
    assert "duplicate" in message
