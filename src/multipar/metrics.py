"""Corpus-level ChrF/ChrF++ and BLEU with a 13a-style tokenizer.

Scores live on a 0-100 scale.  Statistics are pooled over the whole pair
list before the F/precision computation (micro aggregation).  Scoring is
pure Python; ``chrf`` and ``bleu`` sum the integer statistics of contiguous
slices of the pairs in up to ``workers`` processes of :mod:`multipar.pool`,
which gives the same sums, so the same score, as one process.  This module
starts no process itself.  Externally computed scores
(e.g. COMET) are never recomputed here; ``report.ScoreMatrix.load_tsv``
reads them from TSV.

13a tokenization rules, applied in order:
  1. drop the literal token ``<skipped>``; join hyphenated line breaks;
     turn newlines into spaces; unescape ``&quot; &amp; &lt; &gt;``
  2. pad the characters ``{-~ [-` space-& (-+ :-@ /`` (ASCII ranges) with
     spaces
  3. split ``.`` and ``,`` unless both neighbours are digits
  4. split ``-`` when preceded by a digit
  5. collapse runs of whitespace
"""

from __future__ import annotations

import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .pool import map_slices


CHAR_ORDER = 6
BLEU_MAX_ORDER = 4
# pairs a scoring worker process must have to pay for itself: on 2 cores, two
# workers beat one process on all three metrics from 128 pairs, not at 64
MIN_PAIRS_PER_WORKER = 64


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricConfig:
    word_order: int = 0  # 0 for ChrF, 2 for ChrF++
    beta: float = 2.0
    tokenizer: str = "13a"

    def __post_init__(self):
        if self.word_order < 0:
            raise MetricError("word_order must be >= 0")
        if self.beta <= 0:
            raise MetricError("beta must be positive")
        if self.tokenizer not in ("13a", "whitespace"):
            raise MetricError(f"unsupported tokenizer {self.tokenizer!r}")


CHRF = MetricConfig(word_order=0)
CHRF_PP = MetricConfig(word_order=2)
BLEU = MetricConfig()


@dataclass(frozen=True)
class ScorePair:
    hypothesis: str
    reference: str


_13A_PAD = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_DOT_BEFORE = re.compile(r"([^0-9])([\.,])")
_13A_DOT_AFTER = re.compile(r"([\.,])([^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9])(-)")


def tokenize_13a(text: str) -> list[str]:
    """Tokenize per the mteval-13a scheme used by WMT scoring."""
    norm = text.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    if "&" in norm:
        norm = (
            norm.replace("&quot;", '"')
            .replace("&amp;", "&")
            .replace("&lt;", "<")
            .replace("&gt;", ">")
        )
    norm = f" {norm} "
    norm = _13A_PAD.sub(r" \1 ", norm)
    norm = _13A_DOT_BEFORE.sub(r"\1 \2 ", norm)
    norm = _13A_DOT_AFTER.sub(r" \1 \2", norm)
    norm = _13A_DIGIT_DASH.sub(r"\1 \2 ", norm)
    return norm.split()


def _tokenize(text: str, config: MetricConfig) -> list[str]:
    if config.tokenizer == "13a":
        return tokenize_13a(text)
    return text.split()


def _word_ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _char_ngrams(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


# --- BLEU -------------------------------------------------------------------


def _bleu_pair_stats(pair: ScorePair, config: MetricConfig) -> list[int]:
    hyp = _tokenize(pair.hypothesis, config)
    ref = _tokenize(pair.reference, config)
    stats = [0] * (2 * BLEU_MAX_ORDER) + [len(hyp), len(ref)]
    for n in range(1, BLEU_MAX_ORDER + 1):
        hyp_ngrams = _word_ngrams(hyp, n)
        ref_ngrams = _word_ngrams(ref, n)
        stats[2 * (n - 1)] = sum((hyp_ngrams & ref_ngrams).values())
        stats[2 * (n - 1) + 1] = sum(hyp_ngrams.values())
    return stats


def bleu(pairs: Sequence[ScorePair], config: MetricConfig = BLEU, workers: int = 1) -> float:
    """Corpus BLEU: orders 1..4, exponential smoothing, brevity penalty."""
    if not pairs:
        raise MetricError("empty pair list")
    stats = _pooled_stats(pairs, config, _bleu_pair_stats, workers)
    sys_len, ref_len = stats[-2], stats[-1]
    log_precisions = []
    smooth = 1.0
    for n in range(1, BLEU_MAX_ORDER + 1):
        correct, total = stats[2 * (n - 1)], stats[2 * (n - 1) + 1]
        if total == 0:
            break
        if correct == 0:
            smooth *= 2.0
            precision = 100.0 / (smooth * total)
        else:
            precision = 100.0 * correct / total
        log_precisions.append(math.log(precision))
    if len(log_precisions) < BLEU_MAX_ORDER:
        # no hypothesis n-grams at some order anywhere in the corpus
        return 0.0
    brevity_penalty = 1.0
    if sys_len < ref_len:
        brevity_penalty = math.exp(1 - ref_len / sys_len) if sys_len > 0 else 0.0
    return brevity_penalty * math.exp(sum(log_precisions) / BLEU_MAX_ORDER)


# --- ChrF / ChrF++ ----------------------------------------------------------

_PUNCTS = set(string.punctuation)
_WS = re.compile(r"\s+")


def _separate_punctuation(text: str) -> list[str]:
    """Split one leading or trailing punctuation mark off each word."""
    tokens = []
    for w in text.split():
        if len(w) == 1:
            tokens.append(w)
        elif w[-1] in _PUNCTS:
            tokens.extend((w[:-1], w[-1]))
        elif w[0] in _PUNCTS:
            tokens.extend((w[0], w[1:]))
        else:
            tokens.append(w)
    return tokens


def _chrf_pair_stats(pair: ScorePair, config: MetricConfig) -> list[int]:
    # spaces are removed before character n-gram extraction
    hyp_chars = _WS.sub("", pair.hypothesis)
    ref_chars = _WS.sub("", pair.reference)
    stats = []
    for n in range(1, CHAR_ORDER + 1):
        hyp_ngrams = _char_ngrams(hyp_chars, n)
        ref_ngrams = _char_ngrams(ref_chars, n)
        stats += [
            sum(hyp_ngrams.values()),
            sum(ref_ngrams.values()),
            sum((hyp_ngrams & ref_ngrams).values()),
        ]
    if config.word_order > 0:
        hyp_words = _separate_punctuation(pair.hypothesis)
        ref_words = _separate_punctuation(pair.reference)
        for n in range(1, config.word_order + 1):
            hyp_ngrams = _word_ngrams(hyp_words, n)
            ref_ngrams = _word_ngrams(ref_words, n)
            stats += [
                sum(hyp_ngrams.values()),
                sum(ref_ngrams.values()),
                sum((hyp_ngrams & ref_ngrams).values()),
            ]
    return stats


def _f_score_from_stats(stats: Sequence[int], config: MetricConfig) -> float:
    avg_precision = 0.0
    avg_recall = 0.0
    effective = 0
    for i in range(len(stats) // 3):
        n_hyp, n_ref, n_match = stats[3 * i], stats[3 * i + 1], stats[3 * i + 2]
        if n_hyp > 0 and n_ref > 0:
            avg_precision += n_match / n_hyp
            avg_recall += n_match / n_ref
            effective += 1
    if effective == 0:
        return 0.0
    avg_precision /= effective
    avg_recall /= effective
    if avg_precision + avg_recall == 0.0:
        return 0.0
    beta_sq = config.beta ** 2
    f = (1 + beta_sq) * avg_precision * avg_recall / (beta_sq * avg_precision + avg_recall)
    return 100.0 * f


def chrf(pairs: Sequence[ScorePair], config: MetricConfig = CHRF_PP, workers: int = 1) -> float:
    """Corpus ChrF (word_order 0) or ChrF++ (word_order 2) on a 0-100 scale."""
    if not pairs:
        raise MetricError("empty pair list")
    stats = _pooled_stats(pairs, config, _chrf_pair_stats, workers)
    return _f_score_from_stats(stats, config)


# --- pooled statistics ------------------------------------------------------


def _column_sums(rows) -> list[int]:
    return [sum(column) for column in zip(*rows)]


def _pooled_stats(pairs, config, pair_stats, workers: int = 1) -> list[int]:
    """Sum the per-pair integer statistics, column by column.

    Contiguous slices of the pairs are summed in up to ``workers`` processes
    (see :mod:`multipar.pool`) and the parent adds those sums up, so the
    result does not depend on ``workers``.
    """
    slices = map_slices(
        partial(_slice_stats, pairs, config, pair_stats), len(pairs), workers,
        MIN_PAIRS_PER_WORKER, MetricError("a scoring worker process died before returning its sums"),
    )
    return _column_sums(slices)


def _slice_stats(pairs, config, pair_stats, start: int, stop: int) -> list[int]:
    return _column_sums(pair_stats(p, config) for p in pairs[start:stop])
