"""Corpus-level ChrF/ChrF++ and BLEU with a 13a-style tokenizer.

Scores live on a 0-100 scale.  Statistics are pooled over the whole pair
list before the F/precision computation (micro aggregation).  BLEU counts
13a tokens, and ChrF weighs recall ``BETA`` times as much as precision.
Scoring is pure Python; ``chrf`` and ``bleu`` sum the integer statistics of
contiguous slices of the pairs in up to ``workers`` processes of
:mod:`multipar.pool`, which gives the same sums, so the same score, as one
process.  This module starts no process itself.  Externally computed scores
(e.g. COMET) are never recomputed here; ``report.load_scores`` reads them
from TSV.

A pair's statistics are counted one n-gram order at a time by C-level
passes (``_overlap_stats``): a string's n-grams are grown from the order
below with ``map(operator.add, ...)``, a token list's are zipped; the
hypothesis n-grams fill one ``Counter``, the reference n-grams found in it
another, and the matches sum ``min`` over the shared n-grams.  Totals are
``max(0, len - n + 1)``, and an identical pair's follow by arithmetic alone.
ChrF drops whitespace with ``"".join(s.split())``: ``str.split`` splits on
exactly the code points ``re``'s ``\\s`` matches, all 1,114,112 checked.

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
from functools import partial, reduce
from operator import add
from typing import Sequence

from .pool import map_slices


CHAR_ORDER = 6
BLEU_MAX_ORDER = 4
BETA = 2
# pairs a scoring worker process must have to pay for itself.  On 2 cores, 11
# runs each on the eval bench's pairs, two workers beat one process on all
# three metrics in 11 runs at 192 and 256 pairs, in 11 at 128 pairs on chrF++
# and BLEU but in 1, 8 and 11 over three sets on chrF, and in at most 1 at 64
MIN_PAIRS_PER_WORKER = 64


class MetricError(ValueError):
    pass


@dataclass(frozen=True)
class MetricConfig:
    word_order: int = 0  # 0 for ChrF, 2 for ChrF++

    def __post_init__(self):
        if self.word_order < 0:
            raise MetricError("word_order must be >= 0")


CHRF = MetricConfig(word_order=0)
CHRF_PP = MetricConfig(word_order=2)


@dataclass(frozen=True)
class ScorePair:
    hypothesis: str
    reference: str


# 13a pads the characters of the ASCII ranges {-~, [-`, space-&, (-+, :-@ and
# the slash with a space on each side
_13A_PAD = str.maketrans({c: f" {c} " for c in "{|}~[\\]^_` !\"#$%&()*+:;<=>?@/"})
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
    norm = f" {norm} ".translate(_13A_PAD)
    if "." in norm or "," in norm:
        norm = _13A_DOT_BEFORE.sub(r"\1 \2 ", norm)
        norm = _13A_DOT_AFTER.sub(r" \1 \2", norm)
    if "-" in norm:
        norm = _13A_DIGIT_DASH.sub(r"\1 \2 ", norm)
    return norm.split()


def _overlap_stats(hyp: str | list[str], ref: str | list[str], order: int) -> list[int]:
    """``[hyp n-grams, ref n-grams, matches]`` for each n = 1..order, where the
    n-grams are a string's characters or a list's tokens and matches is the
    clipped count: for each n-gram, the smaller of its two counts, summed."""
    if hyp == ref:
        return [max(0, len(hyp) - n + 1) for n in range(1, order + 1) for _ in range(3)]
    stats = []
    hyp_grams, ref_grams = hyp, ref
    for n in range(1, order + 1):
        if n > 1:
            hyp_grams, ref_grams = _next_order(hyp_grams, hyp, n), _next_order(ref_grams, ref, n)
        hyp_counts = Counter(hyp_grams)
        shared = Counter(filter(hyp_counts.__contains__, ref_grams))
        matches = sum(map(min, map(hyp_counts.__getitem__, shared), shared.values()))
        stats += [max(0, len(hyp) - n + 1), max(0, len(ref) - n + 1), matches]
    return stats


def _next_order(grams, units: str | list[str], n: int) -> list:
    """The ``n``-grams of ``units``, given its ``n - 1``-grams ``grams``: a
    string's grow by one character each, a token list's are zipped tuples."""
    if isinstance(units, str):
        return list(map(add, grams, units[n - 1 :]))
    return list(zip(*(units[k:] for k in range(n))))


# --- BLEU -------------------------------------------------------------------


def _bleu_pair_stats(pair: ScorePair) -> list[int]:
    """``[hyp n-grams, ref n-grams, matches]`` of the 13a tokens for each
    order; the unigram counts are the two token counts."""
    return _overlap_stats(
        tokenize_13a(pair.hypothesis), tokenize_13a(pair.reference), BLEU_MAX_ORDER
    )


def bleu(pairs: Sequence[ScorePair], workers: int | None = 1) -> float:
    """Corpus BLEU: orders 1..4, exponential smoothing, brevity penalty."""
    if not pairs:
        raise MetricError("empty pair list")
    stats = _pooled_stats(pairs, _bleu_pair_stats, workers)
    sys_len, ref_len = stats[0], stats[1]
    log_precisions = []
    smooth = 1.0
    for n in range(1, BLEU_MAX_ORDER + 1):
        total, correct = stats[3 * (n - 1)], stats[3 * (n - 1) + 2]
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
    # a left fold: sum() compensates float rounding from Python 3.12 on
    return brevity_penalty * math.exp(reduce(add, log_precisions, 0.0) / BLEU_MAX_ORDER)


# --- ChrF / ChrF++ ----------------------------------------------------------

_PUNCTS = set(string.punctuation)


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
    # whitespace is removed before character n-gram extraction
    hyp, ref = pair.hypothesis, pair.reference
    stats = _overlap_stats("".join(hyp.split()), "".join(ref.split()), CHAR_ORDER)
    if config.word_order > 0:
        stats += _overlap_stats(
            _separate_punctuation(hyp), _separate_punctuation(ref), config.word_order
        )
    return stats


def _f_score_from_stats(stats: Sequence[int]) -> float:
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
    beta_sq = BETA ** 2
    f = (1 + beta_sq) * avg_precision * avg_recall / (beta_sq * avg_precision + avg_recall)
    return 100.0 * f


def chrf(
    pairs: Sequence[ScorePair], config: MetricConfig = CHRF_PP, workers: int | None = 1
) -> float:
    """Corpus ChrF (word_order 0) or ChrF++ (word_order 2) on a 0-100 scale."""
    if not pairs:
        raise MetricError("empty pair list")
    stats = _pooled_stats(pairs, partial(_chrf_pair_stats, config=config), workers)
    return _f_score_from_stats(stats)


# --- pooled statistics ------------------------------------------------------


def _column_sums(rows) -> list[int]:
    return [sum(column) for column in zip(*rows)]


def _pooled_stats(pairs, pair_stats, workers: int | None = 1) -> list[int]:
    """Sum the per-pair integer statistics, column by column.

    Contiguous slices of the pairs are summed in up to ``workers`` processes
    (see :mod:`multipar.pool`) and the parent adds those sums up, so the
    result does not depend on ``workers``.
    """
    slices = map_slices(
        partial(_slice_stats, pairs, pair_stats), len(pairs), workers,
        MIN_PAIRS_PER_WORKER, MetricError("a scoring worker process died before returning its sums"),
    )
    return _column_sums(slices)


def _slice_stats(pairs, pair_stats, start: int, stop: int) -> list[int]:
    return _column_sums(map(pair_stats, pairs[start:stop]))
