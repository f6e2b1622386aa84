"""Character n-gram Naive Bayes language identification.

A lightweight, trainable replacement for an external LID model: per-language
add-alpha-smoothed character n-gram profiles (orders 1..n_max), classified by
summed log-probabilities plus a prior.  Used to measure off-target rates and
to carve out per-direction on-target subsets.  A saved model is checked field
by field when loaded, so a malformed ``lid_model.json`` is a ``LidError``
naming the file.

Scores come from log-probability tables built from the counts on a model's
first score: per language the log prior and, per order, a ``gram ->
log-probability`` dict with one constant for unseen grams.  A text's n-grams
are extracted once per order and looked up in every language's tables; the
terms are added one at a time, in n-gram order, so every score is the float
the direct formula gives.

Each language is counted, and each text classified, on its own, so
``lid_train``, ``off_target_rate`` and ``on_target_subset`` run over
contiguous slices in up to ``workers`` processes of :mod:`multipar.pool`:
the slices' counts and labels, concatenated, are the serial ones.  The
tables are built before the workers fork, which inherit them.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .pool import map_slices
from .textio import read_json

LID_SCHEMA_VERSION = 1
UNKNOWN = "unknown"
# what a worker process must get to pay for itself, timed on 2 cores over the
# lid bench's inputs (11 runs per size): two workers classify faster than one
# process from 256 lines, not always at 128-192; and count faster from 4
# languages of about 470 sentences each, not always at 2-3
MIN_LINES_PER_WORKER = 128
MIN_LANGUAGES_PER_WORKER = 2
# the JSON types each model field may take
_MODEL_FIELDS = {
    "languages": (list,),
    "max_order": (int,),
    "alpha": (float, int),
    "empty_is_off_target": (bool,),
    "priors": (dict,),
    "vocab_sizes": (list,),
    "counts": (dict,),
}


class LidError(ValueError):
    pass


@dataclass(frozen=True)
class LidConfig:
    max_order: int = 3
    alpha: float = 0.1
    empty_is_off_target: bool = True

    def __post_init__(self):
        if self.max_order < 1:
            raise LidError("max_order must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise LidError(f"smoothing alpha must be positive and finite, got {self.alpha}")


def _check_model_json(data) -> LidConfig:
    """Raise LidError unless ``data`` has the fields and shapes that
    ``LidModel.to_json_dict`` writes and values that score to finite floats;
    return the model's config."""
    if data.get("schema_version") != LID_SCHEMA_VERSION:
        raise LidError(f"unsupported model schema {data.get('schema_version')!r}")
    for key, kinds in _MODEL_FIELDS.items():
        if type(data.get(key)) not in kinds:
            raise LidError(f"{key!r} is missing or not a JSON {kinds[0].__name__}")
    languages, n = data["languages"], data["max_order"]
    if not all(type(code) is str for code in languages) or not (
        set(languages) == set(data["priors"]) == set(data["counts"])
    ):
        raise LidError("languages, priors and counts name different languages")
    # `0 < p < inf` is also false for NaN, and compares a huge int exactly
    if any(type(p) not in (float, int) or not 0 < p < math.inf for p in data["priors"].values()):
        raise LidError("priors must be positive finite numbers")
    vocab_sizes = data["vocab_sizes"]
    if len(vocab_sizes) != n or any(type(v) is not int or v < 1 for v in vocab_sizes):
        raise LidError(f"vocab_sizes must be {n} integers >= 1")
    config = LidConfig(max_order=n, alpha=data["alpha"],
                       empty_is_off_target=data["empty_is_off_target"])
    for tables in data["counts"].values():
        if type(tables) is not list or len(tables) != n or any(
            type(table) is not dict or any(type(c) is not int or c < 0 for c in table.values())
            for table in tables
        ):
            raise LidError(f"counts must hold {n} tables of integer counts >= 0 per language")
        _check_unseen_probability(tables, vocab_sizes, config.alpha)
    return config


def _check_unseen_probability(tables, vocab_sizes, alpha: float) -> None:
    """Raise LidError unless an unseen gram, the least likely, gets a
    probability above 0 in each of one language's tables."""
    for table, vocab in zip(tables, vocab_sizes):
        try:
            unseen = alpha / (sum(table.values()) + alpha * vocab)
        except OverflowError:
            unseen = 0.0
        if not unseen > 0:
            raise LidError(
                f"an unseen n-gram gets probability 0: counts too large for alpha {alpha!r}"
            )


def _ngrams(text: str, n: int) -> Iterable[str]:
    """The character n-grams of ``text``, left to right."""
    if n == 1:
        return iter(text)
    return map("".join, zip(*(text[k:] for k in range(n))))


def _text_grams(text: str, max_order: int) -> list[list[str]]:
    return [list(_ngrams(text, order)) for order in range(1, max_order + 1)]


@dataclass(frozen=True)
class LidModel:
    languages: tuple[str, ...]
    config: LidConfig
    # counts[lang][order-1] is a character n-gram frequency table
    counts: Mapping[str, Sequence[Mapping[str, int]]]
    priors: Mapping[str, float]
    # vocabulary sizes per order, shared across languages (plus one unseen slot)
    vocab_sizes: tuple[int, ...] = field(default=())

    @cached_property
    def _log_tables(self) -> dict[str, tuple[float, list[tuple[dict[str, float], float]]]]:
        """Per language, the log prior and, per order, the log-probability of
        each counted gram with that of an unseen one; built on first use."""
        alpha = self.config.alpha
        tables = {}
        for lang, orders in self.counts.items():
            per_order = []
            for table, vocab in zip(orders, self.vocab_sizes):
                denom = sum(table.values()) + alpha * vocab
                # one float per distinct count, shared by the grams that have it
                by_count = {c: math.log((c + alpha) / denom) for c in set(table.values())}
                logs = dict(zip(table, map(by_count.__getitem__, table.values())))
                per_order.append((logs, math.log(alpha / denom)))
            tables[lang] = (math.log(self.priors[lang]), per_order)
        return tables

    def _score_grams(self, grams: Sequence[Sequence[str]], language: str) -> float:
        log_prior, per_order = self._log_tables[language]
        # reduce(add) is `score += term` in C, term by term in n-gram order;
        # sum() would round differently on Python 3.12+
        return reduce(add, chain.from_iterable(
            map(logs.get, order_grams, repeat(unseen))
            for (logs, unseen), order_grams in zip(per_order, grams)
        ), log_prior)

    def log_score(self, text: str, language: str) -> float:
        if language not in self.counts:
            raise LidError(f"language {language!r} not in model")
        return self._score_grams(_text_grams(text, self.config.max_order), language)

    def to_json_dict(self) -> dict:
        """The model as JSON data.  The count tables are the model's own, not
        copies: the model is saved without doubling its largest part."""
        return {
            "schema_version": LID_SCHEMA_VERSION,
            "languages": list(self.languages),
            "max_order": self.config.max_order,
            "alpha": self.config.alpha,
            "empty_is_off_target": self.config.empty_is_off_target,
            "priors": dict(self.priors),
            "vocab_sizes": list(self.vocab_sizes),
            "counts": {lang: list(tables) for lang, tables in self.counts.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LidModel":
        config = _check_model_json(data)
        return cls(
            languages=tuple(data["languages"]),
            config=config,
            counts=data["counts"],
            priors=data["priors"],
            vocab_sizes=tuple(data["vocab_sizes"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, allow_nan=False) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def load(cls, path: str | Path) -> "LidModel":
        data = read_json(path, LidError)
        try:
            return cls.from_json_dict(data)
        except LidError as exc:
            raise LidError(f"{path}: {exc}") from None


def lid_train(
    samples: Mapping[str, Sequence[str]], config: LidConfig = LidConfig(), workers: int = 1
) -> LidModel:
    """Count character n-grams per language into smoothed profiles.

    The languages are counted in contiguous slices of their sorted list, in
    up to ``workers`` processes; the counts do not depend on ``workers``.
    """
    if len(samples) < 2:
        raise LidError("training needs at least 2 languages")
    for lang, sentences in samples.items():
        if not sentences:
            raise LidError(f"no training sentences for {lang!r}")
    languages = tuple(sorted(samples))

    def count(start: int, stop: int) -> list[list[dict[str, int]]]:
        return [
            [
                dict(Counter(chain.from_iterable(_ngrams(s, order) for s in samples[lang])))
                for order in range(1, config.max_order + 1)
            ]
            for lang in languages[start:stop]
        ]

    slices = map_slices(
        count, len(languages), workers, MIN_LANGUAGES_PER_WORKER,
        LidError("a training worker process died before returning its counts"),
    )
    counts = dict(zip(languages, chain.from_iterable(slices)))
    vocab_sizes = []
    for order in range(config.max_order):
        vocab = set()
        for tables in counts.values():
            vocab.update(tables[order])
        vocab_sizes.append(len(vocab) + 1)  # +1 reserves mass for unseen n-grams
    for tables in counts.values():
        _check_unseen_probability(tables, vocab_sizes, config.alpha)
    priors = {lang: 1.0 / len(languages) for lang in languages}
    return LidModel(
        languages=languages,
        config=config,
        counts=counts,
        priors=priors,
        vocab_sizes=tuple(vocab_sizes),
    )


def lid_classify(text: str, model: LidModel) -> tuple[str, float]:
    """Most likely language and its log-score margin over the runner-up.

    Empty or whitespace-only text classifies as the designated unknown
    outcome.  Ties break towards the lexicographically smallest code.
    """
    if not text.strip():
        return UNKNOWN, 0.0
    grams = _text_grams(text, model.config.max_order)
    scored = sorted(
        ((model._score_grams(grams, lang), lang) for lang in model.languages),
        key=lambda pair: (-pair[0], pair[1]),
    )
    best_score, best_lang = scored[0]
    margin = best_score - scored[1][0] if len(scored) > 1 else math.inf
    return best_lang, margin


def _labels(texts: Sequence[str], model: LidModel, workers: int) -> list[str]:
    """``lid_classify``'s label for each text, classified in contiguous
    slices in up to ``workers`` processes."""
    model._log_tables  # built here once, not once in every worker

    def classify(start: int, stop: int) -> list[str]:
        return [lid_classify(text, model)[0] for text in texts[start:stop]]

    slices = map_slices(
        classify, len(texts), workers, MIN_LINES_PER_WORKER,
        LidError("a classifying worker process died before returning its labels"),
    )
    return list(chain.from_iterable(slices))


@dataclass(frozen=True)
class OffTargetReport:
    per_direction: Mapping[str, dict]
    overall_total: int
    overall_off_target: int

    @property
    def overall_rate(self) -> float:
        return self.overall_off_target / self.overall_total if self.overall_total else 0.0


def off_target_rate(
    hyps: Sequence[tuple[str, str]], model: LidModel, workers: int = 1
) -> OffTargetReport:
    """Fraction of hypotheses not classified as their expected language.

    ``hyps`` is a list of (text, expected code), each code one of the
    model's languages; results are grouped by the expected code.  Empty
    hypotheses count per the model's config.  The texts are classified in up
    to ``workers`` processes.
    """
    labels = _labels([text for text, _ in hyps], model, workers)
    per: dict[str, dict] = {}
    for (_, expected), label in zip(hyps, labels):
        entry = per.setdefault(expected, {"total": 0, "off_target": 0})
        entry["total"] += 1
        if label == UNKNOWN:
            off = model.config.empty_is_off_target
        else:
            off = label != expected
        if off:
            entry["off_target"] += 1
    for entry in per.values():
        entry["rate"] = entry["off_target"] / entry["total"]
    return OffTargetReport(
        per_direction=per,
        overall_total=sum(e["total"] for e in per.values()),
        overall_off_target=sum(e["off_target"] for e in per.values()),
    )


def on_target_subset(
    baseline_hyps: Mapping[str, Mapping[int, str]],
    model: LidModel,
    workers: int = 1,
) -> dict[str, set[int]]:
    """Per direction, the row ids whose baseline hypothesis is already in the
    target language.  Keys are ``src-tgt`` direction strings whose target is
    one of the model's languages, each mapping row id to hypothesis.  The
    texts of all directions are classified together in up to ``workers``
    processes."""
    texts = [text for rows in baseline_hyps.values() for text in rows.values()]
    labels = iter(_labels(texts, model, workers))
    return {
        direction: {
            rid for rid, label in zip(rows, islice(labels, len(rows)))
            if label == direction.rpartition("-")[2]
        }
        for direction, rows in baseline_hyps.items()
    }
