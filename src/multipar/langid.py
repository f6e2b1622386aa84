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
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .textio import read_json

LID_SCHEMA_VERSION = 1
UNKNOWN = "unknown"
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
    samples: Mapping[str, Sequence[str]], config: LidConfig = LidConfig()
) -> LidModel:
    """Count character n-grams per language into smoothed profiles."""
    if len(samples) < 2:
        raise LidError("training needs at least 2 languages")
    counts: dict[str, list[dict[str, int]]] = {}
    for lang, sentences in samples.items():
        if not sentences:
            raise LidError(f"no training sentences for {lang!r}")
        counts[lang] = [
            dict(Counter(chain.from_iterable(_ngrams(s, order) for s in sentences)))
            for order in range(1, config.max_order + 1)
        ]
    vocab_sizes = []
    for order in range(config.max_order):
        vocab = set()
        for tables in counts.values():
            vocab.update(tables[order])
        vocab_sizes.append(len(vocab) + 1)  # +1 reserves mass for unseen n-grams
    for tables in counts.values():
        _check_unseen_probability(tables, vocab_sizes, config.alpha)
    languages = tuple(sorted(samples))
    priors = {lang: 1.0 / len(languages) for lang in languages}
    return LidModel(
        languages=languages,
        config=config,
        counts={lang: counts[lang] for lang in languages},
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


@dataclass(frozen=True)
class OffTargetReport:
    per_direction: Mapping[str, dict]
    overall_total: int
    overall_off_target: int

    @property
    def overall_rate(self) -> float:
        return self.overall_off_target / self.overall_total if self.overall_total else 0.0


def off_target_rate(
    hyps: Sequence[tuple[str, str]], model: LidModel
) -> OffTargetReport:
    """Fraction of hypotheses not classified as their expected language.

    ``hyps`` is a list of (text, expected code); results are grouped by the
    expected code.  Empty hypotheses count per the model's config.
    """
    expected_codes = {code for _, code in hyps}
    missing = expected_codes - set(model.languages)
    if missing:
        raise LidError(f"expected codes absent from model: {sorted(missing)}")
    per: dict[str, dict] = {}
    for text, expected in hyps:
        entry = per.setdefault(expected, {"total": 0, "off_target": 0})
        entry["total"] += 1
        label, _ = lid_classify(text, model)
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
    baseline_hyps: Mapping[str, Sequence[tuple[int, str]]],
    model: LidModel,
) -> dict[str, set[int]]:
    """Per direction, the row ids whose baseline hypothesis is already in the
    target language.  Keys are ``src-tgt`` direction strings."""
    subsets: dict[str, set[int]] = {}
    for direction, rows in baseline_hyps.items():
        _, _, target = direction.rpartition("-")
        if target not in model.languages:
            raise LidError(f"target {target!r} of {direction!r} absent from model")
        ids = [rid for rid, _ in rows]
        if len(set(ids)) != len(ids):
            raise LidError(f"duplicate row ids in direction {direction!r}")
        keep = set()
        for rid, text in rows:
            label, _ = lid_classify(text, model)
            if label == target:
                keep.add(rid)
        subsets[direction] = keep
    return subsets
