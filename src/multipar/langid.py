"""Character n-gram Naive Bayes language identification.

A lightweight, trainable replacement for an external LID model: per-language
add-alpha-smoothed character n-gram profiles (orders 1..n_max), classified by
summed log-probabilities plus a prior.  Used to measure off-target rates and
to carve out per-direction on-target subsets.  A saved model is checked field
by field when loaded, so a malformed ``lid_model.json`` is a ``LidError``
naming the file.

Training counts only the top order's n-grams, in one pass over each
language's sentences joined by LFs, and drops the grams that span an LF.
Each lower order k is derived from the order above: a k-gram occurrence is
either the prefix of a (k+1)-gram occurrence or its sentence's last k-gram.
The counts are integers, so the derived tables are the counted ones.

A saved model is written one language's count tables at a time, in sorted
code order, so the file's text is never held whole; its bytes are those of
one key-sorted ``json.dumps`` of ``LidModel.to_json_dict``.

Scoring looks each n-gram of a text up once, in a per-order memo of gram ->
the vector of its log-probabilities in every language, in ``languages``
order.  A vector is built the first time its gram is scored, and only for
grams some language has counted, from the model's own count tables and one
``{count: log-probability}`` map per language: a gram's log-probability is
its count's, so no table of grams is copied.  Every other gram shares one
vector of unseen log-probabilities, so the memo never outgrows the model's
vocabulary.  Each language's score adds its column of the vectors to its log
prior one term at a time, in n-gram order, so every score is the float the
direct formula gives.

Each language is counted, and each text classified, on its own, so
``lid_train``, ``off_target_rate`` and ``on_target_subset`` run over
contiguous slices in up to ``workers`` processes of :mod:`multipar.pool`:
the slices' counts and labels, concatenated, are the serial ones.  The
tables are built before the workers fork, which inherit them; each worker
fills its own memo.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from operator import add, neg
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .pool import map_slices
from .textio import read_json

LID_SCHEMA_VERSION = 1
# the label of empty text: None, which no language code can equal
UNKNOWN = None
# what a worker process must get to pay for itself, timed on 2 cores over the
# lid bench's inputs (sets of 11 runs per size, alternating 1 and 2 workers):
# two workers classify faster than one process from 256 lines in every set,
# and lose at 128-192 in two of three; they count faster from 8 languages of
# about 470 sentences each in every set, and at 4-6 in some sets and not in
# others, where counting 4 languages takes 57 ms against 4 ms to pickle two
# languages' counts back, so both minimums stay
MIN_LINES_PER_WORKER = 128
MIN_LANGUAGES_PER_WORKER = 2
# the highest n-gram order: a model grows roughly as max_order**2 times the
# training characters, as every order up to a sentence's length gets about one
# gram per character; on the lid bench corpus (2.2 MB) order 8 wrote a
# 56.5 MB model at 313 MB peak RSS, and order 100 passed 5.4 GB
MAX_ORDER = 10
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
        if self.max_order > MAX_ORDER:
            raise LidError(f"max_order must be at most {MAX_ORDER}, got {self.max_order}")
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
    twice = [code for i, code in enumerate(languages) if code in languages[:i]]
    if twice:
        raise LidError(f"language code {twice[0]!r} is listed twice in languages")
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
    """The character n-grams of ``text``, left to right: each order's grow
    by one character from the order below."""
    grams = iter(text)
    for k in range(1, n):
        grams = map(add, grams, text[k:])
    return grams


def _count_orders(sentences: Sequence[str], max_order: int) -> list[dict[str, int]]:
    """The n-gram counts of ``sentences``, one table per order from 1 to
    ``max_order``: the top order's counted, each lower order's derived from
    the order above by prefix, plus each sentence's last k-gram."""
    text = "\n".join(sentences)
    if text.count("\n") != len(sentences) - 1:
        raise LidError("a training sentence holds a line feed")
    top = Counter(_ngrams(text, max_order))
    tables = [{gram: c for gram, c in top.items() if "\n" not in gram}]
    for k in range(max_order - 1, 0, -1):
        lower = Counter(s[-k:] for s in sentences if len(s) >= k)
        for gram, c in tables[0].items():
            lower[gram[:k]] += c
        tables.insert(0, dict(lower))
    return tables


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
    def _vectors(self) -> tuple[tuple[float, ...], list[tuple[dict, list, list[dict], tuple]]]:
        """The log priors in ``languages`` order and, per order, a memo of
        gram -> the vector of its log-probabilities in every language, the
        model's own count tables that fill it, one per language, each
        language's ``{count: log-probability}`` map, holding the unseen
        gram's under the key None, and the vector of an unseen gram.  Built
        on first use; the memo fills as grams are scored, and holds only
        grams some language has counted."""
        alpha = self.config.alpha
        orders = []
        for order, vocab in enumerate(self.vocab_sizes):
            counts = [self.counts[lang][order] for lang in self.languages]
            logs = []
            for table in counts:
                denom = sum(table.values()) + alpha * vocab
                # one float per distinct count, shared by the grams that have it
                by_count = {c: math.log((c + alpha) / denom) for c in set(table.values())}
                by_count[None] = math.log(alpha / denom)
                logs.append(by_count)
            orders.append(({}, counts, logs, tuple(map(dict.__getitem__, logs, repeat(None)))))
        return tuple(math.log(self.priors[lang]) for lang in self.languages), orders

    def _scores(self, text: str) -> list[float]:
        """The log-score of ``text`` in each language, in ``languages`` order.

        Each n-gram is looked up once, for its vector; each language's score
        then adds its column of the vectors to its log prior one term at a
        time, in n-gram order, as ``score += term`` would: ``sum()`` would
        round differently on Python 3.12+."""
        log_priors, orders = self._vectors
        terms = [log_priors]
        grams = text
        for n, (memo, counts, logs, unseen) in enumerate(orders):
            if n:
                grams = list(map(add, grams, text[n:]))
            for gram in set(grams).difference(memo):
                # a language that has not counted the gram gives None, the
                # unseen key; a gram no language has counted stays out of the memo
                vector = tuple(map(dict.__getitem__, logs, map(dict.get, counts, repeat(gram))))
                if vector != unseen:
                    memo[gram] = vector
            terms += map(memo.get, grams, repeat(unseen))
        return [reduce(add, column) for column in zip(*terms)]

    def log_score(self, text: str, language: str) -> float:
        if language not in self.counts:
            raise LidError(f"language {language!r} not in model")
        return self._scores(text)[self.languages.index(language)]

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
        """Write ``json.dumps(self.to_json_dict(), sort_keys=True,
        allow_nan=False)`` and a newline, one language's count tables at a
        time, in sorted code order: the file's text is never held whole."""
        data = self.to_json_dict()
        counts, data["counts"] = data["counts"], {}
        # the rest, encoded once around an empty "counts": that key with an
        # empty dict as its value occurs nowhere else in the text
        head, _, tail = json.dumps(data, sort_keys=True, allow_nan=False).partition('"counts": {}')
        with open(path, "w", encoding="utf-8") as f:
            f.write(head + '"counts": {')
            for i, code in enumerate(sorted(counts)):
                f.write(f"{', ' if i else ''}{json.dumps(code)}: ")
                f.write(json.dumps(counts[code], sort_keys=True, allow_nan=False))
            f.write("}" + tail + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "LidModel":
        data = read_json(path, LidError)
        try:
            return cls.from_json_dict(data)
        except LidError as exc:
            raise LidError(f"{path}: {exc}") from None


def lid_train(
    samples: Mapping[str, Sequence[str]], config: LidConfig = LidConfig(),
    workers: int | None = 1,
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
        return [_count_orders(samples[lang], config.max_order) for lang in languages[start:stop]]

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


def lid_classify(text: str, model: LidModel) -> str | None:
    """Most likely language.

    Empty or whitespace-only text classifies as ``UNKNOWN`` (None), a label
    no language code equals.  Ties break towards the lexicographically
    smallest code.
    """
    if not text.strip():
        return UNKNOWN
    # the least negated score: a tie goes to the smallest code
    return min(zip(map(neg, model._scores(text)), model.languages))[1]


def _labels(texts: Sequence[str], model: LidModel, workers: int | None) -> list[str | None]:
    """``lid_classify``'s label for each text, classified in contiguous
    slices in up to ``workers`` processes."""
    model._vectors  # built here once, not once in every worker

    def classify(start: int, stop: int) -> list[str | None]:
        return [lid_classify(text, model) for text in texts[start:stop]]

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
    hyps: Sequence[tuple[str, str]], model: LidModel, workers: int | None = 1
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
        if label is UNKNOWN:
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
    workers: int | None = 1,
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
