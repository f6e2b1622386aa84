"""The seam the benchmark's tracer relies on: ``perfbench/tracing.py`` wraps
program functions by ``(module, attribute)`` name and reads a few fields of
their arguments and results.  A rename in ``src/``, or a refactor that drops
a field a counter reads, would silently zero the per-layer metric of the
function, or break a ``--trace 1`` run; these tests read the tracer's table,
edit nothing, and fail on such a change instead.
"""

import importlib
import importlib.util
from pathlib import Path

from multipar.corpus import save_corpus
from multipar.datagen import Direction, build_pairwise, enumerate_directions
from multipar.langid import LidConfig, lid_train
from multipar.metrics import CHRF, CHRF_PP, ScorePair
from multipar.probes import ProbeConfig
from multipar.registry import ec30
from multipar.rng import Stream

from helpers import full_corpus

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# wrapped names the program no longer has, each with its reason
ALLOWED_MISSING = {
    # the score-matrix reader moved to report.load_scores; re-pointing
    # the wrapper is left to the next change to the benchmark (ROADMAP item 5)
    "metrics.ingest_external_scores",
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves_in_the_program():
    missing = []
    for module_name, attr, *_ in _tracing().WRAPS:
        # the tracer looks a name up in the namespace that defines it
        owner = importlib.import_module(f"multipar.{module_name}")
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = vars(owner).get(cls_name)
        if owner is None or fn_name not in vars(owner):
            missing.append(f"{module_name}.{attr}")
    assert set(missing) <= ALLOWED_MISSING, missing


def test_metric_wrappers_read_the_fields_they_name():
    tracing = _tracing()
    pairs = [ScorePair("ab c", "abc"), ScorePair("", "d")]
    assert tracing._metric_name((pairs, CHRF), {}) == "metrics.chrf"
    assert tracing._metric_name((pairs,), {"config": CHRF_PP}) == "metrics.chrfpp"
    assert tracing._count_scores((pairs,), {}, None) == {"metrics.pairs": 2, "metrics.chars": 8}


def _calls(tmp_path):
    """For each wrapped name with a counter, the arguments the program calls
    it with, on tiny inputs: ``(args, kwargs)``."""
    bitext = tmp_path / "de.tsv"
    bitext.write_text("hello\thallo\nbye\ttschüss\n", encoding="utf-8")
    corpus = full_corpus(["de", "en", "nl"], 3)
    save_corpus(corpus, tmp_path / "corpus")
    dirs = enumerate_directions(corpus.languages)
    dataset = build_pairwise(corpus, dirs)
    pairs = [ScorePair("the cat sat", "the cat sat down"), ScorePair("", "x")]
    samples = {"aa": ["abc abd", "bca"], "bb": ["xyz", "zyx yy"]}
    model = lid_train(samples, LidConfig())
    return {
        "corpus.load_bitext_tsv": ((bitext,), {}),
        "corpus.mine_pivot_aligned": (({"de": [("hello", "hallo")], "nl": [("hello", "hallo")]},),
                                      {"english_code": "en"}),
        "corpus.load_corpus_dir": ((tmp_path / "corpus",), {}),
        "datagen.build_pairwise": ((corpus, dirs), {}),
        "datagen.emit_bitext": ((dataset, "tsv", tmp_path / "dataset", 1), {}),
        "rng.Stream.permutation": ((Stream(1), [3, 1, 2]), {}),
        "probes.gen_number_pairs": ((dirs, 2, ProbeConfig()), {}),
        "sampling.sample_schedule": (({"a": 0.5, "b": 0.5}, 4, 7), {}),
        "metrics.chrf": ((pairs, CHRF_PP, 1), {}),
        "metrics.bleu": ((pairs, 1), {}),
        "metrics.tokenize_13a": (("Hello, world!",), {}),
        "langid.lid_train": ((samples, LidConfig(), 1), {}),
        "langid.LidModel.save": ((model, tmp_path / "lid_model.json"), {}),
        "langid.off_target_rate": (([("abc", "aa"), ("xyz", "aa")], model, 1), {}),
        "langid.on_target_subset": (({"bb-aa": {0: "abc", 1: "xyz"}}, model, 1), {}),
        "report.emit_report": (({(Direction("de", "nl"), "chrf"): (1.0, 2)}, ["resource_grid"],
                                ec30(), "json", tmp_path / "report"), {}),
    }


def test_every_counter_reads_the_real_arguments_and_result(tmp_path):
    calls = _calls(tmp_path)
    counted = {}
    for module_name, attr, _name, _hot, counter in _tracing().WRAPS:
        if counter is None:
            continue
        key = f"{module_name}.{attr}"
        owner = importlib.import_module(f"multipar.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        args, kwargs = calls[key]
        counted[key] = counter(args, kwargs, owner(*args, **kwargs))
    assert sorted(counted) == sorted(calls)
    for key, counts in counted.items():
        assert counts and all(isinstance(n, int) and n >= 0 for n in counts.values()), key
    assert counted["report.emit_report"] == {"report.cells": 1}
    assert counted["probes.gen_number_pairs"] == {"probes.lines": 12, "probes.tokens": 120}
