"""Per-layer tracing of multipar from outside the program.

``Tracer.install()`` replaces the public functions each layer exposes with
timing wrappers, wherever a multipar module holds a reference to them (the
defining module, ``multipar.cli`` and any other importer), and ``uninstall()``
puts the originals back.  Nothing under ``src/`` changes.

A wrapper records a span (name, start, end, parent, stage) and attributes its
duration to the enclosing span, so a span's self time is its duration minus
the time its child spans cover.  Calls made many times per item
(``tokenize_13a``, ``lid_classify``, ``rng.stream``) are aggregated into a
count and summed times instead of one span per call.  Wrappers also add up
work counters at the same boundaries.  Calls outside a stage pass straight
through, so only the stages the benchmark times are traced.

Times are integer nanoseconds from ``time.perf_counter_ns``.  Every span's
duration is added once to its parent's child time, so the self times of a
stage add up to its root span exactly, by construction; ``run.py`` checks
the root span against the stage's time taken outside the tracer.  Work a
wrapped function defers by returning a generator is counted in the span
that consumes it; such functions are listed in ``lazy``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _metric_name(args, kwargs) -> str:
    config = kwargs.get("config", args[1] if len(args) > 1 else None)
    return "metrics.chrfpp" if config is not None and config.word_order else "metrics.chrf"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_mine(args, kwargs, result):
    corpus, stats = result
    return {
        "corpus.rows": corpus.n_rows,
        "corpus.mined_rows": stats.yield_rows,
        "corpus.first_bitext_pairs": next(iter(stats.input_pairs.values())),
        "corpus.pivots_dropped": sum(stats.duplicate_pivots_dropped.values()),
    }


def _count_emit(args, kwargs, result):
    out = Path(_arg(args, kwargs, 2, "path"))
    return {
        "datagen.records": len(_arg(args, kwargs, 0, "dataset").records),
        "datagen.bytes_emitted": sum(f.stat().st_size for f in out.iterdir() if f.is_file()),
    }


def _count_scores(args, kwargs, result):
    pairs = _arg(args, kwargs, 0, "pairs")
    chars = sum(len(p.hypothesis) + len(p.reference) for p in pairs)
    return {"metrics.pairs": len(pairs), "metrics.chars": chars}


# (module, attribute, span name, hot, counter).  An attribute "Class.method"
# wraps a method of the class.  The span name is the layer and the function;
# chrf gets "metrics.chrf" or "metrics.chrfpp" by its config's word order.  A
# counter maps (args, kwargs, result) to the work counts the call adds.
WRAPS = (
    ("corpus", "load_bitext_tsv", "corpus.load_bitext_tsv", False,
     lambda a, k, r: {"corpus.pairs_in": len(r)}),
    ("corpus", "mine_pivot_aligned", "corpus.mine_pivot_aligned", False, _count_mine),
    ("corpus", "save_corpus", "corpus.save_corpus", False, None),
    ("corpus", "load_corpus_dir", "corpus.load_corpus_dir", False,
     lambda a, k, r: {"corpus.rows": r.n_rows}),
    ("datagen", "sample_rows", "datagen.sample_rows", False, None),
    ("datagen", "sample_directions", "datagen.sample_directions", False, None),
    ("datagen", "build_pairwise", "datagen.build_pairwise", False,
     lambda a, k, r: {"datagen.built": len(r.records),
                      "datagen.skipped": sum(r.manifest.get("skipped", {}).values())}),
    ("datagen", "apply_tags", "datagen.apply_tags", False, None),
    ("datagen", "emit_bitext", "datagen.emit_bitext", False, _count_emit),
    ("datagen", "read_bitext_tsv", "datagen.read_bitext_tsv", False, None),
    ("rng", "stream", "rng.stream", True, None),
    ("rng", "Stream.permutation", "rng.permutation", False,
     lambda a, k, r: {"rng.permutation.items": len(r)}),
    ("probes", "gen_number_pairs", "probes.gen_number_pairs", False,
     lambda a, k, r: {"probes.lines": len(r.records),
                      "probes.tokens": len(r.records) * _arg(a, k, 2, "config").tokens_per_line}),
    ("sampling", "temperature_weights", "sampling.temperature_weights", False, None),
    ("sampling", "sample_schedule", "sampling.sample_schedule", False,
     lambda a, k, r: {"sampling.draws": len(r)}),
    ("metrics", "chrf", _metric_name, False, _count_scores),
    ("metrics", "bleu", "metrics.bleu", False, _count_scores),
    ("metrics", "tokenize_13a", "metrics.tokenize_13a", True,
     lambda a, k, r: {"metrics.tokens": len(r)}),
    ("metrics", "ingest_external_scores", "metrics.ingest_external_scores", False, None),
    ("langid", "lid_train", "langid.lid_train", False,
     lambda a, k, r: {"langid.train_chars": sum(
         len(s) for v in _arg(a, k, 0, "samples").values() for s in v)}),
    ("langid", "LidModel.save", "langid.save", False,
     lambda a, k, r: {"langid.model_bytes": Path(_arg(a, k, 1, "path")).stat().st_size}),
    ("langid", "LidModel.load", "langid.load", False, None),
    ("langid", "lid_classify", "langid.lid_classify", True, None),
    ("langid", "off_target_rate", "langid.off_target_rate", False,
     lambda a, k, r: {"langid.classified": r.overall_total,
                      "langid.off_target": r.overall_off_target}),
    ("langid", "on_target_subset", "langid.on_target_subset", False,
     lambda a, k, r: {"langid.on_target_in": sum(map(len, _arg(a, k, 0, "baseline_hyps").values())),
                      "langid.on_target_kept": sum(map(len, r.values()))}),
    ("report", "delta", "report.delta", False, None),
    ("report", "emit_report", "report.emit_report", False,
     lambda a, k, r: {"report.cells": len(_arg(a, k, 0, "matrix"))}),
    ("registry", "ec30", "registry.ec30", False, None),
)


class Tracer:
    """Spans, hot-call aggregates and counters of the stages run while active."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stage: str | None = None
        # (id, name, start_ns, end_ns, parent id or None, stage, self_ns)
        self.spans: list[tuple] = []
        # (stage, name) -> [calls, total_ns, self_ns]
        self.hot: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.lazy: set[str] = set()
        self._stack: list[list] = []  # [span id, start_ns, child_ns]
        self._next_id = 0

    def _enter(self) -> list:
        frame = [self._next_id, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = time.perf_counter_ns()
        return frame

    def _exit(self, frame: list, name: str, hot: bool) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, start, child = frame
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        if hot:
            agg = self.hot[(self.stage, name)]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child
        else:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self.stage, duration - child))

    @contextmanager
    def stage_span(self, stage: str, name: str):
        """Root span of one stage; wrapped calls inside it are recorded."""
        self.stage = stage
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, name, hot=False)
            self.stage = None

    def _wrap(self, fn, name, hot, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.stage is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame, label, hot)
            if inspect.isgenerator(result):
                self.lazy.add(label)
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[key] += n
            return result

        return wrapper

    def install(self) -> list[str]:
        """Wrap every function in WRAPS; return those the program lacks, whose
        metrics then read 0."""
        modules = [m for key, m in sorted(sys.modules.items()) if key.split(".")[0] == "multipar"]
        missing = []
        for module_name, attr, name, hot, counter in WRAPS:
            cls_name, _, fn_name = attr.rpartition(".")
            owner = sys.modules.get(f"multipar.{module_name}")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            if owner is None or fn_name not in vars(owner):
                missing.append(f"{module_name}.{attr}")
                continue
            if cls_name:
                raw = vars(owner)[fn_name]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, hot, counter))
                else:
                    new = self._wrap(raw, name, hot, counter)
                self._patches.append((owner, fn_name, raw))
                setattr(owner, fn_name, new)
                continue
            original = vars(owner)[fn_name]
            wrapper = self._wrap(original, name, hot, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # --- reduction ------------------------------------------------------------

    def open_spans(self) -> int:
        return len(self._stack)

    def root_s(self, stage: str) -> float:
        """Duration of the stage's root span, in seconds."""
        return sum(e - s for _i, _n, s, e, parent, st, _own in self.spans
                   if parent is None and st == stage) / 1e9

    def layer_self_s(self) -> dict[str, dict[str, float]]:
        """Per stage, self seconds summed by layer (the span name's prefix)."""
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for _id, name, _s, _e, _p, stage, self_ns in self.spans:
            out[stage][name.split(".")[0]] += self_ns / 1e9
        for (stage, name), (_c, _t, self_ns) in self.hot.items():
            out[stage][name.split(".")[0]] += self_ns / 1e9
        return out

    def self_s(self, name: str) -> float:
        total = sum(s[6] for s in self.spans if s[1] == name)
        total += sum(v[2] for (_st, n), v in self.hot.items() if n == name)
        return total / 1e9

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name) + sum(
            v[0] for (_st, n), v in self.hot.items() if n == name
        )
