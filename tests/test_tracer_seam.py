"""The seam the benchmark's tracer relies on: ``perfbench/tracing.py`` wraps
program functions by ``(module, attribute)`` name and reads a few fields of
their arguments.  A rename in ``src/`` would silently zero the per-layer
metric of the renamed function, or break a ``--trace 1`` run; this test
reads the tracer's table, edits nothing, and fails on such a rename instead.
"""

import importlib
import importlib.util
from pathlib import Path

from multipar.metrics import CHRF, CHRF_PP, ScorePair

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# wrapped names the program no longer has, each with its reason
ALLOWED_MISSING = {
    # the score-matrix reader moved to report.ScoreMatrix.load_tsv; re-pointing
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
