"""Output bytes that do not hang on the interpreter's ``sum()``: every
``src/multipar`` module run with Python 3.12's compensated ``sum()`` in
place of the builtin writes the same bytes as a plain run."""

import importlib
import pkgutil
import random
from pathlib import Path

import pytest

import multipar
from multipar.cli import main

from helpers import write_ec30_scores
from oracles.compensated_sum import compensated_sum


def test_compensated_sum_is_exact_for_ints_and_compensates_floats():
    assert compensated_sum([10**20, 1, -10**20]) == 1
    assert type(compensated_sum([True, 2])) is int
    assert compensated_sum([0.1] * 10) == 1.0 != sum([0.1] * 10)
    assert compensated_sum([1e100, 1.0, -1e100]) == 1.0
    assert compensated_sum([1, 0.5, 2**60, 3], 0.25) == 2**60 + 4.75
    with pytest.raises(TypeError):
        compensated_sum([0.5, "x"])


def _write_inputs(root: Path) -> None:
    write_ec30_scores(root / "scores.tsv", seed=21)
    write_ec30_scores(root / "baseline.tsv", seed=12)
    rnd = random.Random(1)
    words = "the a cat dog sat on mat red blue green house tree sun moon".split()
    lines = {"hyp.txt": [], "ref.txt": []}
    for _ in range(30):
        for name in ("hyp.txt", "ref.txt"):
            lines[name].append(" ".join(rnd.choice(words) for _ in range(rnd.randint(4, 9))))
    for name, text in lines.items():
        (root / name).write_text("".join(s + "\n" for s in text), encoding="utf-8")
    rnd = random.Random(0)
    (root / "sizes.tsv").write_text(
        "".join(f"k{i:02d}\t{rnd.uniform(0.1, 1000):.1f}\n" for i in range(31)), encoding="utf-8")


REPORT = ["report", "--scores", "scores.tsv", "--baseline", "baseline.tsv",
          "--scheme", "resource_grid", "english_centric", "family:Germanic"]
RUNS = {
    "report tsv": REPORT,
    "report json": [*REPORT, "--format", "json"],
    "score bleu": ["score", "--hypotheses", "hyp.txt", "--references", "ref.txt",
                   "--metric", "bleu", "--src-lang", "de", "--tgt-lang", "nl", "--threads", "1"],
    "mix": ["mix", "--sizes", "sizes.tsv", "--temperature", "5"],
}


def _outputs(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.json"}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_bytes_do_not_depend_on_the_sum_algorithm(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main([*RUNS[name], "--out", "plain"]) == 0
    for info in pkgutil.iter_modules(multipar.__path__):
        module = importlib.import_module(f"multipar.{info.name}")
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    assert main([*RUNS[name], "--out", "compensated"]) == 0
    plain = _outputs(tmp_path / "plain")
    assert plain and _outputs(tmp_path / "compensated") == plain
