"""``lid-train``, ``lid-eval`` and ``ontarget`` over forked worker processes:
the slices concatenate to the serial counts and labels, so every output byte
is the same at any ``--threads``."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from multipar import langid, pool
from multipar.cli import main
from multipar.langid import MIN_LANGUAGES_PER_WORKER, MIN_LINES_PER_WORKER, LidConfig, LidError

from helpers import synthetic_sentences

SRC = Path(pool.__file__).resolve().parents[1]
# overlapping alphabets, so some hypotheses are misread
ALPHABETS = {"aa": "abcdefgh", "bb": "efghijkl", "cc": "ijklmnop", "dd": "mnopqrst", "ee": "qrstuvwx"}
OUTPUTS = {"lid_train": "lid_model.json", "lid_eval": "off_target.json", "ontarget": "on_target.json"}


def write_lid_inputs(root: Path, n_languages: int, n_lines: int) -> dict[str, list[str]]:
    """A corpus of ``n_languages`` languages, ``n_lines`` labelled hypotheses
    and ``n_lines`` baseline rows; return each stage's argv."""
    codes = sorted(ALPHABETS)[:n_languages]
    corpus = root / "corpus"
    corpus.mkdir(parents=True)
    for i, code in enumerate(codes):
        column = synthetic_sentences(ALPHABETS[code], 40, seed=i)
        (corpus / f"{code}.txt").write_text("".join(s + "\n" for s in column), encoding="utf-8")
    held_out = {c: synthetic_sentences(ALPHABETS[c], n_lines, seed=50 + i, words=2) for i, c in enumerate(codes)}
    hyps, baseline = [], []
    for i in range(n_lines):
        code, other = codes[i % len(codes)], codes[(i + 1) % len(codes)]
        text = "" if i % 17 == 0 else held_out[other if i % 5 == 0 else code][i]
        hyps.append(f"{code}\t{text}\n")
        baseline.append(f"{other}-{code}\t{i // len(codes)}\t{text}\n")
    (root / "hyps.tsv").write_text("".join(hyps), encoding="utf-8")
    (root / "baseline.tsv").write_text("".join(baseline), encoding="utf-8")
    model = str(root / "lid_train" / "lid_model.json")
    return {
        "lid_train": ["lid-train", "--corpus", str(corpus), "--out", str(root / "lid_train")],
        "lid_eval": ["lid-eval", "--model", model, "--hypotheses", str(root / "hyps.tsv"),
                     "--out", str(root / "lid_eval")],
        "ontarget": ["ontarget", "--model", model, "--hypotheses", str(root / "baseline.tsv"),
                     "--out", str(root / "ontarget")],
    }


def run_stages(root: Path, stages: dict[str, list[str]], threads: list[str]) -> dict[str, bytes]:
    outputs = {}
    for name, argv in stages.items():
        assert main(argv + threads) == 0
        for file in (OUTPUTS[name], "run.json"):
            outputs[f"{name}/{file}"] = (root / name / file).read_bytes()
    return outputs


def test_lid_bytes_do_not_depend_on_threads(tmp_path, monkeypatch):
    forked = []
    real = pool._forked_map

    def spy(fn, bounds, workers, error):
        forked.append(workers)
        return real(fn, bounds, workers, error)

    monkeypatch.setattr(pool, "_forked_map", spy)
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    stages = write_lid_inputs(tmp_path, 2 * MIN_LANGUAGES_PER_WORKER + 1, 2 * MIN_LINES_PER_WORKER + 9)
    serial = run_stages(tmp_path, stages, ["--threads", "1"])
    assert forked == []
    for threads in (["--threads", "2"], ["--threads", "4"], []):
        assert run_stages(tmp_path, stages, threads) == serial
        # every stage forked its 2 workers
        assert forked == [2, 2, 2]
        forked.clear()
    report = json.loads(serial["lid_eval/off_target.json"])
    assert report["overall"]["total"] == 2 * MIN_LINES_PER_WORKER + 9
    assert 0 < report["overall"]["off_target"] < report["overall"]["total"]
    kept = json.loads(serial["ontarget/on_target.json"])
    assert 0 < sum(map(len, kept.values())) < 2 * MIN_LINES_PER_WORKER + 9


def test_below_the_minimum_work_no_process_starts(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(pool, "available_cpus", lambda: 8)
    stages = write_lid_inputs(tmp_path, 2 * MIN_LANGUAGES_PER_WORKER - 1, 2 * MIN_LINES_PER_WORKER - 1)
    pooled = run_stages(tmp_path, stages, ["--threads", "1000000"])
    assert run_stages(tmp_path, stages, ["--threads", "1"]) == pooled
    assert pool.worker_count(8, 2 * MIN_LINES_PER_WORKER - 1, MIN_LINES_PER_WORKER) == 1
    assert pool.worker_count(8, 2 * MIN_LINES_PER_WORKER, MIN_LINES_PER_WORKER) == 2
    assert pool.worker_count(8, 2 * MIN_LANGUAGES_PER_WORKER - 1, MIN_LANGUAGES_PER_WORKER) == 1


def test_another_running_thread_keeps_lid_in_process(monkeypatch):
    forked = []
    monkeypatch.setattr(pool, "_forked_map", lambda *args: forked.append(args))
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    codes = sorted(ALPHABETS)[: 2 * MIN_LANGUAGES_PER_WORKER]
    samples = {c: synthetic_sentences(ALPHABETS[c], 20, seed=i) for i, c in enumerate(codes)}
    texts = [samples[codes[i % len(codes)]][i % 20] for i in range(2 * MIN_LINES_PER_WORKER)]
    hyps = [(text, codes[i % 2]) for i, text in enumerate(texts)]
    rows = {f"{codes[0]}-{codes[1]}": dict(enumerate(texts))}
    model = langid.lid_train(samples, LidConfig())
    serial = (
        langid.lid_train(samples, LidConfig()).to_json_dict(),
        langid.off_target_rate(hyps, model),
        langid.on_target_subset(rows, model),
    )
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        pooled = (
            langid.lid_train(samples, LidConfig(), 2).to_json_dict(),
            langid.off_target_rate(hyps, model, 2),
            langid.on_target_subset(rows, model, 2),
        )
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert pooled == serial
    assert forked == []


def test_a_fault_in_a_training_worker_is_the_serial_error(monkeypatch, capfd):
    forked = []
    real = pool._forked_map

    def spy(fn, bounds, workers, error):
        forked.append(workers)
        return real(fn, bounds, workers, error)

    monkeypatch.setattr(pool, "_forked_map", spy)
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    # one sentence per language; the forked worker counts the second first
    codes = sorted(ALPHABETS)[: 2 * MIN_LANGUAGES_PER_WORKER]
    samples = {code: [ALPHABETS[code]] for code in codes}
    samples[codes[1]] = ["efgh\nijkl"]
    for workers in (1, 2):
        with pytest.raises(LidError, match="^a training sentence holds a line feed$"):
            langid.lid_train(samples, LidConfig(), workers)
    assert forked == [2]
    assert capfd.readouterr().err == ""


DYING_WORKER = """
import os, sys
from multipar import langid, pool
from multipar.cli import main

parent = os.getpid()

def dying(real):
    def call(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)
    return call

langid.lid_classify = dying(langid.lid_classify)
langid._ngrams = dying(langid._ngrams)
pool.available_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("stage", sorted(OUTPUTS))
def test_a_dead_worker_is_a_lid_error(tmp_path, stage):
    stages = write_lid_inputs(tmp_path, 2 * MIN_LANGUAGES_PER_WORKER, 2 * MIN_LINES_PER_WORKER)
    if stage != "lid_train":
        assert main(stages["lid_train"] + ["--threads", "1"]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", DYING_WORKER, *stages[stage], "--threads", "2", "--json-errors"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    envelope = json.loads(done.stderr)
    assert envelope["error"] == "LidError"
    assert "worker" in envelope["message"]
    assert not (tmp_path / stage).exists()
