"""``score`` over forked worker processes: the statistics are integer sums,
so every output byte is the same at any ``--threads``."""

import json
import os
import random
import subprocess
import sys
import threading
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multipar import metrics, pool
from multipar.cli import main
from multipar.metrics import MIN_PAIRS_PER_WORKER, MetricConfig, ScorePair

SRC = Path(metrics.__file__).resolve().parents[1]
STATS = {
    "chrf": partial(metrics._chrf_pair_stats, config=MetricConfig(word_order=0)),
    "chrfpp": partial(metrics._chrf_pair_stats, config=MetricConfig(word_order=2)),
    "bleu": metrics._bleu_pair_stats,
}
WORDS = ["the", "cat", "sat", "mat,", "Hund", "dög", "кот", "сидел.", "猫", "3.14", "a-b", "(x)", "&amp;"]


def write_pairs(root: Path, n: int, seed: int = 0) -> list[str]:
    """Write ``n`` mixed-script hypothesis/reference pairs; return the score
    argv reading them."""
    rng = random.Random(seed)
    hyps, refs = [], []
    for _ in range(n):
        ref = [rng.choice(WORDS) for _ in range(rng.randint(1, 12))]
        hyp = [w for w in ref if rng.random() < 0.8] + rng.sample(WORDS, rng.randint(0, 2))
        hyps.append(" ".join(hyp))
        refs.append(" ".join(ref))
    root.mkdir(parents=True, exist_ok=True)
    (root / "hyp.txt").write_text("".join(h + "\n" for h in hyps), encoding="utf-8")
    (root / "ref.txt").write_text("".join(r + "\n" for r in refs), encoding="utf-8")
    return ["score", "--hypotheses", str(root / "hyp.txt"), "--references", str(root / "ref.txt"),
            "--src-lang", "de", "--tgt-lang", "nl", "--out", str(root / "out")]


@pytest.mark.parametrize("metric", sorted(STATS))
def test_score_bytes_do_not_depend_on_threads(tmp_path, monkeypatch, metric):
    forked = []
    real = pool._forked_map

    def spy(fn, bounds, workers, error):
        forked.append(workers)
        return real(fn, bounds, workers, error)

    monkeypatch.setattr(pool, "_forked_map", spy)
    argv = write_pairs(tmp_path, 2 * MIN_PAIRS_PER_WORKER + 7) + ["--metric", metric]
    outputs = []
    for threads in (["--threads", "1"], ["--threads", "4"], []):
        assert main(argv + threads) == 0
        out = tmp_path / "out"
        outputs.append(((out / "scores.tsv").read_bytes(), (out / "run.json").read_bytes()))
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # --threads 1 stays in-process; 4 and the default fork wherever there are 2 CPUs
    workers = min(2, pool.available_cpus())
    assert forked == ([workers, workers] if workers > 1 else [])


@settings(max_examples=60, deadline=None)
@given(
    texts=st.lists(
        st.tuples(st.lists(st.sampled_from(WORDS), max_size=8), st.lists(st.sampled_from(WORDS), max_size=8)),
        min_size=1, max_size=12,
    ),
    cuts=st.sets(st.integers(1, 11)),
)
def test_summed_slice_statistics_equal_the_serial_sums(texts, cuts):
    pairs = [ScorePair(" ".join(h), " ".join(r)) for h, r in texts]
    bounds = [0, *sorted(c for c in cuts if c < len(pairs)), len(pairs)]
    for pair_stats in STATS.values():
        serial = metrics._pooled_stats(pairs, pair_stats)
        slices = [metrics._slice_stats(pairs, pair_stats, a, b) for a, b in zip(bounds, bounds[1:])]
        assert metrics._column_sums(slices) == serial


def test_worker_count_is_bounded_by_cpus_and_pairs():
    cpus = pool.available_cpus()
    assert pool.worker_count(1_000_000, 10**9, MIN_PAIRS_PER_WORKER) == cpus
    assert pool.worker_count(None, 10**9, MIN_PAIRS_PER_WORKER) == cpus
    assert pool.worker_count(1_000_000, 2 * MIN_PAIRS_PER_WORKER - 1, MIN_PAIRS_PER_WORKER) == 1
    assert pool.worker_count(1, 10**9, MIN_PAIRS_PER_WORKER) == 1


def test_huge_threads_resolves_to_the_available_cpus_without_a_process(tmp_path, monkeypatch):
    pools = []

    def in_process_pool(fn, bounds, workers, error):
        pools.append(workers)
        return list(map(fn, bounds[:-1], bounds[1:]))

    def no_fork():
        raise AssertionError("a process was started")

    monkeypatch.setattr(pool, "_forked_map", in_process_pool)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(pool, "available_cpus", lambda: 3)
    argv = write_pairs(tmp_path, 4 * MIN_PAIRS_PER_WORKER) + ["--metric", "chrfpp"]
    assert main(argv + ["--threads", "1000000"]) == 0
    pooled = (tmp_path / "out" / "scores.tsv").read_bytes()
    assert pools == [3]
    assert main(argv + ["--threads", "1"]) == 0
    assert (tmp_path / "out" / "scores.tsv").read_bytes() == pooled
    assert pools == [3]


def test_another_running_thread_keeps_scoring_in_process(monkeypatch):
    forked = []
    monkeypatch.setattr(pool, "_forked_map", lambda *args: forked.append(args))
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    pairs = [ScorePair("the cat sat", "the cat sat on the mat")] * (2 * MIN_PAIRS_PER_WORKER)
    pair_stats = STATS["chrfpp"]
    serial = metrics._pooled_stats(pairs, pair_stats)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert metrics._pooled_stats(pairs, pair_stats, 2) == serial
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forked == []


DYING_WORKER = """
import os, sys
from multipar import metrics, pool
from multipar.cli import main

parent, real = os.getpid(), metrics._chrf_pair_stats

def dying(pair, config):
    if os.getpid() != parent:
        os._exit(3)
    return real(pair, config)

metrics._chrf_pair_stats = dying
pool.available_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_a_dead_worker_is_a_metric_error(tmp_path):
    argv = write_pairs(tmp_path, 2 * MIN_PAIRS_PER_WORKER) + ["--metric", "chrf", "--threads", "2"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", DYING_WORKER, *argv, "--json-errors"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    envelope = json.loads(done.stderr)
    assert envelope["error"] == "MetricError"
    assert "worker" in envelope["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_threads_below_one_is_an_error(tmp_path, capsys, value):
    argv = write_pairs(tmp_path, 2) + ["--metric", "bleu"]
    assert main(argv + ["--threads", value]) == 1
    assert f"--threads must be at least 1, got {value}" in capsys.readouterr().err
    (tmp_path / "cfg").write_text(f"threads = {value}\n", encoding="utf-8")
    assert main(argv + ["--config", str(tmp_path / "cfg")]) == 1
    assert "--threads" in capsys.readouterr().err
    sizes = tmp_path / "sizes.tsv"
    sizes.write_text("a\t10\nb\t5\n", encoding="utf-8")
    mix = ["mix", "--sizes", str(sizes), "--temperature", "2", "--out", str(tmp_path / "mix")]
    with pytest.raises(SystemExit) as rejected:  # mix does not take the flag
        main(mix + ["--threads", value])
    assert rejected.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "mix").exists()
    # a config file's threads key is ignored where the flag does not exist
    assert main(mix + ["--config", str(tmp_path / "cfg")]) == 0
