"""Datasets written in slices over forked worker processes: ``build-ft``,
``probe-words`` and ``buckets`` slice records across blocks (directions in
``split_files``), ``probe-numbers`` its directions, and ``tag`` byte windows
of ``records.tsv``; the parts join to the serial bytes at any ``--threads``."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from multipar import datagen, pool, probes, textio
from multipar.cli import main
from multipar.corpus import MultiParallelCorpus, save_corpus
from multipar.datagen import build_pairwise, emit_bitext, enumerate_directions
from multipar.textio import read_line_chunks

SRC = Path(pool.__file__).resolve().parents[1]
CODES = ("de", "en", "fr", "nl")


@pytest.fixture
def forked(monkeypatch):
    """The worker counts of the pools that forked, with every per-worker
    minimum at 1 and 3 CPUs, so small inputs slice."""
    calls = []
    real = pool._forked_map

    def spy(fn, bounds, workers, error):
        calls.append(workers)
        return real(fn, bounds, workers, error)

    monkeypatch.setattr(pool, "_forked_map", spy)
    monkeypatch.setattr(pool, "available_cpus", lambda: 3)
    monkeypatch.setattr(datagen, "MIN_RECORDS_PER_WORKER", 1)
    monkeypatch.setattr(datagen, "MIN_BYTES_PER_WORKER", 1)
    monkeypatch.setattr(probes, "MIN_LINES_PER_WORKER", 1)
    return calls


def gapped_corpus(n_rows: int) -> MultiParallelCorpus:
    """Distinct sentences, with some cells of each non-English language empty."""
    columns = {
        code: tuple("" if code != "en" and i % (5 + k) == 2 else f"{code} ünï {i} {'x' * (i % 7)}"
                    for i in range(n_rows))
        for k, code in enumerate(CODES)
    }
    return MultiParallelCorpus(columns=columns, row_ids=tuple(range(100, 100 + n_rows)))


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, hidden ones included."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def stages(tmp_path):
    """Each dataset-writing stage's argv, writing under ``tmp_path / "runs"``."""
    corpus = tmp_path / "corpus"
    save_corpus(gapped_corpus(60), corpus)
    dicts = tmp_path / "dicts"
    dicts.mkdir()
    for code in ("de", "fr", "nl"):
        entries = "".join(f"word{i} {code}{i}\nword{i} {code}alt{i}\n" for i in range(40))
        (dicts / f"en-{code}.txt").write_text(entries, encoding="utf-8")
    runs = tmp_path / "runs"
    build = ["build-ft", "--corpus", str(corpus), "--seed", "4"]
    return {
        "build-tsv": build + ["--out", str(runs / "build-tsv")],
        "build-rows-tag": build + ["--rows", "41", "--tag", "two_tag", "--out",
                                   str(runs / "build-rows-tag")],
        "build-split": build + ["--format", "split_files", "--out", str(runs / "build-split")],
        "build-split-tag": build + ["--format", "split_files", "--tag", "one_tag",
                                    "--fraction", "0.5", "--out", str(runs / "build-split-tag")],
        "tag": ["tag", "--dataset", str(runs / "build-tsv"), "--tag", "two_tag",
                "--out", str(runs / "tag")],
        "probe-numbers": ["probe-numbers", "--languages", *CODES, "--lines", "30", "--seed", "2",
                          "--out", str(runs / "probe-numbers")],
        "probe-numbers-split": ["probe-numbers", "--languages", *CODES, "--lines", "7",
                                "--format", "split_files", "--out",
                                str(runs / "probe-numbers-split")],
        "probe-words": ["probe-words", "--dictionaries", str(dicts), "--seed", "3",
                        "--out", str(runs / "probe-words")],
        "buckets": ["buckets", "--corpus", str(corpus), "--num-buckets", "2",
                    "--setting", "multi_parallel", "--out", str(runs / "buckets")],
    }


def run_all(stages: dict[str, list[str]], threads: list[str], root: Path) -> dict[str, bytes]:
    outputs = {}
    for name, argv in stages.items():
        assert main(argv + threads) == 0, name
        outputs.update({f"{name}/{k}": v for k, v in tree(root / name).items()})
    return outputs


def test_dataset_bytes_do_not_depend_on_threads(tmp_path, stages, forked):
    runs = tmp_path / "runs"
    serial = run_all(stages, ["--threads", "1"], runs)
    assert forked == []
    assert not any("/." in name for name in serial)  # no part file, no staging
    for threads, workers in ((["--threads", "2"], 2), (["--threads", "3"], 3), ([], 3)):
        assert run_all(stages, threads, runs) == serial
        # every stage forked all its workers
        assert forked == [workers] * len(stages)
        forked.clear()
    manifest = json.loads(serial["build-rows-tag/manifest.json"])
    assert manifest["tag_strategy"] == "two_tag" and manifest["skipped"]
    assert json.loads(serial["tag/manifest.json"])["counts"]["records"] == len(
        serial["build-tsv/records.tsv"].splitlines())


def test_a_record_slice_spans_blocks_and_skipped_rows(tmp_path):
    corpus = gapped_corpus(30)
    dataset = build_pairwise(corpus, enumerate_directions(CODES), corpus.row_ids[3:27])
    emit_bitext(dataset, "tsv", tmp_path / "serial")
    lines = (tmp_path / "serial" / "records.tsv").read_bytes().splitlines(keepends=True)
    assert len(lines) == len(dataset)
    for start in range(0, len(dataset) + 1, 7):
        for stop in (start, start + 1, start + 23, len(dataset)):
            stop = min(stop, len(dataset))
            blocks = list(datagen._record_slice(dataset.blocks, start, stop))
            with open(tmp_path / "part", "w", encoding="utf-8", newline="\n") as fh:
                datagen._write_tsv(fh, blocks, ("", ""))
            assert (tmp_path / "part").read_bytes() == b"".join(lines[start:stop])


def windows(path: Path, cuts: list[int]) -> list[str]:
    """The lines read window by window between consecutive ``cuts``."""
    return [line for a, b in zip(cuts, cuts[1:])
            for chunk in read_line_chunks(path, ValueError, a, b) for line in chunk]


@pytest.mark.parametrize("data", [
    "a\r\nbé\rc\n\r\nd\n\n€\r\r\ne",
    "only\rcarriage\rreturns\r",
    "\n\r\n\r",
])
def test_windows_between_any_cuts_read_every_line_once(tmp_path, data):
    path = tmp_path / "input.txt"
    path.write_bytes(data.encode())
    whole = [line for chunk in read_line_chunks(path, ValueError) for line in chunk]
    size = len(data.encode())
    for cut in range(size + 1):
        assert windows(path, [0, cut, size]) == whole
    assert windows(path, list(range(size + 1))) == whole


def tag_argv(dataset: Path, out: Path) -> list[str]:
    return ["tag", "--dataset", str(dataset), "--tag", "two_tag", "--out", str(out)]


def records(count: int, ends=("\n",)) -> bytes:
    return "".join(f"de\tnl\tsentence ü {i}\tzin {i}{ends[i % len(ends)]}"
                   for i in range(count)).encode()


def test_a_crlf_at_a_window_cut_and_a_cr_only_file(tmp_path, forked, monkeypatch):
    monkeypatch.setattr(pool, "available_cpus", lambda: 2)
    # pad the first line until a slice bound of 2 workers falls inside a CRLF
    for pad in range(200):
        data = b"de\tnl\t" + b"p" * pad + b"\tq\r\n" + records(60, ("\r\n", "\n", "\r"))
        slices = 2 * pool.SLICES_PER_WORKER
        bounds = [len(data) * i // slices for i in range(1, slices)]
        if any(data[b - 1:b + 1] == b"\r\n" for b in bounds):
            break
    else:
        pytest.fail("no padding puts a CRLF at a cut")
    for name, text in (("crlf", data), ("cr", records(50, ("\r",)))):
        dataset = tmp_path / name
        dataset.mkdir()
        (dataset / "records.tsv").write_bytes(text)
        out = tmp_path / f"{name}-out"
        assert main(tag_argv(dataset, out) + ["--threads", "1"]) == 0
        serial = tree(out)
        assert main(tag_argv(dataset, out) + ["--threads", "2"]) == 0
        assert tree(out) == serial
        lines = serial["records.tsv"].split(b"\n")
        assert len(lines) == text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n") + 1
    assert forked == [2, 2]


def test_a_window_in_which_no_line_starts_reads_only_its_own_bytes(tmp_path, monkeypatch):
    # a CR-only file is one window: each later window used to scan on to the
    # end of the file twice, looking for an LF
    reads = []

    class CountingFile(io.FileIO):
        def read(self, size=-1):
            data = super().read(size)
            reads.append(len(data))
            return data

    monkeypatch.setattr(textio, "open", lambda path, mode: CountingFile(path), raising=False)
    monkeypatch.setattr(textio, "CHUNK_CHARS", 1 << 10)
    path = tmp_path / "records.tsv"
    path.write_bytes(records(400, ("\r",)))
    size = path.stat().st_size
    cuts = [size * i // 6 for i in range(7)]
    read = []
    for a, b in zip(cuts, cuts[1:]):
        reads.clear()
        lines = [line for chunk in read_line_chunks(path, ValueError, a, b) for line in chunk]
        assert len(lines) == (400 if a == 0 else 0)
        read.append(sum(reads))
    assert read[1:] == [b - a for a, b in zip(cuts[1:], cuts[2:])]
    assert read[0] == size + size - cuts[1] + 1


@pytest.mark.parametrize(
    "bad, message",
    [(b"de\tnl\tthree fields", "expected 4 fields, got 3"),
     (b"de\tde\ta\tb", "direction with identical endpoints 'de'"),
     (b"de\tnl\t\xff\tb", "invalid UTF-8")],
    ids=["fields", "direction", "utf-8"],
)
def test_an_error_in_a_late_window_names_the_serial_line(tmp_path, capsys, forked, bad, message):
    # blank lines and every line end before the bad line count
    head = b"\n \r\n" + records(300, ("\r\n", "\r", "\n")) + b"\t\n"
    (tmp_path / "records.tsv").write_bytes(head + bad + b"\n" + records(20))
    line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
    errors = []
    for threads in ("1", "3"):
        assert main(tag_argv(tmp_path, tmp_path / "out") + ["--threads", threads]) == 1
        errors.append(capsys.readouterr().err)
        assert not (tmp_path / "out").exists()
    assert errors[0] == errors[1]
    assert f"{tmp_path / 'records.tsv'}:{line}: {message}" in errors[0]
    assert forked == [3]


def test_the_first_bad_line_wins_whatever_the_windows(tmp_path, capsys, forked):
    # a bad record before an undecodable byte in the same 64K read
    data = records(100) + b"de\tnl\tthree\n" + records(100) + b"de\tnl\t\xff\tb\n"
    (tmp_path / "records.tsv").write_bytes(data)
    for threads in ("1", "3"):
        assert main(tag_argv(tmp_path, tmp_path / "out") + ["--threads", threads]) == 1
        assert "records.tsv:101: expected 4 fields, got 3" in capsys.readouterr().err


def test_a_worker_fault_leaves_no_part_file(tmp_path, forked, monkeypatch):
    parent = os.getpid()
    real = datagen._write_lines

    def failing(fh, positions, *layout):
        if os.getpid() != parent:
            raise OSError("disk full")
        return real(fh, positions, *layout)

    monkeypatch.setattr(datagen, "_write_lines", failing)
    corpus = gapped_corpus(40)
    dataset = build_pairwise(corpus, enumerate_directions(CODES))
    out = tmp_path / "out"
    with pytest.raises(OSError, match="^disk full$"):
        emit_bitext(dataset, "tsv", out, 2)
    assert forked == [2]
    assert list(out.iterdir()) == []


DYING_WORKER = """
import os, sys
from multipar import datagen, pool
from multipar.cli import main

parent = os.getpid()
real = datagen._write_lines

def dying(*args):
    if os.getpid() != parent:
        os._exit(3)
    return real(*args)

datagen._write_lines = dying
datagen.MIN_RECORDS_PER_WORKER = 1
pool.available_cpus = lambda: 2
sys.exit(main(sys.argv[1:]))
"""


def test_a_dead_worker_is_a_datagen_error_and_out_is_as_it_was(tmp_path, stages):
    out = Path(stages["build-tsv"][-1])
    out.mkdir(parents=True)
    (out / "records.tsv").write_text("old\n", encoding="utf-8")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", DYING_WORKER, *stages["build-tsv"], "--threads", "2",
         "--json-errors"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    envelope = json.loads(done.stderr)
    assert envelope["error"] == "DatagenError" and "worker" in envelope["message"]
    assert tree(out) == {"records.tsv": b"old\n"}
