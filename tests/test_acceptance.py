"""Acceptance gate: one test per headline criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria cover combinatorics, published-table arithmetic, dataset-size
parity, metric and mining oracles, dictionary pivoting, language
identification, determinism, temperature sampling, and performance.
"""

import itertools
import json
import resource
import sys
import time
from pathlib import Path

import mpmath
import pytest

from multipar.cli import main
from multipar.corpus import mine_pivot_aligned
from multipar.datagen import (
    build_multidirectional_setting,
    build_multiparallel_setting,
    build_pairwise,
    enumerate_directions,
    partition_buckets,
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
)
from multipar.langid import (
    LidConfig,
    lid_classify,
    lid_train,
    off_target_rate,
    on_target_subset,
)
from multipar.metrics import CHRF, CHRF_PP, ScorePair, bleu, chrf, tokenize_13a
from multipar.probes import pivot_dictionaries
from multipar.registry import ec30
from multipar.report import resource_grid_group
from multipar.sampling import temperature_weights

from helpers import (
    brute_force_join,
    brute_force_mine,
    full_corpus,
    grouped,
    make_mining_fixture,
    synthetic_sentences,
)

REG = ec30()


class gate:
    """Prints one PASS/FAIL line per criterion."""

    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict}: {self.name}", file=sys.stderr)
        return False


def test_criterion_combinatorics():
    with gate("combinatorics: 56/870 directions, 90/100 grid cells, 42 Germanic"):
        eight = ["en", "da", "de", "es", "fi", "fr", "it", "nl"]
        assert len(enumerate_directions(eight)) == 56
        without_oc = enumerate_directions(REG.codes, excluded_languages={"oc"})
        assert len(without_oc) == 870

        zero_shot = enumerate_directions(REG.codes, include_english_centric=False)
        counts = {}
        for d in zero_shot:
            cell = resource_grid_group(d, REG)
            counts[cell] = counts.get(cell, 0) + 1
        assert sum(counts.values()) == 870
        for cell, n in counts.items():
            src, tgt = cell.split("-")
            assert n == (90 if src == tgt else 100), cell

        germanic = restrict_directions_to_family(enumerate_directions(REG.codes), "Germanic", REG)
        assert len(germanic) == 42


def test_criterion_table_arithmetic(tmp_path):
    with gate("table arithmetic: zero-shot AVG 12.8 and english-centric AVG 52.1"):
        grid_values = {
            "H-H": 11.0, "H-M": 14.8, "H-L": 10.6,
            "M-H": 11.3, "M-M": 14.9, "M-L": 10.5,
            "L-H": 13.7, "L-M": 17.4, "L-L": 10.9,
        }
        reps = {"H": ("de", "fr"), "M": ("sv", "it"), "L": ("af", "ro")}
        cells = []
        for cell, value in grid_values.items():
            s, t = cell.split("-")
            cells.append((reps[s][0], reps[t][1], value))
        table2 = {
            ("High", "EN-X"): 52.5, ("High", "X-EN"): 57.5,
            ("Medium", "EN-X"): 53.9, ("Medium", "X-EN"): 56.5,
            ("Low", "EN-X"): 42.5, ("Low", "X-EN"): 49.8,
        }
        tier_rep = {"High": "de", "Medium": "sv", "Low": "af"}
        for (tier, orientation), value in table2.items():
            code = tier_rep[tier]
            cells.append(("en", code, value) if orientation == "EN-X" else (code, "en", value))
        scores = tmp_path / "scores.tsv"
        scores.write_text(
            "src_lang\ttgt_lang\tmetric\tvalue\tcount\n"
            + "".join(f"{src}\t{tgt}\tchrf\t{value}\t0\n" for src, tgt, value in cells),
            encoding="utf-8",
        )
        out = tmp_path / "report"
        assert main(["report", "--scores", str(scores), "--format", "json", "--out", str(out)]) == 0
        summaries = json.loads((out / "report.json").read_text(encoding="utf-8"))["summaries"]
        assert summaries["chrf"]["resource_grid"]["AVG"] == pytest.approx(12.8, abs=0.05)
        overall = summaries["chrf"]["english_centric"]["overall"]
        assert overall["AVG"] == pytest.approx(52.1, abs=0.05)


def test_criterion_bitext_size_parity():
    with gate("bitext-size parity: rows/directions trade-off and bucketed settings"):
        codes = [c for c in REG.codes if c != "oc"]  # 30 languages
        corpus = full_corpus(codes, 1000)
        dirs = enumerate_directions(codes)
        assert len(dirs) == 870
        a = build_pairwise(
            corpus, sample_directions(dirs, 0.8, seed=1), sample_rows(corpus, 100, 1)
        )
        b = build_pairwise(
            corpus, sample_directions(dirs, 0.1, seed=1), sample_rows(corpus, 800, 1)
        )
        assert len(a) == len(b) == 69_600

        few = ["de", "en", "fr", "nl", "pt"]
        small = full_corpus(few, 2000)
        assignment = partition_buckets(list(small.row_ids), 10, seed=0)
        multi_par = build_multiparallel_setting(small, assignment, 0, few)
        multi_dir = build_multidirectional_setting(small, assignment, few)
        assert len(multi_par) == len(multi_dir) == 4000


def test_criterion_metric_oracles():
    with gate("metric oracles: 13a exact on 50 strings; BLEU/ChrF/ChrF++ within 0.05"):
        fixture = json.loads(
            (Path(__file__).parent / "data" / "metric_fixture.json").read_text(
                encoding="utf-8"
            )
        )
        assert len(fixture["tokenizer"]) == 50
        for row in fixture["tokenizer"]:
            assert tokenize_13a(row["text"]) == row["tokens"], row["text"]
        pairs = [ScorePair(r["hyp"], r["ref"]) for r in fixture["pairs"]]
        assert len(pairs) == 20
        assert bleu(pairs) == pytest.approx(fixture["expected"]["bleu"], abs=0.05)
        assert chrf(pairs, CHRF) == pytest.approx(fixture["expected"]["chrf"], abs=0.05)
        assert chrf(pairs, CHRF_PP) == pytest.approx(
            fixture["expected"]["chrfpp"], abs=0.05
        )


def test_criterion_pivot_mining_oracle():
    with gate("pivot mining equals brute-force join on a 1,000-line fixture"):
        bitexts = make_mining_fixture(n_lines=1000)
        corpus, stats = mine_pivot_aligned(bitexts)
        expected = brute_force_mine(bitexts)
        assert corpus.columns == expected
        assert stats.yield_rows == len(expected["en"]) > 0
        assert any(n > 0 for n in stats.duplicate_pivots_dropped.values())


def test_criterion_dictionary_pivoting_oracle():
    with gate("dictionary pivoting closure; 7 languages -> 28 equal dictionaries"):
        dicts = {
            "de": [("dog", "Hund"), ("walk", "gehen"), ("walk", "laufen"),
                   ("tree", "Baum")],
            "nl": [("dog", "hond"), ("walk", "lopen"), ("walk", "wandelen"),
                   ("tree", "boom")],
            "fr": [("dog", "chien"), ("walk", "marcher"), ("tree", "arbre")],
        }
        corpus = pivot_dictionaries(grouped(dicts), seed=1)
        columns = corpus.columns
        for a, b in itertools.combinations(sorted(dicts), 2):
            # the pivoted pair is exactly the brute-force join of the chosen
            # per-language restrictions, and lies inside the raw closure
            pivoted = set(zip(columns[a], columns[b]))
            assert pivoted == brute_force_join(
                list(zip(columns["en"], columns[a])), list(zip(columns["en"], columns[b]))
            )
            assert pivoted <= brute_force_join(dicts[a], dicts[b])

        codes = ["de", "nl", "fr", "es", "it", "pt", "ro"]
        headwords = [f"w{i}" for i in range(25)]
        seven = {c: [(w, f"{w}_{c}") for w in headwords] for c in codes}
        corpus7 = pivot_dictionaries(grouped(seven), seed=0)
        pairs = list(itertools.combinations(corpus7.languages, 2))
        assert len(pairs) == 28
        sizes = {len(set(zip(corpus7.columns[a], corpus7.columns[b]))) for a, b in pairs}
        assert sizes == {25}


def test_criterion_language_identification():
    with gate("LID: >=99% disjoint-alphabet accuracy; exact off-target; subset rate 0"):
        train = {
            "aa": synthetic_sentences("abcdefgh", 200, seed=1),
            "bb": synthetic_sentences("qrstuvwx", 200, seed=2),
        }
        model = lid_train(train, LidConfig())
        heldout = {
            "aa": synthetic_sentences("abcdefgh", 200, seed=3),
            "bb": synthetic_sentences("qrstuvwx", 200, seed=4),
        }
        correct = total = 0
        for lang, sentences in heldout.items():
            for s in sentences:
                correct += lid_classify(s, model) == lang
                total += 1
        assert correct / total >= 0.99

        a = heldout["aa"]
        b = heldout["bb"]
        hyps = [(s, "aa") for s in a[:6]] + [(s, "aa") for s in b[:2]]
        report = off_target_rate(hyps, model)
        assert report.per_direction["aa"]["rate"] == 0.25
        assert report.overall_off_target == 2

        mixed = [a[i // 2] if i % 2 == 0 else b[i // 2] for i in range(10)]
        baseline = {"bb-aa": dict(enumerate(mixed))}
        subsets = on_target_subset(baseline, model)
        assert subsets["bb-aa"] == {0, 2, 4, 6, 8}
        residual = [
            (text, "aa") for rid, text in baseline["bb-aa"].items() if rid in subsets["bb-aa"]
        ]
        assert off_target_rate(residual, model).overall_rate == 0.0


def _run_pipeline(workdir: Path, threads: str) -> dict[str, bytes]:
    """mine -> build-ft -> tag -> score -> report, and lid-train -> lid-eval ->
    ontarget on the mined corpus, returning output bytes."""
    bitexts_dir = workdir / "bitexts"
    bitexts_dir.mkdir(parents=True, exist_ok=True)
    for code, pairs in make_mining_fixture(n_lines=120).items():
        (bitexts_dir / f"{code}.tsv").write_text(
            # the fixture's whitespace-variant pivots contain tabs, which the
            # two-column TSV transport cannot carry; spaces trim identically
            "".join(f"{en.replace(chr(9), ' ')}\t{fr}\n" for en, fr in pairs),
            encoding="utf-8",
        )
    mined = workdir / "mined"
    assert main(["mine", "--bitexts", str(bitexts_dir), "--out", str(mined)]) == 0

    ft = workdir / "ft"
    assert main(
        ["build-ft", "--corpus", str(mined), "--out", str(ft),
         "--rows", "50", "--seed", "7"]
    ) == 0

    tagged = workdir / "tagged"
    assert main(["tag", "--dataset", str(ft), "--tag", "one_tag", "--out", str(tagged)]) == 0

    # score the mined de column against nl as a deterministic scoring stage
    score_dir = workdir / "score"
    assert main(
        ["score", "--hypotheses", str(mined / "de.txt"),
         "--references", str(mined / "nl.txt"), "--metric", "chrfpp",
         "--src-lang", "de", "--tgt-lang", "nl", "--threads", threads,
         "--out", str(score_dir)]
    ) == 0

    report_dir = workdir / "report"
    assert main(
        ["report", "--scores", str(score_dir / "scores.tsv"),
         "--scheme", "resource_grid", "--format", "tsv",
         "--out", str(report_dir)]
    ) == 0

    # every mined cell as a hypothesis in its own language, and as one of a
    # direction into the next language, a third of them off target: enough
    # lines and languages for 2 workers
    lid_dir, eval_dir, ontarget_dir = workdir / "lid", workdir / "lid_eval", workdir / "ontarget"
    assert main(["lid-train", "--corpus", str(mined), "--out", str(lid_dir),
                 "--threads", threads]) == 0
    codes = json.loads((mined / "manifest.json").read_text(encoding="utf-8"))["languages"]
    columns = {c: (mined / f"{c}.txt").read_text(encoding="utf-8").splitlines() for c in codes}
    hyps, baseline = workdir / "hyps.tsv", workdir / "baseline.tsv"
    hyps.write_text("".join(f"{c}\t{t}\n" for c in codes for t in columns[c]), encoding="utf-8")
    baseline.write_text("".join(
        f"{src}-{tgt}\t{i}\t{t if i % 3 else s}\n" for src, tgt in zip(codes, codes[1:] + codes[:1])
        for i, (s, t) in enumerate(zip(columns[src], columns[tgt]))
    ), encoding="utf-8")
    model = str(lid_dir / "lid_model.json")
    assert main(["lid-eval", "--model", model, "--hypotheses", str(hyps),
                 "--out", str(eval_dir), "--threads", threads]) == 0
    assert main(["ontarget", "--model", model, "--hypotheses", str(baseline),
                 "--out", str(ontarget_dir), "--threads", threads]) == 0

    outputs = {}
    for stage in (mined, ft, tagged, score_dir, report_dir, lid_dir, eval_dir, ontarget_dir):
        for f in sorted(stage.rglob("*")):
            if f.is_file():
                outputs[str(f.relative_to(workdir))] = f.read_bytes()
    return outputs


def test_criterion_determinism(tmp_path):
    with gate("determinism: pipeline reruns byte-identical, across --threads"):
        start = time.monotonic()
        first = _run_pipeline(tmp_path / "run", threads="1")
        rerun = _run_pipeline(tmp_path / "run", threads="1")  # same paths, rerun
        assert rerun == first
        threaded = _run_pipeline(tmp_path / "run", threads="4")
        assert threaded == first
        assert time.monotonic() - start < 30


def test_criterion_temperature_sampler():
    with gate("temperature sampler: T=1, uniform, T=1e9, high-precision oracle"):
        sizes = {"high": 5_000_000, "med": 1_000_000, "low": 100_000}
        total = sum(sizes.values())
        t1 = temperature_weights(sizes, 1.0)
        for k, n in sizes.items():
            assert t1[k] == pytest.approx(n / total, abs=1e-15)

        uniform = temperature_weights({"a": 3, "b": 3, "c": 3}, 7.0)
        assert all(w == pytest.approx(1 / 3, abs=1e-15) for w in uniform.values())

        flat = temperature_weights(sizes, 1e9)
        assert all(abs(w - 1 / 3) < 1e-6 for w in flat.values())

        with mpmath.workdps(60):
            mp_total = mpmath.mpf(total)
            raw = {
                k: mpmath.power(mpmath.mpf(n) / mp_total, mpmath.mpf(1) / 5)
                for k, n in sizes.items()
            }
            norm = sum(raw.values())
            oracle = {k: float(v / norm) for k, v in raw.items()}
        t5 = temperature_weights(sizes, 5.0)
        for k in sizes:
            assert abs(t5[k] - oracle[k]) < 1e-12


def test_criterion_performance(tmp_path):
    with gate("performance: 100K-row 8-language 56-direction build-ft <60s, <2GB"):
        codes = ["en", "da", "de", "es", "fi", "fr", "it", "nl"]
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for code in codes:
            with open(corpus_dir / f"{code}.txt", "w", encoding="utf-8") as fh:
                for i in range(100_000):
                    fh.write(f"this is sentence {i} in language {code} with words\n")
        start = time.monotonic()
        assert main(
            ["build-ft", "--corpus", str(corpus_dir), "--out", str(tmp_path / "out"),
             "--seed", "0"]
        ) == 0
        elapsed = time.monotonic() - start
        peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        with open(tmp_path / "out" / "records.tsv", encoding="utf-8") as fh:
            n_records = sum(1 for _ in fh)
        assert n_records == 56 * 100_000
        assert elapsed < 60, f"build-ft took {elapsed:.1f}s"
        assert peak_bytes < 2 * 1024**3, f"peak memory {peak_bytes / 1e9:.2f} GB"
