"""The benchmark's workloads: the stages each runs through ``multipar.cli.main``
and the output checks that fail a stage.

Each check works from the generator's oracle or from a property the output
must have whatever the implementation, never from a stored copy of an earlier
output; byte-for-byte repeatability is checked separately by digest.  A check
returns the work units its stage completed (0 for a stage that adds none).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# Why each workload exists and which input properties it varies.
WHY = {
    "prep": "The paper's data path at a corpus size where corpus and datagen do "
            "most of the work and memory grows with rows; metrics and langid do none.",
    "eval": "Scoring, where metrics does almost all the work and corpus and "
            "datagen none, plus a grouped report over the 870-direction EC30 grid.",
    "lid": "Training counts n-grams and writes a model that both classify stages "
           "load, over a wide, short corpus: the opposite shape to prep's.",
}
VARIES = {
    "prep": "duplicate and conflicting pivots, whitespace-padded pivots, per-language "
            "gaps, empty cells, variable-length non-ASCII text in 4 scripts",
    "eval": "1-60 words per pair, 7 scripts, 13a-relevant digits, punctuation and "
            "&amp;/&quot; entities, 5% identical pairs, 2% empty hypotheses",
    "lid": "30 languages over 7 scripts with shared letters and shared words, "
           "1-16 word hypotheses, 20% planted off-target (17% other language, 3% empty)",
}
UNITS = {
    "prep": "records written by build-ft, tag and probe-numbers",
    "eval": "pairs scored, summed over chrF, chrF++ and BLEU",
    "lid": "sentences trained plus sentences classified",
}
MIX_TEMPERATURE = "5"
MIX_DRAWS = 100_000
OFF_TARGET_TOLERANCE = 0.05
REPORT_SCHEMES = ("resource_grid", "english_centric", "family:Germanic")


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _lines(path: Path):
    """The file's lines without their newlines, read as a stream."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line in fh:
            _require(line.endswith("\n"), f"{path.name}: no final newline")
            yield line[:-1]


def _count(path: Path) -> int:
    return sum(1 for _ in _lines(path))


def _strict_json(path: Path):
    def reject(token):
        raise CheckError(f"{path.name}: non-finite number {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _score_cell(path: Path, metric: str, count: int) -> float:
    lines = list(_lines(path / "scores.tsv"))
    _require(len(lines) == 2, "scores.tsv: expected one cell")
    _src, _tgt, name, value, n = lines[1].split("\t")
    value = float(value)
    _require(name == metric and int(n) == count, f"scores.tsv: cell {lines[1]!r}")
    _require(math.isfinite(value) and 0.0 <= value <= 100.0, f"score {value} outside [0, 100]")
    return value


@dataclass
class Stage:
    name: str
    argv: list[str]
    out: Path
    inputs: list[Path]
    check: Callable[[Path], int]
    timed: bool = True
    # the stage-time metric this stage's wall time counts towards
    metric: str | None = None
    kind: str = field(init=False)

    def __post_init__(self):
        self.kind = self.argv[0].replace("-", "_")


def _prep(inp: Path, out: Path, oracle: dict, seed: int) -> list[Stage]:
    langs = oracle["languages"]
    dirs = list(itertools.permutations(langs, 2))
    lines_per_direction = max(1, int(oracle["token_budget"] / (10 * len(dirs)) + 0.5))

    def check_mine(d: Path) -> int:
        stats = _strict_json(d / "mining_stats.json")
        _require(stats["yield_rows"] == oracle["yield_rows"], f"mined {stats['yield_rows']} rows")
        dropped = sum(stats["duplicate_pivots_dropped"].values())
        _require(dropped == oracle["pivots_dropped"], f"dropped {dropped} ambiguous pivots")
        for code in langs:
            _require(_count(d / f"{code}.txt") == oracle["yield_rows"], f"{code}.txt length")
        return 0

    def check_build(d: Path) -> int:
        rows = _strict_json(d / "manifest.json")["rows"]
        _require(len(set(rows)) == len(rows) == oracle["rows"], f"sampled {len(rows)} rows")
        sampled = set(rows)
        empty = {c: sampled & set(ids) for c, ids in oracle["empty_rows"].items()}
        expected = sum(
            len(rows) - len(empty.get(a, set()) | empty.get(b, set())) for a, b in dirs
        )
        n = _count(d / "records.tsv")
        _require(n == expected, f"records.tsv has {n} lines, expected {expected}")
        return n

    def check_tag(d: Path) -> int:
        n = 0
        for n, line in enumerate(_lines(d / "records.tsv"), 1):
            src, tgt, s, t = line.split("\t")
            _require(s.startswith(f"<src:{src}> ") and t.startswith(f"<tgt:{tgt}> "), line)
        n_in = _count(out / "build_ft" / "records.tsv")
        _require(n == n_in, f"tag wrote {n} lines from {n_in}")
        return n

    def check_probe(d: Path) -> int:
        n = 0
        for n, line in enumerate(_lines(d / "records.tsv"), 1):
            _src, _tgt, s, t = line.split("\t")
            _require(s == t and len(s.split()) == 10, line)
        expected = lines_per_direction * len(dirs)
        _require(n == expected, f"probe wrote {n} lines, expected {expected}")
        return n

    def check_mix(d: Path) -> int:
        weights = dict(line.split("\t") for line in _lines(d / "weights.tsv"))
        sizes = dict(line.split("\t") for line in _lines(inp / "sizes.tsv"))
        _require(weights.keys() == sizes.keys(), "weights keys differ from sizes")
        values = [float(w) for w in weights.values()]
        _require(all(math.isfinite(w) and w > 0 for w in values), "bad weight")
        _require(abs(math.fsum(values) - 1.0) <= 1e-9, "weights do not sum to 1")
        schedule = list(_lines(d / "schedule.txt"))
        _require(len(schedule) == MIX_DRAWS and set(schedule) <= weights.keys(), "schedule")
        return 0

    return [
        Stage("mine", ["mine", "--bitexts", str(inp / "bitexts"), "--out", str(out / "mine")],
              out / "mine", [inp / "bitexts"], check_mine),
        Stage("build_ft", ["build-ft", "--corpus", str(out / "mine"), "--rows", str(oracle["rows"]),
                           "--seed", str(seed), "--out", str(out / "build_ft")],
              out / "build_ft", [out / "mine"], check_build, metric="build_ft_s"),
        Stage("tag", ["tag", "--dataset", str(out / "build_ft"), "--tag", "two_tag",
                      "--out", str(out / "tag")],
              out / "tag", [out / "build_ft"], check_tag, metric="tag_s"),
        Stage("probe_numbers", ["probe-numbers", "--languages", *langs, "--token-budget",
                                str(oracle["token_budget"]), "--seed", str(seed),
                                "--out", str(out / "probe_numbers")],
              out / "probe_numbers", [], check_probe, metric="probe_numbers_s"),
        Stage("mix", ["mix", "--sizes", str(inp / "sizes.tsv"), "--temperature", MIX_TEMPERATURE,
                      "--schedule-length", str(MIX_DRAWS), "--seed", str(seed),
                      "--out", str(out / "mix")],
              out / "mix", [inp / "sizes.tsv"], check_mix),
    ]


def _eval(inp: Path, out: Path, oracle: dict, seed: int) -> list[Stage]:
    def score(kind: str, hyp: Path, ref: Path, count: int, name: str, timed=True) -> Stage:
        def check(d: Path) -> int:
            value = _score_cell(d, kind, count)
            if not timed:
                _require(abs(value - 100.0) <= 1e-9, f"chrF++ of identical pairs is {value}")
                return 0
            return count

        argv = ["score", "--hypotheses", str(hyp), "--references", str(ref), "--metric", kind,
                "--src-lang", "de", "--tgt-lang", "fr", "--out", str(out / name)]
        return Stage(name, argv, out / name, [hyp, ref], check, timed=timed,
                     metric="score_s" if timed else None)

    def check_report(d: Path) -> int:
        report = _strict_json(d / "report.json")
        _require(len(report["matrix"]["cells"]) == 2 * oracle["directions"], "matrix size")
        for metric, grand in oracle["zero_shot_grand_mean_delta"].items():
            summaries = report["summaries"][metric]
            _require(all(summaries.get(s) is not None for s in REPORT_SCHEMES), f"{metric}: null")
            got = summaries["resource_grid"]["GRAND_MEAN"]
            _require(abs(got - grand) <= 1e-9, f"{metric}: zero-shot mean delta {got} != {grand}")
        return 0

    hyp, ref, ident = inp / "hyp.txt", inp / "ref.txt", inp / "identical.txt"
    pairs = oracle["pairs"]
    return [
        score("chrf", hyp, ref, pairs, "score_chrf"),
        score("chrfpp", hyp, ref, pairs, "score_chrfpp"),
        score("bleu", hyp, ref, pairs, "score_bleu"),
        Stage("report", ["report", "--scores", str(inp / "scores.tsv"), "--baseline",
                         str(inp / "baseline.tsv"), "--scheme", *REPORT_SCHEMES,
                         "--format", "json", "--out", str(out / "report")],
              out / "report", [inp / "scores.tsv", inp / "baseline.tsv"], check_report),
        # an output check, not timed: chrF++ of identical pairs must be 100
        score("chrfpp", ident, ident, oracle["identical_pairs"], "score_identical", timed=False),
    ]


def _lid(inp: Path, out: Path, oracle: dict, seed: int) -> list[Stage]:
    model = out / "lid_train" / "lid_model.json"

    def check_train(d: Path) -> int:
        trained = _strict_json(d / "lid_model.json")
        _require(trained["languages"] == sorted(oracle["languages"]), "model languages")
        return oracle["train_sentences"]

    def check_eval(d: Path) -> int:
        overall = _strict_json(d / "off_target.json")["overall"]
        total, planted = oracle["eval_lines"], oracle["eval_planted_off_target"]
        _require(overall["total"] == total, f"classified {overall['total']} of {total}")
        _require(abs(overall["off_target"] - planted) <= OFF_TARGET_TOLERANCE * total,
                 f"{overall['off_target']} off-target, {planted} planted")
        return total

    def check_ontarget(d: Path) -> int:
        kept = sum(map(len, _strict_json(d / "on_target.json").values()))
        total, planted = oracle["ontarget_lines"], oracle["ontarget_planted_on_target"]
        _require(abs(kept - planted) <= OFF_TARGET_TOLERANCE * total,
                 f"{kept} on-target kept, {planted} planted")
        return total

    return [
        Stage("lid_train", ["lid-train", "--corpus", str(inp / "corpus"),
                            "--out", str(out / "lid_train")],
              out / "lid_train", [inp / "corpus"], check_train, metric="lid_train_s"),
        Stage("lid_eval", ["lid-eval", "--model", str(model), "--hypotheses", str(inp / "hyps.tsv"),
                           "--out", str(out / "lid_eval")],
              out / "lid_eval", [model, inp / "hyps.tsv"], check_eval, metric="lid_eval_s"),
        Stage("ontarget", ["ontarget", "--model", str(model), "--hypotheses",
                           str(inp / "baseline.tsv"), "--out", str(out / "ontarget")],
              out / "ontarget", [model, inp / "baseline.tsv"], check_ontarget, metric="ontarget_s"),
    ]


STAGES = {"prep": _prep, "eval": _eval, "lid": _lid}
