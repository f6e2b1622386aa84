#!/usr/bin/env python3
"""multipar benchmark: seeded workloads run through ``multipar.cli.main()``.

    python3 perfbench/run.py --workload {prep,eval,lid,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, and scratch files go to ``.perfbench_work/`` at the repository
root.  One run is one process: it generates the workload's inputs from the
seed, then repeats the workload's stages, one after another in this process
(a closed loop with one client, ``--threads 1``), for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics: stage times from the untraced passes, everything else
from the traced ones (see ``tracing.py`` and ``METRICS.md``).

Every stage's outputs are checked after every pass, and their digests must
match the run's first pass, traced or not, and every earlier correct run in
this checkout with the same program source, generated inputs and stage
arguments.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, and the full record, stamped with
the machine and inputs, is written to ``.perfbench_work/results/``, one file
per run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import inputs
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = tuple(workloads.STAGES)
SETUP_SAMPLES = 15
MIN_PASSES = 3
LOOP_CAP_S = 100
# how far a stage's root span may fall short of the stage's time taken
# outside the tracer: the cost of entering and leaving the span
BALANCE_SLACK_S = 0.002
BALANCE_SLACK_SHARE = 0.01

END_TO_END = ("wall_s", "items_per_s", "peak_rss_mb", "setup_s")
# Wall time of single stages (score_s sums chrF, chrF++ and BLEU).  They are
# per-layer metrics, without a bound: on the 2-core host they were measured
# on, they spread by up to 0.19 of their median over ten seeds, against 0.05-
# 0.10 for wall_s, and a bounded metric must stay well within 0.25.
STAGE_METRICS = ("build_ft_s", "tag_s", "probe_numbers_s", "score_s",
                 "lid_train_s", "lid_eval_s", "ontarget_s")
CLI_STAGES = ("mine", "build_ft", "tag", "probe_numbers", "mix", "score", "report",
              "lid_train", "lid_eval", "ontarget")
SPAN_METRICS = (
    "corpus.load_bitext_tsv", "corpus.mine_pivot_aligned", "corpus.save_corpus",
    "corpus.load_corpus_dir", "datagen.sample_rows", "datagen.sample_directions",
    "datagen.build_pairwise", "datagen.apply_tags", "datagen.emit_bitext",
    "datagen.read_bitext_tsv", "rng.permutation", "probes.gen_number_pairs",
    "sampling.temperature_weights", "sampling.sample_schedule", "metrics.chrf",
    "metrics.chrfpp", "metrics.bleu", "metrics.tokenize_13a", "metrics.ingest_external_scores",
    "langid.lid_train", "langid.save", "langid.load", "langid.lid_classify",
    "langid.off_target_rate", "langid.on_target_subset", "report.delta",
    "report.emit_report", "registry.ec30",
)
CALL_METRICS = ("rng.stream", "metrics.tokenize_13a", "langid.lid_classify")
COUNT_METRICS = (
    ("corpus.pairs_in", "count"), ("corpus.rows", "count"), ("corpus.pivots_dropped", "count"),
    ("datagen.records", "count"), ("datagen.bytes_emitted", "bytes"),
    ("rng.permutation.items", "count"), ("probes.lines", "count"), ("probes.tokens", "count"),
    ("sampling.draws", "count"), ("metrics.pairs", "count"), ("metrics.chars", "count"),
    ("metrics.tokens", "count"), ("langid.train_chars", "count"),
    ("langid.model_bytes", "bytes"), ("report.cells", "count"),
)
RATIO_METRICS = ("corpus.yield_ratio", "datagen.skip_ratio", "langid.off_target_ratio",
                 "langid.on_target_kept_ratio", "trace.overhead_ratio")
PER_LAYER = (
    [(f"stage.{m}", "s") for m in STAGE_METRICS]
    + [(f"cli.{s}.self_s", "s") for s in CLI_STAGES] + [("cli.digest_bytes", "bytes")]
    + [(f"{n}.s", "s") for n in SPAN_METRICS] + [(f"{n}.calls", "count") for n in CALL_METRICS]
    + list(COUNT_METRICS) + [(n, "ratio") for n in RATIO_METRICS]
)

# A child process that reports when it is ready: multipar.cli imported and
# the bundled registry loaded.  CLOCK_MONOTONIC is shared across processes.
_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import multipar.cli\n"
    "multipar.cli.ec30()\n"
    "print(time.monotonic(), multipar.cli.__file__)\n"
)


def load_program():
    """Import multipar.cli from this checkout's src/, or exit non-zero."""
    if not (SRC / "multipar" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'multipar'}")
    sys.path.insert(0, str(SRC))
    import multipar.cli

    if not Path(multipar.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported {multipar.cli.__file__}, not the checkout's")
    return multipar.cli


def measure_setup() -> list[float]:
    """Seconds from process start to ready, in fresh interpreters; the first,
    which may compile bytecode, is dropped."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        ready, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"set-up child imported {path}")
        samples.append(float(ready) - start)
    return samples[1:]


def digest_tree(path: Path) -> dict[str, str]:
    digests = {}
    for f in sorted(path.rglob("*")):
        if f.is_file():
            with open(f, "rb") as fh:
                digests[str(f.relative_to(path))] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def input_bytes(paths) -> int:
    """Bytes the stage's run.json digests: every file under each input."""
    return sum(
        f.stat().st_size for p in paths for f in (p.rglob("*") if p.is_dir() else [p]) if f.is_file()
    )


def src_sha256() -> str:
    """Digest of the program's source, which names it where git cannot."""
    h = hashlib.sha256()
    for f in sorted((SRC / "multipar").rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(SRC)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def run_key(source: str, inp: Path, stages) -> str:
    """What a run's outputs depend on: program source, generated inputs and
    every stage's arguments."""
    h = hashlib.sha256(source.encode())
    h.update(json.dumps([digest_tree(inp), [st.argv for st in stages]]).encode())
    return h.hexdigest()


def earlier_digests(workload: str, key: str) -> list[dict]:
    """Output digests of every earlier correct run with this run key."""
    found = []
    for path in sorted((WORK / "results").glob(f"{workload}-*.json")):
        record = json.loads(path.read_text())
        if record["correct"] and record["context"]["run_key"] == key:
            found.append(record["digests"])
    return found


def run_pass(cli, stages, out: Path, tracer=None) -> dict:
    """Run every stage once, then check every output."""
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()
    times, errors, digest_bytes, trace_problems = {}, {}, 0, []
    if tracer is not None:
        tracer.reset()
        with tracer.stage_span("setup", "setup"):
            cli.ec30()
    for st in stages:
        if tracer is not None and st.timed:
            digest_bytes += input_bytes(st.inputs)
        start = time.perf_counter()
        try:
            if tracer is not None and st.timed:
                with tracer.stage_span(st.name, f"cli.{st.kind}"):
                    rc = cli.main(st.argv)
            else:
                rc = cli.main(st.argv)
        except (Exception, SystemExit) as exc:
            rc = f"raised {exc!r}"
            traceback.print_exc()
        times[st.name] = time.perf_counter() - start
        if tracer is not None and st.timed:
            root = tracer.root_s(st.name)
            gap = times[st.name] - root
            if tracer.open_spans() or not -1e-6 <= gap <= BALANCE_SLACK_S + BALANCE_SLACK_SHARE * root:
                trace_problems.append(f"{st.name}: traced span {root:.6f} s, stage took "
                                      f"{times[st.name]:.6f} s, {tracer.open_spans()} spans open")
        if rc != 0:
            errors[st.name] = rc if isinstance(rc, str) else f"exit code {rc}"
    units = 0
    for st in stages:
        if st.name in errors:
            continue
        try:
            units += st.check(st.out)
        except Exception as exc:  # a failed check fails the stage, not the run
            errors[st.name] = f"check failed: {exc}"
    return {
        "times": times,
        "wall": sum(times[st.name] for st in stages if st.timed),
        "units": units,
        "errors": errors,
        "digests": {st.name: digest_tree(st.out) for st in stages if st.out.is_dir()},
        "digest_bytes": digest_bytes,
        "trace_problems": trace_problems,
    }


def layer_metrics(tracer, digest_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    c = tracer.counts
    m = {f"cli.{s}.self_s": tracer.self_s(f"cli.{s}") for s in CLI_STAGES}
    m["cli.digest_bytes"] = digest_bytes
    m.update({f"{n}.s": tracer.self_s(n) for n in SPAN_METRICS})
    m.update({f"{n}.calls": tracer.calls(n) for n in CALL_METRICS})
    m.update({name: c[name] for name, _unit in COUNT_METRICS})

    def ratio(a, b):
        return a / b if b else 0.0

    m["corpus.yield_ratio"] = ratio(c["corpus.mined_rows"], c["corpus.first_bitext_pairs"])
    m["datagen.skip_ratio"] = ratio(c["datagen.skipped"], c["datagen.built"] + c["datagen.skipped"])
    m["langid.off_target_ratio"] = ratio(c["langid.off_target"], c["langid.classified"])
    m["langid.on_target_kept_ratio"] = ratio(c["langid.on_target_kept"], c["langid.on_target_in"])
    return m


def stamp(args, inp: Path, oracle: dict, samples: dict, source: str, key: str) -> dict:
    commit = None  # a checkout without git history has none; src_sha256 names the source
    try:
        lines = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
        if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": source,
        "run_key": key,
        "input_bytes": {
            str(f.relative_to(inp)): f.stat().st_size for f in sorted(inp.rglob("*")) if f.is_file()
        },
        "oracle": {k: v for k, v in oracle.items() if k != "empty_rows"},
        "samples": samples,
    }


def run_workload(args) -> int:
    cli = load_program()
    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    inp, out = base / "inputs", base / "out"
    oracle = inputs.generate(args.workload, args.seed, inp, cli.ec30())
    stages = workloads.STAGES[args.workload](inp, out, oracle, args.seed)
    source = src_sha256()
    key = run_key(source, inp, stages)

    setup = measure_setup() if not args.trace else []
    tracer = Tracer() if args.trace else None
    passes = []  # (traced, result, layer metrics)
    problems: list[str] = []
    unwrapped: set[str] = set()
    lazy: set[str] = set()
    durations: list[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            unwrapped.update(tracer.install())
            try:
                result = run_pass(cli, stages, out, tracer)
            finally:
                tracer.uninstall()
            layer = layer_metrics(tracer, result["digest_bytes"])
            problems += result["trace_problems"]
            lazy |= tracer.lazy
        else:
            result, layer = run_pass(cli, stages, out), None
        passes.append((traced, result, layer))
        durations.append(time.monotonic() - began)
        # stop before a pass that would end past --seconds, once there are
        # enough passes for medians, or at all past LOOP_CAP_S, so that a
        # much slower program still ends within the run's time limit
        ends = time.monotonic() - start + statistics.median(durations)
        wanted, least = (4, 2) if args.trace else (MIN_PASSES, 1)
        if ends > args.seconds and (
            len(passes) >= wanted or (ends > LOOP_CAP_S and len(passes) >= least)
        ):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # every pass must write the bytes of the first, and the first those of
    # every earlier correct run in this checkout with the same run key
    reference = passes[0][1]["digests"]
    earlier = earlier_digests(args.workload, key)
    attempted = failed = 0
    for i, (traced, result, _layer) in enumerate(passes):
        for st in stages:
            attempted += 1
            error = result["errors"].get(st.name)
            if error is None and result["digests"].get(st.name) != reference.get(st.name):
                error = f"outputs differ from pass 0 ({'traced' if traced else 'untraced'})"
            if error is None and any(d.get(st.name) != reference.get(st.name) for d in earlier):
                error = "outputs differ from an earlier run with these inputs"
            if error is not None:
                failed += 1
                problems.append(f"pass {i} {st.name}: {error}")

    plain = [r for traced, r, _ in passes if not traced]
    wall = statistics.median(r["wall"] for r in plain)
    stage_s = {
        m: statistics.median(sum(r["times"][st.name] for st in stages if st.metric == m) for r in plain)
        for m in STAGE_METRICS
    }
    named: dict[str, tuple[float, str]] = {}
    if args.trace:
        traced_runs = [(r, layer) for traced, r, layer in passes if traced]
        named.update({f"stage.{m}": (v, "s") for m, v in stage_s.items()})
        for name, unit in PER_LAYER:
            if name not in named and name != "trace.overhead_ratio":
                named[name] = (statistics.median(layer[name] for _r, layer in traced_runs), unit)
        traced_wall = statistics.median(r["wall"] for r, _layer in traced_runs)
        named["trace.overhead_ratio"] = (traced_wall / wall, "ratio")
        metrics = named
    else:
        named["wall_s"] = (wall, "s")
        named["items_per_s"] = (statistics.median(r["units"] / r["wall"] for r in plain), "1/s")
        named["peak_rss_mb"] = (peak_rss_mb, "MB")
        named["setup_s"] = (statistics.median(setup), "s")
        named["ops_failed_ratio"] = (failed / attempted, "ratio")
        named.update({m: (stage_s[m], "s") for m in dict.fromkeys(st.metric for st in stages) if m})
        metrics = {name: named[name] for name in END_TO_END}

    samples = {
        "passes_untraced": len(plain),
        "passes_traced": len(passes) - len(plain),
        "setup_samples": len(setup),
        "units": workloads.UNITS[args.workload],
        "units_per_pass": plain[0]["units"],
    }
    record = {
        "context": stamp(args, inp, oracle, samples, source, key),
        "digests": reference,
        "why": workloads.WHY[args.workload],
        "varies": workloads.VARIES[args.workload],
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "per_pass": [
            {"traced": traced, "wall_s": r["wall"], "stage_s": r["times"]}
            for traced, r, _layer in passes
        ],
    }
    if args.trace:
        record["unwrapped"] = sorted(unwrapped)
        record["lazy"] = sorted(lazy)
        # the last traced pass: per-stage self time by layer, and its spans
        record["layer_self_s_by_stage"] = tracer.layer_self_s()
        record["spans"] = [
            dict(zip(("id", "name", "start_ns", "end_ns", "parent", "stage", "self_ns"), span))
            for span in tracer.spans
        ]
        record["hot_calls"] = [
            {"stage": stage, "name": name, "calls": calls, "total_ns": total, "self_ns": own}
            for (stage, name), (calls, total, own) in tracer.hot.items()
        ]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(base, ignore_errors=True)

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for fn in sorted(unwrapped):
        print(f"note: multipar has no {fn}; its per-layer metrics read 0", file=sys.stderr)
    for fn in sorted(lazy):
        print(f"note: {fn} returns a generator; its work counts in the span that consumes it",
              file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} nproc={os.cpu_count()} "
          f"python={platform.python_version()} passes={len(plain)}+{len(passes) - len(plain)}"
          f" units/pass={plain[0]['units']} ({workloads.UNITS[args.workload]})")
    for key, (value, unit) in named.items():
        print(f"{args.workload:5} {key:34} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    combined, status = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        combined[workload] = json.loads(lines[-1]) if lines else None
        status = status or proc.returncode
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
