"""Command-line front end: one subcommand per pipeline stage.

Every subcommand is a pure function of its inputs and the seed: reruns are
byte-identical.  ``--threads`` bounds the processes, this one included, that
``score``, ``lid-train``, ``lid-eval`` and ``ontarget`` work in (default: the
CPUs this process may run on); the other subcommands do not take it.  It never changes
the output.  Each output directory receives a ``run.json`` manifest
with the seed, tool version, and SHA-256 digests of all inputs.

A config file (``key = value`` lines, ``#`` comments) can pre-set any long
flag; command-line flags override it, in any spelling.  Every text input is
read through :mod:`multipar.textio`, so a bad input, config file included,
exits 1 with a message naming ``<file>:<line>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    load_bitext_tsv,
    load_corpus_dir,
    mine_pivot_aligned,
    save_corpus,
)
from .datagen import (
    DatagenError,
    Direction,
    TagStrategy,
    apply_tags,
    build_multidirectional_setting,
    build_multiparallel_setting,
    build_pairwise,
    emit_bitext,
    enumerate_directions,
    partition_buckets,
    read_bitext_tsv,
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
)
from .langid import LidConfig, LidModel, lid_train, off_target_rate, on_target_subset
from .metrics import MetricConfig, MetricError, ScorePair, bleu, chrf
from .pool import available_cpus
from .probes import (
    ProbeConfig,
    ProbeError,
    build_word_pair_dataset,
    gen_number_pairs,
    load_muse_dictionary,
    match_token_budget,
    pivot_dictionaries,
)
from .registry import LanguageRegistry, RegistryError, ec30
from .report import (
    GroupingScheme,
    ReportError,
    ScoreMatrix,
    delta,
    emit_report,
)
from .sampling import SamplingError, load_table, sample_schedule, save_weights, temperature_weights
from .textio import read_lines, read_records

_ERRORS = (
    CorpusError,
    DatagenError,
    ProbeError,
    SamplingError,
    MetricError,
    ReportError,
    RegistryError,
    ValueError,
    OSError,
)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _digest_inputs(paths) -> dict[str, str]:
    digests = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    digests[str(child)] = _sha256(child)
        elif p.is_file():
            digests[str(p)] = _sha256(p)
    return digests


def _write_json(path: Path, obj, default=None) -> None:
    """Write ``obj`` as indented, key-sorted JSON with a trailing newline."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False, default=default)
    path.write_text(text + "\n", encoding="utf-8")


def _write_run_manifest(out_dir: Path, args, inputs) -> None:
    manifest = {
        "tool": "multipar",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "inputs": _digest_inputs(inputs),
        "args": {
            k: v for k, v in sorted(vars(args).items())
            # threads is output-invariant by contract, so it is excluded to
            # keep reruns byte-identical across thread counts
            if k not in ("func", "config", "json_errors", "threads") and not callable(v)
        },
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "run.json", manifest, default=str)


def _workers(args) -> int:
    return available_cpus() if args.threads is None else args.threads


def _registry(args) -> LanguageRegistry:
    if getattr(args, "registry", None):
        return LanguageRegistry.load(args.registry)
    return ec30()


# --- subcommand implementations ----------------------------------------------


def cmd_mine(args) -> int:
    bitext_dir = Path(args.bitexts)
    files = sorted(bitext_dir.glob("*.tsv"))
    if not files:
        raise CorpusError(f"no .tsv bitexts in {bitext_dir}")
    bitexts = {f.stem: load_bitext_tsv(f) for f in files}
    registry = _registry(args)
    corpus, stats = mine_pivot_aligned(bitexts, english_code=registry.english_code)
    if not stats.yield_rows:
        names = ", ".join(str(f) for f in files)
        raise CorpusError(f"no English pivot is shared by every bitext ({names})")
    out = Path(args.out)
    save_corpus(corpus, out)
    _write_json(
        out / "mining_stats.json",
        {
            "input_pairs": dict(stats.input_pairs),
            "duplicate_pivots_dropped": dict(stats.duplicate_pivots_dropped),
            "yield_rows": stats.yield_rows,
        },
    )
    _write_run_manifest(out, args, [bitext_dir])
    return 0


def _direction_set(args, codes, registry):
    dirs = enumerate_directions(
        codes,
        include_english_centric=not args.no_english_centric,
        excluded_languages=args.exclude or (),
        english_code=registry.english_code,
    )
    if args.family:
        dirs = restrict_directions_to_family(
            dirs, args.family, registry, include_english=not args.no_english_centric
        )
    if args.fraction is not None:
        dirs = sample_directions(dirs, args.fraction, args.seed)
    return dirs


def cmd_build_ft(args) -> int:
    registry = _registry(args)
    corpus = load_corpus_dir(args.corpus)
    dirs = _direction_set(args, corpus.languages, registry)
    row_ids = None if args.rows is None else sample_rows(corpus, args.rows, args.seed)
    dataset = build_pairwise(corpus, dirs, row_ids)
    if args.tag != "none":
        dataset = apply_tags(dataset, TagStrategy(kind=args.tag))
    out = Path(args.out)
    emit_bitext(dataset, args.format, out)
    _write_run_manifest(out, args, [args.corpus])
    return 0


def cmd_probe_numbers(args) -> int:
    registry = _registry(args)
    codes = args.languages or list(registry.codes)
    dirs = _direction_set(args, codes, registry)
    config = ProbeConfig(
        digit_min=args.digit_min,
        digit_max=args.digit_max,
        tokens_per_line=args.tokens_per_line,
        seed=args.seed,
    )
    if args.token_budget is not None:
        budget = match_token_budget(args.token_budget, config.tokens_per_line, len(dirs))
        lines = budget.lines_per_direction
    else:
        lines = args.lines
    dataset = gen_number_pairs(dirs, lines, config)
    out = Path(args.out)
    emit_bitext(dataset, args.format, out)
    _write_run_manifest(out, args, [])
    return 0


def cmd_probe_words(args) -> int:
    registry = _registry(args)
    dict_dir = Path(args.dictionaries)
    en = registry.english_code
    en_dicts = {}
    for f in sorted(dict_dir.glob(f"{en}-*.txt")):
        code = f.stem.split("-", 1)[1]
        en_dicts[code] = load_muse_dictionary(f)
    if len(en_dicts) < 2:
        raise ProbeError(f"need at least two {en}-*.txt dictionaries in {dict_dir}")
    en_centric, pivoted = pivot_dictionaries(en_dicts, args.seed, english_code=en)
    codes = [en, *sorted(en_dicts)]
    dirs = _direction_set(args, codes, registry)
    dataset = build_word_pair_dataset(
        list(en_centric.values()) + list(pivoted.values()), dirs
    )
    out = Path(args.out)
    emit_bitext(dataset, args.format, out)
    _write_run_manifest(out, args, [dict_dir])
    return 0


def cmd_buckets(args) -> int:
    corpus = load_corpus_dir(args.corpus)
    corpus_codes = args.languages or list(corpus.languages)
    assignment = partition_buckets(list(corpus.row_ids), args.num_buckets, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "buckets.json",
        {
            "num_buckets": assignment.num_buckets,
            "mapping": {str(k): v for k, v in sorted(assignment.mapping.items())},
        },
    )
    if args.setting == "multi_parallel":
        dataset = build_multiparallel_setting(
            corpus, assignment, args.bucket, corpus_codes, seed=args.seed
        )
        emit_bitext(dataset, args.format, out / "dataset")
    elif args.setting == "multi_directional":
        codes = sorted(set(corpus_codes))
        pairs = [(a, b) for i, a in enumerate(codes) for b in codes[i + 1 :]]
        if len(pairs) != assignment.num_buckets:
            raise DatagenError(
                f"{len(codes)} languages give {len(pairs)} pairs, but there are "
                f"{assignment.num_buckets} buckets"
            )
        dataset = build_multidirectional_setting(
            corpus, assignment, dict(enumerate(pairs)), seed=args.seed
        )
        emit_bitext(dataset, args.format, out / "dataset")
    _write_run_manifest(out, args, [args.corpus])
    return 0


def cmd_tag(args) -> int:
    tagged = apply_tags(read_bitext_tsv(args.dataset), TagStrategy(kind=args.tag))
    out = Path(args.out)
    emit_bitext(tagged, "tsv", out)
    _write_run_manifest(out, args, [args.dataset])
    return 0


def cmd_mix(args) -> int:
    weights = temperature_weights(load_table(args.sizes), args.temperature)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_weights(weights, out / "weights.tsv")
    if args.schedule_length:
        schedule = sample_schedule(weights, args.schedule_length, args.seed)
        (out / "schedule.txt").write_text(
            "".join(k + "\n" for k in schedule), encoding="utf-8"
        )
    _write_run_manifest(out, args, [args.sizes])
    return 0


def cmd_score(args) -> int:
    hyps = list(read_lines(args.hypotheses, MetricError))
    refs = list(read_lines(args.references, MetricError))
    if len(hyps) != len(refs):
        raise MetricError(
            f"line-count mismatch: {args.hypotheses}: {len(hyps)}, "
            f"{args.references}: {len(refs)}"
        )
    pairs = [ScorePair(h, r) for h, r in zip(hyps, refs)]
    workers = _workers(args)
    if args.metric == "bleu":
        value = bleu(pairs, MetricConfig(), workers)
    else:
        word_order = 2 if args.metric == "chrfpp" else 0
        value = chrf(pairs, MetricConfig(word_order=word_order), workers)
    matrix = ScoreMatrix()
    matrix.set(Direction(args.src_lang, args.tgt_lang), args.metric, value, len(pairs))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrix.save_tsv(out / "scores.tsv")
    _write_run_manifest(out, args, [args.hypotheses, args.references])
    return 0


def cmd_lid_train(args) -> int:
    corpus = load_corpus_dir(args.corpus)
    samples = {code: [s for s in column if s] for code, column in corpus.columns.items()}
    model = lid_train(
        samples, LidConfig(max_order=args.max_order, alpha=args.alpha), _workers(args)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model.save(out / "lid_model.json")
    _write_run_manifest(out, args, [args.corpus])
    return 0


def cmd_lid_eval(args) -> int:
    model = LidModel.load(args.model)
    hyps = [(text, code) for _, (code, text) in read_records(args.hypotheses, 2, ValueError)]
    report = off_target_rate(hyps, model, _workers(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "off_target.json",
        {
            "per_direction": report.per_direction,
            "overall": {
                "total": report.overall_total,
                "off_target": report.overall_off_target,
                "rate": report.overall_rate,
            },
        },
    )
    _write_run_manifest(out, args, [args.model, args.hypotheses])
    return 0


def cmd_ontarget(args) -> int:
    model = LidModel.load(args.model)
    per_direction: dict[str, list[tuple[int, str]]] = {}
    for lineno, (direction, row_id, text) in read_records(args.hypotheses, 3, ValueError):
        try:
            per_direction.setdefault(direction, []).append((int(row_id), text))
        except ValueError:
            raise ValueError(
                f"{args.hypotheses}:{lineno}: row id {row_id!r} is not an integer"
            ) from None
    subsets = on_target_subset(per_direction, model, _workers(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "on_target.json", {k: sorted(v) for k, v in subsets.items()})
    _write_run_manifest(out, args, [args.model, args.hypotheses])
    return 0


def cmd_report(args) -> int:
    registry = _registry(args)
    matrix = ScoreMatrix.load_tsv(args.scores)
    if args.baseline:
        matrix = delta(matrix, ScoreMatrix.load_tsv(args.baseline))
    schemes = []
    for name in args.scheme:
        if name.startswith("family:"):
            schemes.append(GroupingScheme("family", family=name.split(":", 1)[1]))
        else:
            schemes.append(GroupingScheme(name))
    out = Path(args.out)
    emit_report(matrix, schemes, registry, args.format, out)
    _write_run_manifest(out, args, [args.scores] + ([args.baseline] if args.baseline else []))
    return 0


# --- argument parsing ---------------------------------------------------------


def _config_flags(path, args) -> list[str]:
    """The ``key = value`` entries of a config file as flags for ``args``'s
    subcommand; unknown keys are ignored."""
    values = {}
    for lineno, line in enumerate(read_lines(path, ValueError), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        values[key.strip().replace("-", "_")] = value.strip()
    flags: list[str] = []
    for key, raw in values.items():
        if not hasattr(args, key) or key == "config":
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool):
            if raw.lower() in ("1", "true", "yes"):
                flags.append(flag)
        else:
            flags += [flag, raw]
    return flags


def _add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--registry", help="registry JSON (default: bundled EC30)")
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--json-errors", action="store_true", help="JSON error envelope on stderr")
    if seed:
        p.add_argument("--seed", type=int, default=0, help="master seed")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--threads", type=int,
        help="most processes to work in, this one included; never changes the "
             "output (default: the CPUs this process may run on)",
    )


def _add_direction_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fraction", type=float, help="sample this fraction of directions")
    p.add_argument("--family", help="restrict directions to one language family")
    p.add_argument("--exclude", nargs="*", default=[], help="languages to exclude")
    p.add_argument(
        "--no-english-centric", action="store_true",
        help="drop english-centric directions",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multipar",
        description="Multi-parallel corpus construction and MT evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("mine", help="join English-centric bitexts into a multi-parallel corpus")
    p.add_argument("--bitexts", required=True, help="directory of <code>.tsv en<TAB>xx files")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("build-ft", help="build pairwise fine-tuning bitext")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--rows", type=int, help="sample this many rows (default: all)")
    p.add_argument("--tag", choices=TagStrategy.KINDS, default="none")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_build_ft)

    p = sub.add_parser("probe-numbers", help="generate the number-pair probe dataset")
    p.add_argument("--languages", nargs="*", help="codes (default: registry)")
    p.add_argument("--lines", type=int, default=100, help="lines per direction")
    p.add_argument("--token-budget", type=int, help="match this total token budget instead")
    p.add_argument("--tokens-per-line", type=int, default=10)
    p.add_argument("--digit-min", type=int, default=1)
    p.add_argument("--digit-max", type=int, default=1000)
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe_numbers)

    p = sub.add_parser("probe-words", help="generate the pivoted word-pair probe dataset")
    p.add_argument("--dictionaries", required=True, help="directory of en-<code>.txt MUSE files")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe_words)

    p = sub.add_parser("buckets", help="bucket rows; optionally build a bucketed dataset")
    p.add_argument("--corpus", required=True)
    p.add_argument("--num-buckets", type=int, required=True)
    p.add_argument("--languages", nargs="*", help="codes for the bucketed settings")
    p.add_argument(
        "--setting", choices=["none", "multi_parallel", "multi_directional"],
        default="none",
    )
    p.add_argument("--bucket", type=int, default=0, help="bucket for multi_parallel")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_common(p)
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("tag", help="apply a language-tag strategy to an emitted dataset")
    p.add_argument("--dataset", required=True, help="directory holding records.tsv")
    p.add_argument("--tag", choices=TagStrategy.KINDS, required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("mix", help="temperature mixture weights over pair sizes")
    p.add_argument("--sizes", required=True, help="key<TAB>count TSV")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--schedule-length", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_mix)

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--metric", choices=["chrf", "chrfpp", "bleu"], required=True)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("lid-train", help="train the character n-gram identifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.1)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_lid_train)

    p = sub.add_parser("lid-eval", help="off-target rates for code<TAB>text hypotheses")
    p.add_argument("--model", required=True)
    p.add_argument("--hypotheses", required=True)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_lid_eval)

    p = sub.add_parser("ontarget", help="per-direction on-target row-id subsets")
    p.add_argument("--model", required=True)
    p.add_argument("--hypotheses", required=True, help="direction<TAB>row_id<TAB>text lines")
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_ontarget)

    p = sub.add_parser("report", help="aggregate a score matrix into grouped reports")
    p.add_argument("--scores", required=True, help="score matrix TSV")
    p.add_argument("--baseline", help="baseline matrix TSV; report deltas against it")
    p.add_argument(
        "--scheme", nargs="+",
        default=["resource_grid", "english_centric"],
        help="resource_grid | english_centric | family:<name>",
    )
    p.add_argument("--format", choices=["tsv", "json", "markdown"], default="tsv")
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # config entries become flags right after the subcommand (argv[0];
            # the top-level parser takes no other argument), ahead of the
            # explicit ones: argparse keeps the last value it reads, so a flag
            # in any spelling overrides the config, and config values get the
            # checks flags get
            args = parser.parse_args(argv[:1] + _config_flags(args.config, args) + argv[1:])
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except _ERRORS as exc:
        if getattr(args, "json_errors", False):
            envelope = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(envelope), file=sys.stderr)
        else:
            print(f"multipar {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
