"""Command-line front end: one subcommand per pipeline stage.

Every subcommand is a pure function of its inputs and the seed: reruns are
byte-identical.  ``--threads`` bounds the processes, this one included, that
``score``, ``lid-train``, ``lid-eval`` and ``ontarget`` work in (default: the
CPUs this process may run on); the other subcommands do not take it.  It never changes
the output.

``main()`` owns ``--out``: a subcommand writes its files into a hidden
staging directory inside it.  On success each staged file is moved to the
same relative path under ``--out`` and a ``run.json`` manifest is written,
with the seed, tool version, and SHA-256 digests of the inputs the
subcommand declares.  On any error the staging directory, ``--out`` if the
run made it, and each parent made for it that is left empty are removed, so
``--out`` is left as it was.
Each file is replaced atomically; the directory as a whole is not, so a
failure while moving can leave some files replaced and others not.

A config file (``key = value`` lines, ``#`` comments) can pre-set any long
flag; command-line flags override it, in any spelling.  Every text input is
read through :mod:`multipar.textio`, so a bad input, config file included,
exits 1 with a message naming ``<file>:<line>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
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
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
    tag_bitext,
)
from .langid import LidConfig, LidError, LidModel, lid_train, off_target_rate, on_target_subset
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
from .registry import LanguageRegistry, ec30
from .report import GroupingScheme, ScoreMatrix, delta, emit_report
from .sampling import load_table, sample_schedule, save_weights, temperature_weights
from .textio import read_lines, read_records

# every module's error class subclasses ValueError
_ERRORS = (ValueError, OSError)


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


def _write_run_manifest(out_dir: Path, args) -> None:
    inputs = [getattr(args, name) for name in args.inputs]
    manifest = {
        "tool": "multipar",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "inputs": _digest_inputs(p for p in inputs if p is not None),
        "args": {
            k: v for k, v in sorted(vars(args).items())
            # threads is output-invariant by contract, so it is excluded to
            # keep reruns byte-identical across thread counts
            if k not in ("func", "inputs", "config", "json_errors", "threads")
        },
    }
    _write_json(out_dir / "run.json", manifest, default=str)


def _run_staged(args) -> None:
    """Run the subcommand into a staging directory inside ``--out``, then
    move each staged file to its path under ``--out`` and write ``run.json``.
    On any error, remove the staging directory, ``--out`` if this run made
    it, and each parent made for it that is left empty, and re-raise.  A
    parent that another run has written into meanwhile is kept."""
    import shutil
    import tempfile

    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".multipar-staging-", dir=out))
        try:
            args.func(args, staging)
            # a directory sorts before its contents
            for staged in sorted(staging.rglob("*")):
                target = out / staged.relative_to(staging)
                if staged.is_dir():
                    target.mkdir(exist_ok=True)
                else:
                    os.replace(staged, target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        # after the commit, as an input directory may be --out itself
        _write_run_manifest(out, args)
    except BaseException:
        if out in made:
            shutil.rmtree(out, ignore_errors=True)
        for path in made:
            try:
                path.rmdir()
            except OSError:
                pass
        raise


def _workers(args) -> int:
    return available_cpus() if args.threads is None else args.threads


def _registry(args) -> LanguageRegistry:
    if getattr(args, "registry", None):
        return LanguageRegistry.load(args.registry)
    return ec30()


# --- subcommand implementations ----------------------------------------------


def cmd_mine(args, out: Path) -> None:
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
    save_corpus(corpus, out)
    _write_json(
        out / "mining_stats.json",
        {
            "input_pairs": dict(stats.input_pairs),
            "duplicate_pivots_dropped": dict(stats.duplicate_pivots_dropped),
            "yield_rows": stats.yield_rows,
        },
    )


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


def cmd_build_ft(args, out: Path) -> None:
    registry = _registry(args)
    corpus = load_corpus_dir(args.corpus)
    dirs = _direction_set(args, corpus.languages, registry)
    row_ids = None if args.rows is None else sample_rows(corpus, args.rows, args.seed)
    dataset = build_pairwise(corpus, dirs, row_ids)
    if args.tag != "none":
        dataset = apply_tags(dataset, TagStrategy(kind=args.tag))
    emit_bitext(dataset, args.format, out)


def cmd_probe_numbers(args, out: Path) -> None:
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
    emit_bitext(dataset, args.format, out)


def cmd_probe_words(args, out: Path) -> None:
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
    emit_bitext(dataset, args.format, out)


def cmd_buckets(args, out: Path) -> None:
    corpus = load_corpus_dir(args.corpus)
    corpus_codes = args.languages or list(corpus.languages)
    assignment = partition_buckets(list(corpus.row_ids), args.num_buckets, args.seed)
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


def cmd_tag(args, out: Path) -> None:
    tag_bitext(args.dataset, TagStrategy(kind=args.tag), out)


def cmd_mix(args, out: Path) -> None:
    weights = temperature_weights(load_table(args.sizes), args.temperature)
    save_weights(weights, out / "weights.tsv")
    if args.schedule_length:
        schedule = sample_schedule(weights, args.schedule_length, args.seed)
        (out / "schedule.txt").write_text(
            "".join(k + "\n" for k in schedule), encoding="utf-8"
        )


def cmd_score(args, out: Path) -> None:
    hyps = list(read_lines(args.hypotheses, MetricError))
    refs = list(read_lines(args.references, MetricError))
    if len(hyps) != len(refs):
        raise MetricError(
            f"line-count mismatch: {args.hypotheses}: {len(hyps)}, "
            f"{args.references}: {len(refs)}"
        )
    if not hyps:
        raise MetricError(f"no lines to score in {args.hypotheses} and {args.references}")
    pairs = [ScorePair(h, r) for h, r in zip(hyps, refs)]
    workers = _workers(args)
    if args.metric == "bleu":
        value = bleu(pairs, workers)
    else:
        word_order = 2 if args.metric == "chrfpp" else 0
        value = chrf(pairs, MetricConfig(word_order=word_order), workers)
    matrix = ScoreMatrix()
    matrix.set(Direction(args.src_lang, args.tgt_lang), args.metric, value, len(pairs))
    matrix.save_tsv(out / "scores.tsv")


def cmd_lid_train(args, out: Path) -> None:
    corpus = load_corpus_dir(args.corpus)
    samples = {code: [s for s in column if s] for code, column in corpus.columns.items()}
    model = lid_train(
        samples, LidConfig(max_order=args.max_order, alpha=args.alpha), _workers(args)
    )
    model.save(out / "lid_model.json")


def cmd_lid_eval(args, out: Path) -> None:
    model = LidModel.load(args.model)
    languages = set(model.languages)
    hyps = []
    for lineno, (code, text) in read_records(args.hypotheses, 2, ValueError):
        if code not in languages:
            raise LidError(f"{args.hypotheses}:{lineno}: expected code {code!r} absent from model")
        hyps.append((text, code))
    if not hyps:
        raise LidError(f"{args.hypotheses}: no hypotheses")
    report = off_target_rate(hyps, model, _workers(args))
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


def cmd_ontarget(args, out: Path) -> None:
    model = LidModel.load(args.model)
    languages = set(model.languages)
    per_direction: dict[str, dict[int, str]] = {}
    for lineno, (direction, row_id, text) in read_records(args.hypotheses, 3, ValueError):
        where = f"{args.hypotheses}:{lineno}"
        try:
            rid = int(row_id)
        except ValueError:
            raise ValueError(f"{where}: row id {row_id!r} is not an integer") from None
        target = direction.rpartition("-")[2]
        if target not in languages:
            raise LidError(f"{where}: target {target!r} of {direction!r} absent from model")
        rows = per_direction.setdefault(direction, {})
        if rid in rows:
            raise LidError(f"{where}: duplicate row id {rid} in direction {direction!r}")
        rows[rid] = text
    if not per_direction:
        raise LidError(f"{args.hypotheses}: no hypotheses")
    subsets = on_target_subset(per_direction, model, _workers(args))
    _write_json(out / "on_target.json", {k: sorted(v) for k, v in subsets.items()})


def cmd_report(args, out: Path) -> None:
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
    emit_report(matrix, schemes, registry, args.format, out)


# --- argument parsing ---------------------------------------------------------


def _config_flags(path, options: dict[str, argparse.Action]) -> list[str]:
    """The ``key = value`` entries of a config file as flags of a subcommand
    whose flags, by key, are ``options``; other keys are ignored.  The value
    of a flag that takes a list is split on whitespace, as a shell splits it."""
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
        if key not in options:
            continue
        flag = "--" + key.replace("_", "-")
        if options[key].nargs == 0:
            if raw.lower() in ("1", "true", "yes"):
                flags.append(flag)
        elif options[key].nargs in ("*", "+"):
            flags += [flag, *raw.split()]
        else:
            flags += [flag, raw]
    return flags


def _options(parser: argparse.ArgumentParser, subcommand: str) -> dict[str, argparse.Action]:
    """The subcommand's flags that a config file may set, by key."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: a for a in subparsers.choices[subcommand]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }


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
    p.set_defaults(func=cmd_mine, inputs=("bitexts",))

    p = sub.add_parser("build-ft", help="build pairwise fine-tuning bitext")
    p.add_argument("--corpus", required=True, help="corpus directory")
    p.add_argument("--rows", type=int, help="sample this many rows (default: all)")
    p.add_argument("--tag", choices=TagStrategy.KINDS, default="none")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_build_ft, inputs=("corpus",))

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
    p.set_defaults(func=cmd_probe_numbers, inputs=())

    p = sub.add_parser("probe-words", help="generate the pivoted word-pair probe dataset")
    p.add_argument("--dictionaries", required=True, help="directory of en-<code>.txt MUSE files")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe_words, inputs=("dictionaries",))

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
    p.set_defaults(func=cmd_buckets, inputs=("corpus",))

    p = sub.add_parser("tag", help="apply a language-tag strategy to an emitted dataset")
    p.add_argument("--dataset", required=True, help="directory holding records.tsv")
    p.add_argument("--tag", choices=TagStrategy.KINDS, required=True)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_tag, inputs=("dataset",))

    p = sub.add_parser("mix", help="temperature mixture weights over pair sizes")
    p.add_argument("--sizes", required=True, help="key<TAB>count TSV")
    p.add_argument("--temperature", type=float, required=True)
    p.add_argument("--schedule-length", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_mix, inputs=("sizes",))

    p = sub.add_parser("score", help="score hypotheses against references")
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--metric", choices=["chrf", "chrfpp", "bleu"], required=True)
    p.add_argument("--src-lang", required=True)
    p.add_argument("--tgt-lang", required=True)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_score, inputs=("hypotheses", "references"))

    p = sub.add_parser("lid-train", help="train the character n-gram identifier")
    p.add_argument("--corpus", required=True)
    p.add_argument("--max-order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.1)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_lid_train, inputs=("corpus",))

    p = sub.add_parser("lid-eval", help="off-target rates for code<TAB>text hypotheses")
    p.add_argument("--model", required=True)
    p.add_argument("--hypotheses", required=True)
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_lid_eval, inputs=("model", "hypotheses"))

    p = sub.add_parser("ontarget", help="per-direction on-target row-id subsets")
    p.add_argument("--model", required=True)
    p.add_argument("--hypotheses", required=True, help="direction<TAB>row_id<TAB>text lines")
    _add_threads(p)
    _add_common(p, seed=False)
    p.set_defaults(func=cmd_ontarget, inputs=("model", "hypotheses"))

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
    p.set_defaults(func=cmd_report, inputs=("scores", "baseline"))

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
            flags = _config_flags(args.config, _options(parser, args.subcommand))
            args = parser.parse_args(argv[:1] + flags + argv[1:])
        if getattr(args, "threads", None) is not None and args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        _run_staged(args)
    except _ERRORS as exc:
        if getattr(args, "json_errors", False):
            envelope = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(envelope), file=sys.stderr)
        else:
            print(f"multipar {args.subcommand}: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
