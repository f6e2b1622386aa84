"""Command-line front end: one subcommand per pipeline stage.

Every subcommand is a pure function of its inputs and the seed: reruns are
byte-identical.  ``--threads`` bounds the processes, this one included, that
``build-ft``, ``probe-numbers``, ``probe-words``, ``buckets``, ``tag``,
``score``, ``lid-train``, ``lid-eval`` and ``ontarget`` work in (default: the
CPUs this process may run on); ``mine``, ``mix`` and ``report`` do not take
it.  It never changes the output, nor the error a run exits with.

``main()`` owns ``--out``: a subcommand writes its files into a hidden
staging directory inside it.  On success each staged file is moved to the
same relative path under ``--out`` and a ``run.json`` manifest is written,
with the seed, tool version, and SHA-256 digests of the inputs the
subcommand declares, taken before it runs.  A staged file that would replace
one of those input files is an error, except in ``tag``, which may retag a
dataset in place, and so is a ``manifest.json`` that would replace a corpus
manifest (it lists ``languages``) with a dataset manifest (it has a
``format``) or the reverse.  On any error the staging directory, ``--out``
if the run made it, and each parent made for it that is left empty are
removed, so ``--out`` is left as it was.
Each file is replaced atomically; the directory as a whole is not, so a
failure while moving can leave some files replaced and others not.

A config file (``key = value`` lines, ``#`` comments, each key set once) can
pre-set any optional long flag; command-line flags override it, in any
spelling.  Every text input is read through :mod:`multipar.textio`, so a bad
input, config file included, exits 1 with a message naming ``<file>:<line>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
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
    TAGS,
    DatagenError,
    Direction,
    FtDataset,
    apply_tags,
    build_multidirectional_setting,
    build_multiparallel_setting,
    build_pairwise,
    emit_bitext,
    enumerate_directions,
    json_text,
    partition_buckets,
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
    tag_bitext,
)
from .langid import LidConfig, LidError, LidModel, lid_train, off_target_rate, on_target_subset
from .metrics import CHRF, CHRF_PP, MetricError, ScorePair, bleu, chrf
from .probes import (
    ProbeConfig,
    ProbeError,
    emit_number_pairs,
    load_muse_dictionary,
    match_token_budget,
    pivot_dictionaries,
)
from .registry import LanguageRegistry, ec30
from .report import ScoreMatrix, delta, emit_report
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
        if p is None:
            continue
        p = Path(p)
        if p.is_dir():
            for child in sorted(p.rglob("*")):
                if child.is_file():
                    digests[str(child)] = _sha256(child)
        elif p.is_file():
            digests[str(p)] = _sha256(p)
    return digests


def _write_json(path: Path, obj) -> None:
    """Write ``obj`` as indented, key-sorted, ASCII JSON with a trailing newline."""
    path.write_text(json_text(obj, ensure_ascii=True) + "\n", encoding="utf-8")


def _write_run_manifest(out_dir: Path, args, inputs: dict[str, str]) -> None:
    manifest = {
        "tool": "multipar",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "inputs": inputs,
        "args": {
            k: v for k, v in sorted(vars(args).items())
            # threads is output-invariant by contract, so it is excluded to
            # keep reruns byte-identical across thread counts
            if k not in ("func", "inputs", "config", "json_errors", "threads")
        },
    }
    _write_json(out_dir / "run.json", manifest)


def _manifest_kind(path: Path) -> str | None:
    """``corpus`` for a manifest that lists ``languages``, as a corpus
    manifest must, ``dataset`` for one with a ``format``, else None."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        return None
    if isinstance(manifest, dict):
        if "languages" in manifest:
            return "corpus"
        if "format" in manifest:
            return "dataset"
    return None


def _run_staged(args) -> None:
    """Digest the declared inputs, run the subcommand into a staging directory
    inside ``--out``, then move each staged file to its path under ``--out``
    and write ``run.json``.  A staged file that would replace an input file is
    refused before anything moves, unless the subcommand is ``tag``, which
    rewrites its dataset in place, and so is a staged ``manifest.json`` that
    would replace a corpus manifest with a dataset one or the reverse.  On any
    error, remove the staging directory, ``--out`` if this run made it, and
    each parent made for it that is left empty, and re-raise.  A parent that
    another run has written into meanwhile is kept."""
    import shutil
    import tempfile

    # digested before the run, as --out may be an input directory itself
    inputs = _digest_inputs(getattr(args, name) for name in args.inputs)
    input_files = {Path(p).resolve() for p in inputs}
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=".multipar-staging-", dir=out))
        try:
            args.func(args, staging)
            # a directory sorts before its contents
            staged = [(p, out / p.relative_to(staging)) for p in sorted(staging.rglob("*"))]
            for path, target in staged:
                if not path.is_file():
                    continue
                if args.subcommand != "tag" and target.resolve() in input_files:
                    raise ValueError(f"{target}: refusing to replace an input of this run")
                if path.name == "manifest.json" and target.is_file():
                    old, new = _manifest_kind(target), _manifest_kind(path)
                    if old not in (None, new):
                        raise ValueError(
                            f"{target}: refusing to replace a {old} manifest with a {new} manifest"
                        )
            for path, target in staged:
                if path.is_dir():
                    target.mkdir(exist_ok=True)
                else:
                    os.replace(path, target)
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        _write_run_manifest(out, args, inputs)
    except BaseException:
        if out in made:
            shutil.rmtree(out, ignore_errors=True)
        for path in made:
            try:
                path.rmdir()
            except OSError:
                pass
        raise


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


def _directions(args, codes, registry) -> tuple[Direction, ...]:
    dirs = enumerate_directions(
        codes,
        include_english_centric=not args.no_english_centric,
        excluded_languages=args.exclude,
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
    dirs = _directions(args, corpus.languages, registry)
    row_ids = None if args.rows is None else sample_rows(corpus, args.rows, args.seed)
    dataset = build_pairwise(corpus, dirs, row_ids)
    provenance = {
        "rule": "enumerate",
        "include_english_centric": not args.no_english_centric,
        "exclusions": sorted(set(args.exclude)),
    }
    if args.family:
        provenance.update(family=args.family, include_english=not args.no_english_centric)
    if args.fraction is not None:
        provenance.update(fraction=args.fraction, seed=args.seed)
    dataset = replace(dataset, manifest={**dataset.manifest, "direction_provenance": provenance})
    emit_bitext(apply_tags(dataset, args.tag), args.format, out, args.threads)


def cmd_probe_numbers(args, out: Path) -> None:
    registry = _registry(args)
    codes = args.languages or list(registry.codes)
    dirs = _directions(args, codes, registry)
    config = ProbeConfig(
        digit_min=args.digit_min,
        digit_max=args.digit_max,
        tokens_per_line=args.tokens_per_line,
        seed=args.seed,
    )
    if args.token_budget is not None:
        lines = match_token_budget(args.token_budget, config.tokens_per_line, len(dirs))
    else:
        lines = args.lines
    emit_number_pairs(dirs, lines, config, args.format, out, args.threads)


def cmd_probe_words(args, out: Path) -> None:
    registry = _registry(args)
    dict_dir = Path(args.dictionaries)
    en = registry.english_code
    en_dicts = {}
    for f in sorted(dict_dir.glob(f"{en}-*.txt")):
        code = f.stem.split("-", 1)[1]
        if not code:
            raise ProbeError(f"{f}: dictionary with an empty language code")
        if code == en:
            raise ProbeError(f"{f}: dictionary pair with identical languages")
        en_dicts[code] = load_muse_dictionary(f)
    if len(en_dicts) < 2:
        raise ProbeError(f"need at least two {en}-*.txt dictionaries in {dict_dir}")
    corpus = pivot_dictionaries(en_dicts, args.seed, english_code=en)
    dirs = _directions(args, corpus.languages, registry)
    manifest = {
        "corpus_id": "word_pairs",
        "directions": [str(d) for d in dirs],
        "tag_strategy": "none",
    }
    emit_bitext(FtDataset(build_pairwise(corpus, dirs).blocks, manifest), args.format, out,
                args.threads)


def cmd_buckets(args, out: Path) -> None:
    corpus = load_corpus_dir(args.corpus)
    corpus_codes = args.languages or list(corpus.languages)
    buckets = partition_buckets(corpus.row_ids, args.num_buckets, args.seed)
    mapping = {str(rid): b for b, rows in enumerate(buckets) for rid in rows}
    _write_json(out / "buckets.json", {"num_buckets": len(buckets), "mapping": mapping})
    if args.setting == "multi_parallel":
        dataset = build_multiparallel_setting(
            corpus, buckets, args.bucket, corpus_codes, seed=args.seed
        )
        emit_bitext(dataset, args.format, out / "dataset", args.threads)
    elif args.setting == "multi_directional":
        dataset = build_multidirectional_setting(corpus, buckets, corpus_codes, seed=args.seed)
        emit_bitext(dataset, args.format, out / "dataset", args.threads)


def cmd_tag(args, out: Path) -> None:
    tag_bitext(args.dataset, args.tag, out, args.threads)


def cmd_mix(args, out: Path) -> None:
    weights = temperature_weights(load_table(args.sizes), args.temperature)
    save_weights(weights, out / "weights.tsv")
    if args.schedule_length:
        schedule = sample_schedule(weights, args.schedule_length, args.seed)
        (out / "schedule.txt").write_text(
            "".join(k + "\n" for k in schedule), encoding="utf-8"
        )


def cmd_score(args, out: Path) -> None:
    direction = Direction(args.src_lang, args.tgt_lang)
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
    if args.metric == "bleu":
        value = bleu(pairs, args.threads)
    else:
        value = chrf(pairs, {"chrf": CHRF, "chrfpp": CHRF_PP}[args.metric], args.threads)
    matrix = ScoreMatrix()
    matrix.set(direction, args.metric, value, len(pairs))
    matrix.save_tsv(out / "scores.tsv")


def cmd_lid_train(args, out: Path) -> None:
    # the corpus and the samples are built inside the call, so they are freed
    # before the model is written
    model = lid_train(
        {code: [s for s in column if s]
         for code, column in load_corpus_dir(args.corpus).columns.items()},
        LidConfig(max_order=args.max_order, alpha=args.alpha), args.threads,
    )
    model.save(out / "lid_model.json")


def cmd_lid_eval(args, out: Path) -> None:
    model = LidModel.load(args.model)
    languages = set(model.languages)
    hyps = []
    for lineno, (code, text) in read_records(args.hypotheses, 2, LidError):
        if code not in languages:
            raise LidError(f"{args.hypotheses}:{lineno}: expected code {code!r} absent from model")
        hyps.append((text, code))
    if not hyps:
        raise LidError(f"{args.hypotheses}: no hypotheses")
    report = off_target_rate(hyps, model, args.threads)
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
    for lineno, (direction, row_id, text) in read_records(args.hypotheses, 3, LidError):
        where = f"{args.hypotheses}:{lineno}"
        try:
            rid = int(row_id)
        except ValueError:
            raise LidError(f"{where}: row id {row_id!r} is not an integer") from None
        source, _, target = direction.rpartition("-")
        if target not in languages:
            raise LidError(f"{where}: target {target!r} of {direction!r} absent from model")
        try:
            Direction(source, target)
        except DatagenError as exc:
            raise LidError(f"{where}: {exc}") from None
        rows = per_direction.setdefault(direction, {})
        if rid in rows:
            raise LidError(f"{where}: duplicate row id {rid} in direction {direction!r}")
        rows[rid] = text
    if not per_direction:
        raise LidError(f"{args.hypotheses}: no hypotheses")
    subsets = on_target_subset(per_direction, model, args.threads)
    _write_json(out / "on_target.json", {k: sorted(v) for k, v in subsets.items()})


def cmd_report(args, out: Path) -> None:
    registry = _registry(args)
    matrix = ScoreMatrix.load_tsv(args.scores)
    if args.baseline:
        matrix = delta(matrix, ScoreMatrix.load_tsv(args.baseline))
    emit_report(matrix, args.scheme, registry, args.format, out)


# --- argument parsing ---------------------------------------------------------


def _config_flags(path, options: dict[str, argparse.Action]) -> list[str]:
    """The ``key = value`` entries of a config file as flags of a subcommand
    whose flags, by key, are ``options``; other keys are ignored.  The value
    of a flag that takes a list is split on whitespace, as a shell splits it;
    a flag that takes no value is set by ``1``, ``true`` or ``yes`` and left
    unset by ``0``, ``false`` or ``no``, in any case, and any other value is
    an error.  A key set twice, in any spelling, is an error."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, line in enumerate(read_lines(path, ValueError), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        name = key.strip().replace("-", "_")
        if name in values:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key.strip()!r} (first at line {values[name][0]})"
            )
        values[name] = (lineno, value.strip())
    flags: list[str] = []
    for key, (lineno, raw) in values.items():
        if key not in options:
            continue
        flag = "--" + key.replace("_", "-")
        if options[key].nargs == 0:
            if raw.lower() in ("1", "true", "yes"):
                flags.append(flag)
            elif raw.lower() not in ("0", "false", "no"):
                raise ValueError(
                    f"{path}:{lineno}: {flag} takes 1/true/yes or 0/false/no, got {raw!r}"
                )
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
    p.add_argument("--tag", choices=TAGS, default="none")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_threads(p)
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
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=cmd_probe_numbers, inputs=())

    p = sub.add_parser("probe-words", help="generate the pivoted word-pair probe dataset")
    p.add_argument("--dictionaries", required=True, help="directory of en-<code>.txt MUSE files")
    p.add_argument("--format", choices=["tsv", "split_files"], default="tsv")
    _add_direction_flags(p)
    _add_threads(p)
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
    _add_threads(p)
    _add_common(p)
    p.set_defaults(func=cmd_buckets, inputs=("corpus",))

    p = sub.add_parser("tag", help="apply a language-tag strategy to an emitted dataset")
    p.add_argument("--dataset", required=True, help="directory holding records.tsv")
    p.add_argument("--tag", choices=TAGS, required=True)
    _add_threads(p)
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
