"""Fine-tuning bitext construction from a multi-parallel corpus.

Covers direction enumeration and nested sampling, family restriction,
row subsetting, bucketed multi-parallel vs. multi-directional settings,
language-tag serialization, horizontal expansion, and bitext emission.

A dataset's ``blocks`` are runs ``(direction, sources, targets)`` of aligned
sentence tuples; records follow block order, and a direction may recur in
later blocks.  Counts are computed from the blocks, and ``records`` is a
per-record view built on request.  ``emit_bitext`` writes the on-disk formats
and ``read_bitext_tsv`` reads the ``tsv`` one back through
:mod:`multipar.textio`, naming ``records.tsv:<line>`` for a bad record or
direction.

All sampling here draws permutation prefixes from seeded streams, so the
10% direction sample is always a subset of the 20% sample under the same
seed, and likewise for row counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import MultiParallelCorpus
from .registry import LanguageRegistry
from .rng import stream
from .textio import read_json, read_records


class DatagenError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Direction:
    src: str
    tgt: str

    def __post_init__(self):
        if not self.src or not self.tgt:
            raise DatagenError(f"direction with an empty language code {self.src!r}-{self.tgt!r}")
        if self.src == self.tgt:
            raise DatagenError(f"direction with identical endpoints {self.src!r}")

    def __str__(self) -> str:
        return f"{self.src}-{self.tgt}"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        src, sep, tgt = text.partition("-")
        if not sep:
            raise DatagenError(f"cannot parse direction {text!r}")
        return cls(src, tgt)

    def is_english_centric(self, english_code: str = "en") -> bool:
        return english_code in (self.src, self.tgt)


@dataclass(frozen=True)
class DirectionSet:
    directions: tuple[Direction, ...]
    english_code: str = "en"
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.directions)) != len(self.directions):
            raise DatagenError("duplicate directions")

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)

    def __contains__(self, d: Direction) -> bool:
        return d in set(self.directions)

    def english_centric(self) -> tuple[Direction, ...]:
        return tuple(d for d in self.directions if d.is_english_centric(self.english_code))

    def zero_shot(self) -> tuple[Direction, ...]:
        return tuple(d for d in self.directions if not d.is_english_centric(self.english_code))


def enumerate_directions(
    codes: Sequence[str],
    include_english_centric: bool = True,
    excluded_languages: Iterable[str] = (),
    english_code: str = "en",
) -> DirectionSet:
    """All ordered pairs over ``codes``, minus exclusions, in lexicographic order."""
    excluded = set(excluded_languages)
    kept = [c for c in sorted(set(codes)) if c not in excluded]
    dirs = [
        Direction(a, b)
        for a in kept
        for b in kept
        if a != b
        and (include_english_centric or english_code not in (a, b))
    ]
    if len(kept) < 2 or not dirs:
        raise DatagenError("fewer than 2 usable languages after exclusions")
    return DirectionSet(
        tuple(dirs),
        english_code=english_code,
        provenance={
            "rule": "enumerate",
            "include_english_centric": include_english_centric,
            "exclusions": sorted(excluded),
        },
    )


def sample_directions(dirs: DirectionSet, fraction: float, seed: int) -> DirectionSet:
    """Prefix of a seeded uniform permutation, floor(fraction * |dirs|) long.

    Samples are nested across fractions under the same seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise DatagenError(f"fraction must be in (0, 1], got {fraction}")
    count = int(fraction * len(dirs))
    if count == 0:
        raise DatagenError(f"fraction {fraction} of {len(dirs)} directions selects none")
    perm = stream(seed, "directions").permutation(sorted(dirs.directions))
    return DirectionSet(
        tuple(perm[:count]),
        english_code=dirs.english_code,
        provenance={**dict(dirs.provenance), "fraction": fraction, "seed": seed},
    )


def restrict_directions_to_family(
    dirs: DirectionSet,
    family: str,
    registry: LanguageRegistry,
    include_english: bool = True,
) -> DirectionSet:
    """Directions whose both endpoints belong to the family."""
    members = set(registry.members_of_family(family, include_english=include_english))
    kept = tuple(d for d in dirs if d.src in members and d.tgt in members)
    if not kept:
        raise DatagenError(f"no directions fall within family {family!r}")
    return DirectionSet(
        kept,
        english_code=dirs.english_code,
        provenance={
            **dict(dirs.provenance),
            "family": family,
            "include_english": include_english,
        },
    )


def sample_rows(corpus: MultiParallelCorpus, count: int, seed: int) -> list[int]:
    """``count`` distinct row ids via a seeded permutation prefix (nested)."""
    k = corpus.n_rows
    if not 1 <= count <= k:
        raise DatagenError(f"row count {count} out of range [1, {k}]")
    perm = stream(seed, "rows").permutation(corpus.row_ids)
    return perm[:count]


TARGET_TAG = "<2{code}>"
SOURCE_TAG = "<src:{code}>"
TWO_TAG_TARGET = "<tgt:{code}>"


@dataclass(frozen=True)
class TagStrategy:
    """Language-tag serialization applied to finished datasets.

    ``one_tag`` prepends the target-language tag (``TARGET_TAG``) to the
    source side only; ``two_tag`` prepends the source tag (``SOURCE_TAG``) to
    the source side and the target tag (``TWO_TAG_TARGET``) to the target side.
    """

    kind: str  # "none" | "one_tag" | "two_tag"

    KINDS = ("none", "one_tag", "two_tag")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise DatagenError(f"unknown tag strategy {self.kind!r}")


@dataclass(frozen=True, slots=True)
class BitextRecord:
    direction: Direction
    src_text: str
    tgt_text: str


# (direction, sources, targets): aligned, non-empty tuples of sentences
Block = tuple[Direction, tuple[str, ...], tuple[str, ...]]


@dataclass(frozen=True)
class FtDataset:
    blocks: tuple[Block, ...]
    manifest: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for d, sources, targets in self.blocks:
            if not sources or len(sources) != len(targets):
                raise DatagenError(
                    f"block for {d} has {len(sources)} sources and {len(targets)} targets"
                )

    def __len__(self) -> int:
        return sum(len(sources) for _d, sources, _t in self.blocks)

    @property
    def records(self) -> tuple[BitextRecord, ...]:
        """Record view, built on request: one record per aligned sentence pair."""
        return tuple(
            BitextRecord(d, s, t)
            for d, sources, targets in self.blocks
            for s, t in zip(sources, targets)
        )


def build_pairwise(
    corpus: MultiParallelCorpus,
    dirs: DirectionSet,
    row_ids: Sequence[int] | None = None,
) -> FtDataset:
    """One record per (direction, row) where both cells are non-empty.

    Order is direction-major with rows in the given order; rows with a
    missing (empty) side are skipped and counted in the manifest, and a
    direction whose rows are all skipped gets no block.
    """
    columns = corpus.columns
    for d in dirs:
        if d.src not in columns or d.tgt not in columns:
            raise DatagenError(f"direction {d} references a language absent from corpus")
    if row_ids is None:
        row_ids = list(corpus.row_ids)
    index = {rid: i for i, rid in enumerate(corpus.row_ids)}
    try:
        positions = [index[rid] for rid in row_ids]
    except KeyError as exc:
        raise DatagenError(f"row id {exc.args[0]} not in corpus") from None

    blocks: list[Block] = []
    skipped: dict[str, int] = {}
    for d in dirs:
        src, tgt = columns[d.src], columns[d.tgt]
        kept = [i for i in positions if src[i] and tgt[i]]
        if len(kept) < len(positions):
            skipped[str(d)] = len(positions) - len(kept)
        if kept:
            blocks.append((d, tuple(src[i] for i in kept), tuple(tgt[i] for i in kept)))
    manifest = {
        "corpus_id": corpus.provenance.get("source", "unknown"),
        "directions": [str(d) for d in dirs],
        "direction_provenance": dict(dirs.provenance),
        "rows": list(row_ids),
        "tag_strategy": "none",
        "skipped": skipped,
    }
    return FtDataset(tuple(blocks), manifest)


@dataclass(frozen=True)
class BucketAssignment:
    """Total map row_id -> bucket index; bucket sizes differ by at most one."""

    mapping: Mapping[int, int]
    num_buckets: int

    def __post_init__(self):
        if any(not 0 <= b < self.num_buckets for b in self.mapping.values()):
            raise DatagenError("bucket index out of range")
        sizes = self.sizes()
        if sizes and max(sizes) - min(sizes) > 1:
            raise DatagenError("bucket sizes differ by more than one")

    def bucket_rows(self, bucket: int) -> list[int]:
        if not 0 <= bucket < self.num_buckets:
            raise DatagenError(f"invalid bucket index {bucket}")
        return [rid for rid, b in self.mapping.items() if b == bucket]

    def sizes(self) -> list[int]:
        counts = [0] * self.num_buckets
        for b in self.mapping.values():
            counts[b] += 1
        return counts


def partition_buckets(
    row_ids: Sequence[int], num_buckets: int, seed: int
) -> BucketAssignment:
    """Seeded permutation dealt round-robin into balanced buckets."""
    if not 1 <= num_buckets <= len(row_ids):
        raise DatagenError(
            f"bucket count {num_buckets} out of range [1, {len(row_ids)}]"
        )
    perm = stream(seed, "buckets").permutation(row_ids)
    mapping = {rid: i % num_buckets for i, rid in enumerate(perm)}
    return BucketAssignment(mapping, num_buckets)


def build_multiparallel_setting(
    corpus: MultiParallelCorpus,
    assignment: BucketAssignment,
    chosen_bucket: int,
    codes: Iterable[str],
    seed: int | None = None,
) -> FtDataset:
    """Pairwise data over all directions of ``codes``, from one bucket's rows."""
    codes = sorted(set(codes))
    dirs = enumerate_directions(codes, include_english_centric=True)
    rows = sorted(assignment.bucket_rows(chosen_bucket))
    dataset = build_pairwise(corpus, dirs, rows)
    manifest = {
        **dataset.manifest,
        "setting": "multi_parallel",
        "bucket": chosen_bucket,
        "seed": seed,
    }
    return FtDataset(dataset.blocks, manifest)


def build_multidirectional_setting(
    corpus: MultiParallelCorpus,
    assignment: BucketAssignment,
    pair_for_bucket: Mapping[int, tuple[str, str]],
    seed: int | None = None,
) -> FtDataset:
    """Per bucket, records in exactly the 2 directions of that bucket's pair."""
    if set(pair_for_bucket) != set(range(assignment.num_buckets)):
        missing = set(range(assignment.num_buckets)) - set(pair_for_bucket)
        raise DatagenError(f"buckets without a pair: {sorted(missing)}")
    blocks: list[Block] = []
    skipped: dict[str, int] = {}
    for bucket in range(assignment.num_buckets):
        a, b = pair_for_bucket[bucket]
        if a == b:
            raise DatagenError(f"bucket {bucket} maps to identical languages {a!r}")
        dirs = DirectionSet((Direction(*sorted((a, b))), Direction(*sorted((a, b), reverse=True))))
        rows = sorted(assignment.bucket_rows(bucket))
        part = build_pairwise(corpus, dirs, rows)
        blocks.extend(part.blocks)
        for key, n in part.manifest["skipped"].items():
            skipped[key] = skipped.get(key, 0) + n
    manifest = {
        "corpus_id": corpus.provenance.get("source", "unknown"),
        "setting": "multi_directional",
        "pair_for_bucket": {str(k): list(v) for k, v in pair_for_bucket.items()},
        "tag_strategy": "none",
        "skipped": skipped,
        "seed": seed,
    }
    return FtDataset(tuple(blocks), manifest)


def apply_tags(dataset: FtDataset, strategy: TagStrategy) -> FtDataset:
    """Serialize language tags onto the dataset per the strategy.

    Tagging an already-tagged dataset is an error (detected via the
    manifest), since tags are plain text once applied.
    """
    if dataset.manifest.get("tag_strategy", "none") != "none" and strategy.kind != "none":
        raise DatagenError("dataset is already tagged")
    if strategy.kind == "none":
        return dataset
    blocks = []
    for d, sources, targets in dataset.blocks:
        if strategy.kind == "one_tag":
            sources = _prefixed(TARGET_TAG.format(code=d.tgt), sources)
        else:
            sources = _prefixed(SOURCE_TAG.format(code=d.src), sources)
            targets = _prefixed(TWO_TAG_TARGET.format(code=d.tgt), targets)
        blocks.append((d, sources, targets))
    manifest = {**dataset.manifest, "tag_strategy": strategy.kind}
    return FtDataset(tuple(blocks), manifest)


def _prefixed(tag: str, texts: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(f"{tag} {text}" for text in texts)


def horizontal_expand(
    corpus: MultiParallelCorpus, new_code: str, sentences: Sequence[str]
) -> tuple[MultiParallelCorpus, int]:
    """Add one language column; returns the count of newly covered directions (2N)."""
    if new_code in corpus.columns:
        raise DatagenError(f"language {new_code!r} already present")
    if len(sentences) != corpus.n_rows:
        raise DatagenError(
            f"need {corpus.n_rows} sentences for {new_code!r}, got {len(sentences)}"
        )
    expanded = MultiParallelCorpus(
        columns={**corpus.columns, new_code: tuple(sentences)},
        row_ids=corpus.row_ids,
        provenance={**dict(corpus.provenance), "expanded_with": new_code},
    )
    return expanded, 2 * corpus.n_languages


def _check_emittable(text: str) -> str:
    if "\t" in text or "\n" in text or "\r" in text:
        raise DatagenError(f"embedded tab/newline in record text: {text!r}")
    return text


def emit_bitext(dataset: FtDataset, mode: str, path: str | Path) -> None:
    """Write the dataset to disk, with a manifest JSON alongside.

    ``tsv``: one ``src_lang<TAB>tgt_lang<TAB>src<TAB>tgt`` line per record in
    ``records.tsv``.  ``split_files``: aligned ``<src>-<tgt>.src`` /
    ``<src>-<tgt>.tgt`` pairs per direction.
    """
    if not dataset.blocks:
        raise DatagenError("refusing to emit an empty dataset")
    if mode not in ("tsv", "split_files"):
        raise DatagenError(f"unknown emit mode {mode!r}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    runs: dict[Direction, list[Block]] = {}
    for block in dataset.blocks:
        runs.setdefault(block[0], []).append(block)
    if mode == "tsv":
        with open(out / "records.tsv", "w", encoding="utf-8", newline="\n") as fh:
            for d, sources, targets in dataset.blocks:
                fh.writelines(
                    f"{d.src}\t{d.tgt}\t{_check_emittable(s)}\t{_check_emittable(t)}\n"
                    for s, t in zip(sources, targets)
                )
    else:
        for d, blocks in runs.items():
            base = out / str(d)
            with open(f"{base}.src", "w", encoding="utf-8", newline="\n") as sfh, \
                    open(f"{base}.tgt", "w", encoding="utf-8", newline="\n") as tfh:
                for _d, sources, targets in blocks:
                    sfh.writelines(_check_emittable(s) + "\n" for s in sources)
                    tfh.writelines(_check_emittable(t) + "\n" for t in targets)
    per_direction = {str(d): sum(len(b[1]) for b in blocks) for d, blocks in runs.items()}
    manifest = {
        **dataset.manifest,
        "format": mode,
        "counts": {"records": len(dataset), "per_direction": per_direction},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def read_bitext_tsv(directory: str | Path) -> FtDataset:
    """Read a dataset back from the ``tsv`` emit format.

    ``records.tsv`` gives the records, consecutive lines of one direction
    forming one block; ``manifest.json`` gives the manifest, which is
    ``{"tag_strategy": "none"}`` when the file is absent.
    """
    directory = Path(directory)
    path = directory / "records.tsv"
    runs: list[tuple[Direction, list[str], list[str]]] = []
    key = None
    for lineno, (src_lang, tgt_lang, src, tgt) in read_records(path, 4, DatagenError):
        if (src_lang, tgt_lang) != key:
            key = (src_lang, tgt_lang)
            try:
                direction = Direction(src_lang, tgt_lang)
            except DatagenError as exc:
                raise DatagenError(f"{path}:{lineno}: {exc}") from None
            runs.append((direction, [], []))
        runs[-1][1].append(src)
        runs[-1][2].append(tgt)
    manifest_path = directory / "manifest.json"
    manifest = {"tag_strategy": "none"}
    if manifest_path.exists():
        manifest = read_json(manifest_path, DatagenError)
    return FtDataset(tuple((d, tuple(s), tuple(t)) for d, s, t in runs), manifest)
