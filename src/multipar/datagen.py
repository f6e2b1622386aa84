"""Fine-tuning bitext construction from a multi-parallel corpus.

Covers direction enumeration and nested sampling, family restriction,
row subsetting, bucketed multi-parallel vs. multi-directional settings,
language-tag serialization, and bitext emission.

A dataset's ``blocks`` are runs ``(direction, sources, targets, positions)``:
record k of a block is ``(sources[positions[k]], targets[positions[k]])``.
``build_pairwise`` puts the corpus columns themselves in its blocks, with a
``range`` of positions when no row is skipped and a compact ``array``
otherwise, shared by a direction and its reverse; the probes give each
block columns of its own.  Records follow block order, and a direction may
recur in later blocks.

A tag strategy is recorded on the dataset by ``apply_tags`` and applied as
records are written or viewed: each block gets one (source, target) prefix
pair, and no prefixed copy of any sentence is made.  Counts are computed
from the blocks, and ``records`` is a per-record view built on request.
``emit_bitext`` checks every cell it will write before it creates anything,
then writes the on-disk formats in chunks of joined lines.

``tag_bitext`` streams an emitted ``tsv`` dataset into a tagged one in
bounded memory: ``read_bitext_tsv`` yields the blocks of one chunk of
``records.tsv`` at a time, read through :mod:`multipar.textio`, and the
blocks go through ``emit_bitext``'s line writer.  A bad record, direction or
byte is named by ``records.tsv:<line>``.

All sampling here draws permutation prefixes from seeded streams, so the
10% direction sample is always a subset of the 20% sample under the same
seed, and likewise for row counts.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field, replace
from itertools import chain, compress, filterfalse, repeat
from operator import ne, not_
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .corpus import MultiParallelCorpus
from .registry import LanguageRegistry
from .rng import stream
from .textio import read_json, read_line_chunks


class DatagenError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class Direction:
    src: str
    tgt: str

    def __post_init__(self):
        if not self.src or not self.tgt:
            raise DatagenError(f"direction with an empty language code {self.src!r}-{self.tgt!r}")
        if _unwritable(self.src) or _unwritable(self.tgt):
            raise DatagenError(
                f"direction with a tab or line break in a language code {self.src!r}-{self.tgt!r}"
            )
        if self.src == self.tgt:
            raise DatagenError(f"direction with identical endpoints {self.src!r}")

    def __str__(self) -> str:
        return f"{self.src}-{self.tgt}"

    def is_english_centric(self, english_code: str = "en") -> bool:
        return english_code in (self.src, self.tgt)


@dataclass(frozen=True)
class DirectionSet:
    directions: tuple[Direction, ...]
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.directions)) != len(self.directions):
            raise DatagenError("duplicate directions")

    def __len__(self) -> int:
        return len(self.directions)

    def __iter__(self):
        return iter(self.directions)


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

    def prefixes(self, d: Direction) -> tuple[str, str]:
        """The (source, target) text put before every record of direction ``d``."""
        if self.kind == "one_tag":
            return TARGET_TAG.format(code=d.tgt) + " ", ""
        if self.kind == "two_tag":
            return SOURCE_TAG.format(code=d.src) + " ", TWO_TAG_TARGET.format(code=d.tgt) + " "
        return "", ""


@dataclass(frozen=True, slots=True)
class BitextRecord:
    direction: Direction
    src_text: str
    tgt_text: str


# (direction, sources, targets, positions): record k is
# (sources[positions[k]], targets[positions[k]]); positions is non-empty
Block = tuple[Direction, Sequence[str], Sequence[str], Sequence[int]]


@dataclass(frozen=True)
class FtDataset:
    """Direction blocks, a manifest, and the tags added to the records.

    ``tags`` is applied when records are emitted or viewed; the manifest's
    ``tag_strategy`` says which tags the emitted text carries.  ``row_ids``
    names the row of each column position when the columns are a corpus's;
    when it is None, a position names itself.
    """

    blocks: tuple[Block, ...]
    manifest: Mapping[str, object] = field(default_factory=dict)
    tags: TagStrategy = TagStrategy("none")
    row_ids: Sequence[int] | None = None

    def __post_init__(self):
        for d, _sources, _targets, positions in self.blocks:
            if not positions:
                raise DatagenError(f"block for {d} has no records")

    def __len__(self) -> int:
        return sum(len(block[3]) for block in self.blocks)

    @property
    def records(self) -> tuple[BitextRecord, ...]:
        """Record view, built on request: one record per aligned sentence pair,
        with the tags applied."""
        records = []
        for d, sources, targets, positions in self.blocks:
            sp, tp = self.tags.prefixes(d)
            records.extend(BitextRecord(d, sp + sources[i], tp + targets[i]) for i in positions)
        return tuple(records)


def build_pairwise(
    corpus: MultiParallelCorpus,
    dirs: DirectionSet,
    row_ids: Sequence[int] | None = None,
) -> FtDataset:
    """One record per (direction, row) where both cells are non-empty.

    Order is direction-major with rows in the given order; rows with a
    missing (empty) side are skipped and counted in the manifest, and a
    direction whose rows are all skipped gets no block.  Blocks hold the
    corpus columns; their positions are a ``range`` when every row is kept,
    else an ``array`` shared by the direction and its reverse.
    """
    columns = corpus.columns
    for d in dirs:
        if d.src not in columns or d.tgt not in columns:
            raise DatagenError(f"direction {d} references a language absent from corpus")
    n = corpus.n_rows
    if row_ids is None:
        row_ids = corpus.row_ids
        rows: Sequence[int] = range(n)
    else:
        index = {rid: i for i, rid in enumerate(corpus.row_ids)}
        try:
            rows = _position_array(map(index.__getitem__, row_ids), n)
        except KeyError as exc:
            raise DatagenError(f"row id {exc.args[0]} not in corpus") from None

    empty: dict[str, set[int]] = {}  # code -> positions of its missing cells
    kept_for_pair: dict[frozenset[str], Sequence[int]] = {}
    blocks: list[Block] = []
    skipped: dict[str, int] = {}
    for d in dirs:
        pair = frozenset((d.src, d.tgt))
        if pair not in kept_for_pair:
            for code in pair:
                if code not in empty:
                    empty[code] = set(compress(range(n), map(not_, columns[code])))
            gaps = empty[d.src] | empty[d.tgt]
            kept = _position_array(filterfalse(gaps.__contains__, rows), n) if gaps else rows
            kept_for_pair[pair] = kept if len(kept) < len(rows) else rows
        kept = kept_for_pair[pair]
        if len(kept) < len(rows):
            skipped[str(d)] = len(rows) - len(kept)
        if kept:
            blocks.append((d, columns[d.src], columns[d.tgt], kept))
    manifest = {
        "corpus_id": corpus.provenance.get("source", "unknown"),
        "directions": [str(d) for d in dirs],
        "direction_provenance": dict(dirs.provenance),
        "rows": list(row_ids),
        "tag_strategy": "none",
        "skipped": skipped,
    }
    return FtDataset(tuple(blocks), manifest, row_ids=corpus.row_ids)


def _position_array(positions: Iterable[int], n_rows: int) -> array:
    """Positions into columns of ``n_rows`` cells, stored without int objects."""
    return array("I" if n_rows <= 2 ** (8 * array("I").itemsize) else "Q", positions)


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
    return replace(dataset, manifest=manifest)


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
    return FtDataset(tuple(blocks), manifest, row_ids=corpus.row_ids)


def apply_tags(dataset: FtDataset, strategy: TagStrategy) -> FtDataset:
    """The dataset with language tags per the strategy, added to each record
    as it is emitted or viewed."""
    manifest = _tagged_manifest(dataset.manifest, strategy)
    if strategy.kind == "none":
        return dataset
    return replace(dataset, manifest=manifest, tags=strategy)


def _tagged_manifest(
    manifest: Mapping[str, object], strategy: TagStrategy
) -> Mapping[str, object]:
    """The manifest of a dataset tagged per the strategy.

    Tagging an already-tagged dataset is an error (detected via the
    manifest), since tags are plain text once emitted.
    """
    if strategy.kind == "none":
        return manifest
    if manifest.get("tag_strategy", "none") != "none":
        raise DatagenError("dataset is already tagged")
    return {**manifest, "tag_strategy": strategy.kind}


# records written per chunk: one joined string per chunk
_CHUNK = 8192


def _unwritable(text: str) -> bool:
    return "\t" in text or "\n" in text or "\r" in text


def _unwritable_cells(column: Sequence[str]) -> dict[int, str]:
    """Position -> text of every cell holding a tab, LF or CR."""
    bad = {}
    for start in range(0, len(column), _CHUNK):
        cells = column[start:start + _CHUNK]
        if _unwritable("".join(cells)):
            bad.update((i, t) for i, t in enumerate(cells, start) if _unwritable(t))
    return bad


def _check_writable(dataset: FtDataset) -> None:
    """Raise on the first block whose records hold a tab, LF or CR, naming
    its direction and row; each column is scanned once.  Tags hold no such
    character, since a ``Direction``'s codes hold none."""
    bad: dict[int, dict[int, str]] = {}  # id(column) -> its unwritable cells
    for d, sources, targets, positions in dataset.blocks:
        for column in (sources, targets):
            if id(column) not in bad:
                bad[id(column)] = _unwritable_cells(column)
            cells = bad[id(column)]
            hit = next(filter(cells.__contains__, positions), None) if cells else None
            if hit is not None:
                row = hit if dataset.row_ids is None else dataset.row_ids[hit]
                raise DatagenError(
                    f"{d} row {row}: embedded tab/newline in record text: {cells[hit]!r}"
                )


def _cells(column: Sequence[str], chunk: Sequence[int]) -> Iterable[str]:
    """The column's cells at the chunk's positions, sliced when consecutive."""
    if isinstance(chunk, range) and chunk.step == 1:
        return column[chunk.start:chunk.stop]
    return map(column.__getitem__, chunk)


def _write_lines(fh, positions: Sequence[int], *layout: str | Sequence[str]) -> None:
    """Write one line per position: the concatenation of ``layout``, where a
    string stands for itself and a column for its cell at that position.
    Each chunk of lines is one joined string."""
    for start in range(0, len(positions), _CHUNK):
        chunk = positions[start:start + _CHUNK]
        parts = [repeat(part) if isinstance(part, str) else _cells(part, chunk)
                 for part in layout if part != ""]
        fh.write("".join(chain.from_iterable(zip(*parts))))


def _write_tsv(fh, blocks: Iterable[Block], tags: TagStrategy) -> dict[str, int]:
    """Write one ``src_lang<TAB>tgt_lang<TAB>src<TAB>tgt`` line per record of
    the blocks, tagged; return the records written per direction."""
    per_direction: dict[str, int] = {}
    for d, sources, targets, positions in blocks:
        sp, tp = tags.prefixes(d)
        _write_lines(fh, positions, f"{d.src}\t{d.tgt}\t{sp}", sources, f"\t{tp}", targets, "\n")
        per_direction[str(d)] = per_direction.get(str(d), 0) + len(positions)
    return per_direction


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)``,
    continued at ``indent``, with each non-empty list of scalars (such as a
    manifest's row ids) encoded by the C encoder, which ``indent`` disables."""
    inner = indent + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        return "{\n" + ",\n".join(
            f"{inner}{json.dumps(k, ensure_ascii=False)}: {_json_text(v, inner)}"
            for k, v in sorted(value.items())
        ) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        if any(issubclass(t, (dict, list, tuple)) for t in set(map(type, value))):
            body = f",\n{inner}".join(_json_text(v, inner) for v in value)
        else:
            body = json.dumps(value, ensure_ascii=False, separators=(f",\n{inner}", ": "))[1:-1]
        return f"[\n{inner}{body}\n{indent}]"
    # a raw newline only ever comes from the indentation
    text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
    return text.replace("\n", "\n" + indent)


def _write_manifest(
    out: Path, manifest: Mapping[str, object], mode: str, per_direction: dict[str, int]
) -> None:
    """Write ``manifest.json``: the manifest with the format and record counts."""
    counts = {"records": sum(per_direction.values()), "per_direction": per_direction}
    text = _json_text({**manifest, "format": mode, "counts": counts})
    (out / "manifest.json").write_text(text + "\n", encoding="utf-8")


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
    _check_writable(dataset)
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if mode == "tsv":
        with open(out / "records.tsv", "w", encoding="utf-8", newline="\n") as fh:
            per_direction = _write_tsv(fh, dataset.blocks, dataset.tags)
    else:
        runs: dict[Direction, list[Block]] = {}
        for block in dataset.blocks:
            runs.setdefault(block[0], []).append(block)
        for d, blocks in runs.items():
            base = out / str(d)
            sp, tp = dataset.tags.prefixes(d)
            with open(f"{base}.src", "w", encoding="utf-8", newline="\n") as sfh, \
                    open(f"{base}.tgt", "w", encoding="utf-8", newline="\n") as tfh:
                for _d, sources, targets, positions in blocks:
                    _write_lines(sfh, positions, sp, sources, "\n")
                    _write_lines(tfh, positions, tp, targets, "\n")
        per_direction = {str(d): sum(len(b[3]) for b in blocks) for d, blocks in runs.items()}
    _write_manifest(out, dataset.manifest, mode, per_direction)


def read_bitext_tsv(directory: str | Path) -> Iterator[Block]:
    """Stream the records of ``records.tsv`` in ``directory`` as blocks.

    Each chunk of lines read gives one block per run of consecutive lines of
    one direction, with columns of its own; a run that goes on past a chunk
    continues in the next block.  A bad record or direction is named by
    ``records.tsv:<line>``, counting skipped blank lines.
    """
    path = Path(directory) / "records.tsv"
    key = direction = None
    lineno = 0  # lines read
    for lines in read_line_chunks(path, DatagenError):
        first, lineno = lineno + 1, lineno + len(lines)
        tabs = list(map(str.count, lines, repeat("\t")))
        numbers: Sequence[int] = range(len(lines))  # index in the chunk of each kept line
        bad = None
        if tabs.count(3) != len(lines):
            # blank lines are skipped; the first other line without 4 fields
            # is an error, raised once the lines before it are read
            bad = next((i for i, n in enumerate(tabs) if n != 3 and lines[i].strip()), None)
            numbers = [i for i in range(len(lines) if bad is None else bad) if tabs[i] == 3]
            lines = [lines[i] for i in numbers]
        if lines:
            fields = "\t".join(lines).split("\t")
            src_langs, tgt_langs, sources, targets = (fields[i::4] for i in range(4))
            n = len(sources)
            if src_langs.count(src_langs[0]) == n and tgt_langs.count(tgt_langs[0]) == n:
                starts = [0]  # one direction, as in most chunks
            else:
                keys = list(zip(src_langs, tgt_langs))
                starts = [0, *compress(range(1, n), map(ne, keys[1:], keys))]
            for start, stop in zip(starts, [*starts[1:], n]):
                if (src_langs[start], tgt_langs[start]) != key:
                    key = (src_langs[start], tgt_langs[start])
                    try:
                        direction = Direction(*key)
                    except DatagenError as exc:
                        raise DatagenError(f"{path}:{first + numbers[start]}: {exc}") from None
                yield direction, sources[start:stop], targets[start:stop], range(stop - start)
        if bad is not None:
            raise DatagenError(f"{path}:{first + bad}: expected 4 fields, got {tabs[bad] + 1}")


def tag_bitext(directory: str | Path, strategy: TagStrategy, path: str | Path) -> None:
    """Write the ``tsv`` dataset in ``directory`` to the existing directory
    ``path`` with the strategy's tags, streaming chunk by chunk in bounded
    memory.  ``path`` must not be ``directory``: ``records.tsv`` is written
    as the input is read.

    ``manifest.json`` in ``directory`` gives the manifest, which is
    ``{"tag_strategy": "none"}`` when the file is absent.
    """
    directory, out = Path(directory), Path(path)
    manifest_path = directory / "manifest.json"
    manifest = {"tag_strategy": "none"}
    if manifest_path.exists():
        manifest = read_json(manifest_path, DatagenError)
    manifest = _tagged_manifest(manifest, strategy)
    with open(out / "records.tsv", "w", encoding="utf-8", newline="\n") as fh:
        per_direction = _write_tsv(fh, read_bitext_tsv(directory), strategy)
    if not per_direction:
        raise DatagenError("refusing to emit an empty dataset")
    _write_manifest(out, manifest, "tsv", per_direction)
