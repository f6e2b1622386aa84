"""Fine-tuning bitext construction from a multi-parallel corpus.

Covers direction enumeration and nested sampling, family restriction,
row subsetting, bucketed multi-parallel vs. multi-directional settings,
language-tag serialization, and bitext emission.

A set of directions is a plain tuple of ``Direction``: enumerating,
restricting to a family and sampling each take and return one, and
``build_pairwise`` takes any sequence.  A dataset's manifest lists its
``directions``; how they were chosen is the caller's to record.

A dataset's ``blocks`` are runs ``(direction, sources, targets, positions)``:
record k of a block is ``(sources[positions[k]], targets[positions[k]])``.
``build_pairwise`` puts the corpus columns themselves in its blocks, with a
``range`` of positions when no row is skipped and a compact ``array``
otherwise, shared by a direction and its reverse; the probes give each
block columns of its own.  Records follow block order, and a direction may
recur in later blocks.  Which rows a direction skips comes from the
corpus's ``position`` and ``gaps`` indexes, built once per corpus.

``partition_buckets`` gives each bucket's sorted row ids, slices of one
seeded permutation; the two bucketed settings take that list.  The
multi-parallel setting builds every direction of the codes from one bucket;
the multi-directional one gives each bucket one pair of the codes.

A tag strategy is a name in ``TAGS`` (``none``, ``one_tag``, ``two_tag``).
``apply_tags`` records it as the manifest's ``tag_strategy``, and the tags
are added as records are written or viewed: each block gets one (source,
target) prefix pair, and no prefixed copy of any sentence is made.  Counts
are computed from the blocks, and ``records`` is a per-record view built on
request.
``emit_bitext`` checks every cell it will write before it creates anything,
then writes the on-disk formats in chunks of joined lines.

A dataset is written in slices: ``write_dataset`` cuts its work into
contiguous slices that up to ``workers`` processes of :mod:`multipar.pool`
write.  In ``tsv`` each slice's lines go to a hidden part file of its own
beside ``records.tsv``, and the parent joins the parts in slice order and
sums the per-direction counts for ``manifest.json``; in ``split_files`` each
slice writes whole direction files.  ``emit_bitext`` slices records across
blocks, or directions in ``split_files``; the number probes slice directions.

``tag_bitext`` streams an emitted ``tsv`` dataset into a tagged one in
bounded memory, in slices that are byte windows of ``records.tsv``, each cut
just after an LF.  ``read_bitext_tsv`` yields the blocks of one chunk of a
window at a time, read through :mod:`multipar.textio`, and the blocks go
through ``emit_bitext``'s line writer.  A bad record, direction or byte is
named by ``records.tsv:<line>``: a window counts the lines before it only
when it names one, and the first bad line is named at any window count.

All sampling here draws permutation prefixes from seeded streams, so the
10% direction sample is always a subset of the 20% sample under the same
seed, and likewise for row counts.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, combinations, compress, filterfalse, repeat
from operator import ne
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .corpus import MultiParallelCorpus
from .pool import map_slices
from .registry import LanguageRegistry
from .rng import stream
from .textio import lines_before, read_json, read_line_chunks


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


def enumerate_directions(
    codes: Iterable[str],
    include_english_centric: bool = True,
    excluded_languages: Iterable[str] = (),
    english_code: str = "en",
) -> tuple[Direction, ...]:
    """All ordered pairs over ``codes``, minus exclusions, in lexicographic
    order.  Excluding a language that is not among the codes is an error."""
    codes = sorted(set(codes))
    excluded = set(excluded_languages)
    unknown = sorted(excluded.difference(codes))
    if unknown:
        raise DatagenError(f"excluded languages not among the codes: {', '.join(unknown)}")
    kept = [c for c in codes if c not in excluded]
    dirs = tuple(
        Direction(a, b)
        for a in kept
        for b in kept
        if a != b
        and (include_english_centric or english_code not in (a, b))
    )
    if not dirs:
        raise DatagenError("fewer than 2 usable languages after exclusions")
    return dirs


def sample_directions(
    dirs: tuple[Direction, ...], fraction: float, seed: int
) -> tuple[Direction, ...]:
    """Prefix of a seeded uniform permutation, floor(fraction * |dirs|) long,
    taking the fraction as the decimal it prints as, so 0.57 of 100 is 57.

    Samples are nested across fractions under the same seed.
    """
    if not 0.0 < fraction <= 1.0:
        raise DatagenError(f"fraction must be in (0, 1], got {fraction}")
    count = int(Fraction(str(fraction)) * len(dirs))
    if count == 0:
        raise DatagenError(f"fraction {fraction} of {len(dirs)} directions selects none")
    return tuple(stream(seed, "directions").permutation(sorted(dirs))[:count])


def restrict_directions_to_family(
    dirs: tuple[Direction, ...],
    family: str,
    registry: LanguageRegistry,
    include_english: bool = True,
) -> tuple[Direction, ...]:
    """Directions whose both endpoints belong to the family."""
    members = set(registry.members_of_family(family, include_english=include_english))
    kept = tuple(d for d in dirs if d.src in members and d.tgt in members)
    if not kept:
        raise DatagenError(f"no directions fall within family {family!r}")
    return kept


def sample_rows(corpus: MultiParallelCorpus, count: int, seed: int) -> list[int]:
    """``count`` distinct row ids via a seeded permutation prefix (nested)."""
    k = corpus.n_rows
    if not 1 <= count <= k:
        raise DatagenError(f"row count {count} out of range [1, {k}]")
    perm = stream(seed, "rows").permutation(corpus.row_ids)
    return perm[:count]


# tag strategy -> (source, target) prefix templates: one_tag puts the target
# tag before the source side only, two_tag puts the source tag before the
# source side and the target tag before the target side
TAGS = {
    "none": ("", ""),
    "one_tag": ("<2{tgt}> ", ""),
    "two_tag": ("<src:{src}> ", "<tgt:{tgt}> "),
}


def _templates(tag: str) -> tuple[str, str]:
    if tag not in TAGS:
        raise DatagenError(f"unknown tag strategy {tag!r}")
    return TAGS[tag]


def _prefixes(templates: tuple[str, str], d: Direction) -> tuple[str, str]:
    """The (source, target) text put before every record of direction ``d``."""
    return templates[0].format(src=d.src, tgt=d.tgt), templates[1].format(src=d.src, tgt=d.tgt)


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
    """Direction blocks of untagged text and a manifest.

    The manifest's ``tag_strategy`` (``"none"`` when absent) names the tags
    added to the records when they are emitted or viewed.  ``row_ids``
    names the row of each column position when the columns are a corpus's;
    when it is None, a position names itself.
    """

    blocks: tuple[Block, ...]
    manifest: Mapping[str, object] = field(default_factory=dict)
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
        templates = _templates(self.manifest.get("tag_strategy", "none"))
        records = []
        for d, sources, targets, positions in self.blocks:
            sp, tp = _prefixes(templates, d)
            records.extend(BitextRecord(d, sp + sources[i], tp + targets[i]) for i in positions)
        return tuple(records)


def build_pairwise(
    corpus: MultiParallelCorpus,
    dirs: Sequence[Direction],
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
        try:
            rows = _position_array(map(corpus.position.__getitem__, row_ids), n)
        except KeyError as exc:
            raise DatagenError(f"row id {exc.args[0]} not in corpus") from None

    gaps = corpus.gaps
    kept_for_pair: dict[frozenset[str], Sequence[int]] = {}
    blocks: list[Block] = []
    skipped: dict[str, int] = {}
    for d in dirs:
        pair = frozenset((d.src, d.tgt))
        if pair not in kept_for_pair:
            drop = gaps[d.src] | gaps[d.tgt]
            kept = _position_array(filterfalse(drop.__contains__, rows), n) if drop else rows
            kept_for_pair[pair] = kept if len(kept) < len(rows) else rows
        kept = kept_for_pair[pair]
        if len(kept) < len(rows):
            skipped[str(d)] = len(rows) - len(kept)
        if kept:
            blocks.append((d, columns[d.src], columns[d.tgt], kept))
    manifest = {
        "corpus_id": corpus.provenance.get("source", "unknown"),
        "directions": [str(d) for d in dirs],
        "rows": list(row_ids),
        "tag_strategy": "none",
        "skipped": skipped,
    }
    return FtDataset(tuple(blocks), manifest, row_ids=corpus.row_ids)


def _position_array(positions: Iterable[int], n_rows: int) -> array:
    """Positions into columns of ``n_rows`` cells, stored without int objects."""
    return array("I" if n_rows <= 2 ** (8 * array("I").itemsize) else "Q", positions)


def partition_buckets(row_ids: Sequence[int], num_buckets: int, seed: int) -> list[list[int]]:
    """Each bucket's sorted row ids: bucket b deals every ``num_buckets``-th
    row of a seeded permutation from position b, so sizes differ by at most one."""
    if not 1 <= num_buckets <= len(row_ids):
        raise DatagenError(
            f"bucket count {num_buckets} out of range [1, {len(row_ids)}]"
        )
    perm = stream(seed, "buckets").permutation(row_ids)
    return [sorted(perm[b::num_buckets]) for b in range(num_buckets)]


def build_multiparallel_setting(
    corpus: MultiParallelCorpus,
    buckets: Sequence[Sequence[int]],
    chosen_bucket: int,
    codes: Iterable[str],
    seed: int | None = None,
) -> FtDataset:
    """Pairwise data over all directions of ``codes``, from one bucket's rows."""
    dirs = enumerate_directions(codes)
    if not 0 <= chosen_bucket < len(buckets):
        raise DatagenError(f"invalid bucket index {chosen_bucket}")
    dataset = build_pairwise(corpus, dirs, buckets[chosen_bucket])
    manifest = {
        **dataset.manifest,
        "direction_provenance": {
            "rule": "enumerate", "include_english_centric": True, "exclusions": [],
        },
        "setting": "multi_parallel",
        "bucket": chosen_bucket,
        "seed": seed,
    }
    return replace(dataset, manifest=manifest)


def build_multidirectional_setting(
    corpus: MultiParallelCorpus,
    buckets: Sequence[Sequence[int]],
    codes: Iterable[str],
    seed: int | None = None,
) -> FtDataset:
    """Per bucket, records in exactly the 2 directions of one language pair:
    bucket b takes the b-th pair of the sorted codes, in ``combinations``
    order, so there must be as many pairs as buckets."""
    codes = sorted(set(codes))
    pairs = list(combinations(codes, 2))
    if len(pairs) != len(buckets):
        raise DatagenError(
            f"{len(codes)} languages give {len(pairs)} pairs, but there are "
            f"{len(buckets)} buckets"
        )
    blocks: list[Block] = []
    skipped: dict[str, int] = {}
    for rows, (a, b) in zip(buckets, pairs):
        part = build_pairwise(corpus, (Direction(a, b), Direction(b, a)), rows)
        blocks.extend(part.blocks)
        for key, n in part.manifest["skipped"].items():
            skipped[key] = skipped.get(key, 0) + n
    manifest = {
        "corpus_id": corpus.provenance.get("source", "unknown"),
        "setting": "multi_directional",
        "pair_for_bucket": {str(k): list(pair) for k, pair in enumerate(pairs)},
        "tag_strategy": "none",
        "skipped": skipped,
        "seed": seed,
    }
    return FtDataset(tuple(blocks), manifest, row_ids=corpus.row_ids)


def apply_tags(dataset: FtDataset, tag: str) -> FtDataset:
    """The dataset with the manifest's ``tag_strategy`` set to ``tag``, whose
    tags are added to each record as it is emitted or viewed."""
    manifest = _tagged_manifest(dataset.manifest, tag)
    return dataset if tag == "none" else replace(dataset, manifest=manifest)


def _tagged_manifest(manifest: Mapping[str, object], tag: str) -> Mapping[str, object]:
    """The manifest of a dataset tagged with ``tag``.

    Tagging an already-tagged dataset is an error (detected via the
    manifest), since tags are plain text once emitted.
    """
    _templates(tag)
    if tag == "none":
        return manifest
    if manifest.get("tag_strategy", "none") != "none":
        raise DatagenError("dataset is already tagged")
    return {**manifest, "tag_strategy": tag}


# records written per chunk: one joined string per chunk
_CHUNK = 8192
# what a worker process must write to pay for itself, timed on 2 cores over
# prep bench data (11 runs per size, alternating 1 and 2 workers): two workers
# emitted records faster than one process in 10 and 11 runs from 32K and 65K
# records, and in at most 1 from 4K to 16K; they tagged faster in 11 and 10
# runs from 3 and 4 MB of records.tsv, in 6 and 10 over two sets at 2 MB, and
# in 9 and 0 at 1 MB
MIN_RECORDS_PER_WORKER = 16384
MIN_BYTES_PER_WORKER = 3 << 19


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


def _write_tsv(fh, blocks: Iterable[Block], templates: tuple[str, str]) -> dict[str, int]:
    """Write one ``src_lang<TAB>tgt_lang<TAB>src<TAB>tgt`` line per record of
    the blocks, tagged; return the records written per direction."""
    per_direction: dict[str, int] = {}
    for d, sources, targets, positions in blocks:
        sp, tp = _prefixes(templates, d)
        _write_lines(fh, positions, f"{d.src}\t{d.tgt}\t{sp}", sources, f"\t{tp}", targets, "\n")
        per_direction[str(d)] = per_direction.get(str(d), 0) + len(positions)
    return per_direction


def _scalars(values) -> bool:
    return not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def json_text(value, indent: str = "", ensure_ascii: bool = False) -> str:
    """``json.dumps(value, indent=2, sort_keys=True, ensure_ascii=ensure_ascii,
    allow_nan=False)``, continued at ``indent``, with each non-empty list of
    scalars (such as a manifest's row ids) and each non-empty dict of scalars
    with string keys (such as ``buckets.json``'s mapping) encoded by the C
    encoder, which ``indent`` disables."""
    inner = indent + "  "
    if isinstance(value, dict) and value and all(isinstance(k, str) for k in value):
        if _scalars(value.values()):
            body = json.dumps(value, ensure_ascii=ensure_ascii, allow_nan=False, sort_keys=True,
                              separators=(f",\n{inner}", ": "))[1:-1]
        else:
            body = f",\n{inner}".join(
                f"{json.dumps(k, ensure_ascii=ensure_ascii)}: {json_text(v, inner, ensure_ascii)}"
                for k, v in sorted(value.items())
            )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        if _scalars(value):
            body = json.dumps(value, ensure_ascii=ensure_ascii, allow_nan=False,
                              separators=(f",\n{inner}", ": "))[1:-1]
        else:
            body = f",\n{inner}".join(json_text(v, inner, ensure_ascii) for v in value)
        return f"[\n{inner}{body}\n{indent}]"
    # a raw newline only ever comes from the indentation
    text = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=ensure_ascii, allow_nan=False)
    return text.replace("\n", "\n" + indent)


def _write_manifest(
    out: Path, manifest: Mapping[str, object], mode: str, per_direction: dict[str, int]
) -> None:
    """Write ``manifest.json``: the manifest with the format and record counts."""
    counts = {"records": sum(per_direction.values()), "per_direction": per_direction}
    text = json_text({**manifest, "format": mode, "counts": counts})
    (out / "manifest.json").write_text(text + "\n", encoding="utf-8")


def write_dataset(
    manifest: Mapping[str, object], mode: str, path: Path, n: int,
    blocks_of: Callable[[int, int], Iterable[Block]], workers: int | None, min_per_worker: int,
) -> None:
    """Write the records of ``blocks_of(0, n)``, tagged as the manifest's
    ``tag_strategy`` names, then ``manifest.json``, into the directory
    ``path``, made if missing, over contiguous slices of ``range(n)`` mapped by up
    to ``workers`` processes of :mod:`multipar.pool`.

    ``tsv``: each slice writes its lines to a part file of its own in a
    hidden directory beside ``records.tsv``; the parts are joined in slice
    order, the first renamed and the rest appended, and the directory is
    removed whether or not a slice faults.  ``split_files``: each slice
    writes whole ``<src>-<tgt>.src`` / ``.tgt`` pairs, so the blocks of a
    direction must all come from one slice.
    """
    if mode not in ("tsv", "split_files"):
        raise DatagenError(f"unknown emit mode {mode!r}")
    templates = _templates(manifest.get("tag_strategy", "none"))
    path.mkdir(parents=True, exist_ok=True)
    error = DatagenError("a dataset-writing worker process died before reporting its records")
    if mode == "tsv":
        import shutil

        parts = path / ".records.tsv.parts"
        parts.mkdir(exist_ok=True)

        def write(start: int, stop: int) -> tuple[Path, dict[str, int]]:
            part = parts / str(start)
            with open(part, "w", encoding="utf-8", newline="\n") as fh:
                return part, _write_tsv(fh, blocks_of(start, stop), templates)

        try:
            slices = map_slices(write, n, workers, min_per_worker, error)
            records = path / "records.tsv"
            slices[0][0].replace(records)
            with open(records, "ab") as out:
                for part, _counts in slices[1:]:
                    with open(part, "rb") as fh:
                        shutil.copyfileobj(fh, out)
        finally:
            shutil.rmtree(parts, ignore_errors=True)
        counts = [c for _part, c in slices]
    else:
        def write(start: int, stop: int) -> dict[str, int]:
            runs: dict[Direction, list[Block]] = {}
            for block in blocks_of(start, stop):
                runs.setdefault(block[0], []).append(block)
            for d, blocks in runs.items():
                base = path / str(d)
                sp, tp = _prefixes(templates, d)
                with open(f"{base}.src", "w", encoding="utf-8", newline="\n") as sfh, \
                        open(f"{base}.tgt", "w", encoding="utf-8", newline="\n") as tfh:
                    for _d, sources, targets, positions in blocks:
                        _write_lines(sfh, positions, sp, sources, "\n")
                        _write_lines(tfh, positions, tp, targets, "\n")
            return {str(d): sum(len(b[3]) for b in blocks) for d, blocks in runs.items()}

        counts = map_slices(write, n, workers, min_per_worker, error)
    per_direction: dict[str, int] = {}
    for part in counts:
        for key, count in part.items():
            per_direction[key] = per_direction.get(key, 0) + count
    if not per_direction:
        raise DatagenError("refusing to emit an empty dataset")
    _write_manifest(path, manifest, mode, per_direction)


def min_items_per_worker(min_records: int, items: int, records: int) -> int:
    """The items a worker process must get, of ``items`` that hold
    ``records`` records, to write ``min_records`` records on average."""
    return max(1, -(-min_records * items // max(records, 1)))


def emit_bitext(
    dataset: FtDataset, mode: str, path: str | Path, workers: int | None = 1
) -> None:
    """Write the dataset to disk, with a manifest JSON alongside, in up to
    ``workers`` processes.

    ``tsv``: one ``src_lang<TAB>tgt_lang<TAB>src<TAB>tgt`` line per record in
    ``records.tsv``, sliced by record across blocks.  ``split_files``:
    aligned ``<src>-<tgt>.src`` / ``<src>-<tgt>.tgt`` pairs per direction,
    sliced by direction.  The records carry the tags the manifest's
    ``tag_strategy`` names.
    """
    if not dataset.blocks:
        raise DatagenError("refusing to emit an empty dataset")
    _templates(dataset.manifest.get("tag_strategy", "none"))
    _check_writable(dataset)
    if mode == "tsv":
        n, min_per_worker = len(dataset), MIN_RECORDS_PER_WORKER

        def blocks_of(start: int, stop: int) -> Iterable[Block]:
            return _record_slice(dataset.blocks, start, stop)
    else:
        runs: dict[Direction, list[Block]] = {}
        for block in dataset.blocks:
            runs.setdefault(block[0], []).append(block)
        directions = list(runs.values())
        n = len(directions)
        min_per_worker = min_items_per_worker(MIN_RECORDS_PER_WORKER, n, len(dataset))

        def blocks_of(start: int, stop: int) -> Iterable[Block]:
            return chain.from_iterable(directions[start:stop])
    write_dataset(dataset.manifest, mode, Path(path), n, blocks_of, workers, min_per_worker)


def _record_slice(blocks: Sequence[Block], start: int, stop: int) -> Iterator[Block]:
    """Records ``[start, stop)`` of the blocks, as blocks."""
    at = 0
    for d, sources, targets, positions in blocks:
        if at >= stop:
            return
        end = at + len(positions)
        if end > start:
            yield d, sources, targets, positions[max(start - at, 0):stop - at]
        at = end


def read_bitext_tsv(
    directory: str | Path, start: int = 0, stop: int | None = None
) -> Iterator[Block]:
    """Stream the records of ``records.tsv`` in ``directory`` as blocks, or
    those of the byte window ``[start, stop)`` of it, read as
    :func:`~multipar.textio.read_line_chunks` reads one.

    Each chunk of lines read gives one block per run of consecutive lines of
    one direction, with columns of its own; a run that goes on past a chunk
    continues in the next block.  A bad record or direction is named by
    ``records.tsv:<line>``, counting skipped blank lines, and the lines
    before the window, which are counted only then.
    """
    path = Path(directory) / "records.tsv"

    def error(line: int, message: str) -> DatagenError:
        before = lines_before(path, start) if start else 0
        return DatagenError(f"{path}:{before + line}: {message}")

    key = direction = None
    lineno = 0  # lines read
    for lines in read_line_chunks(path, DatagenError, start, stop):
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
            for begin, end in zip(starts, [*starts[1:], n]):
                if (src_langs[begin], tgt_langs[begin]) != key:
                    key = (src_langs[begin], tgt_langs[begin])
                    try:
                        direction = Direction(*key)
                    except DatagenError as exc:
                        raise error(first + numbers[begin], str(exc)) from None
                yield direction, sources[begin:end], targets[begin:end], range(end - begin)
        if bad is not None:
            raise error(first + bad, f"expected 4 fields, got {tabs[bad] + 1}")


def tag_bitext(directory: str | Path, tag: str, path: str | Path, workers: int | None = 1) -> None:
    """Write the ``tsv`` dataset in ``directory`` to the existing directory
    ``path`` with the tags of strategy ``tag``, in up to ``workers``
    processes, each streaming byte windows of ``records.tsv`` chunk by chunk
    in bounded memory.

    ``manifest.json`` in ``directory`` gives the manifest, which is
    ``{"tag_strategy": "none"}`` when the file is absent.
    """
    directory, out = Path(directory), Path(path)
    manifest_path = directory / "manifest.json"
    manifest = {"tag_strategy": "none"}
    if manifest_path.exists():
        manifest = read_json(manifest_path, DatagenError)
    manifest = _tagged_manifest(manifest, tag)
    records = directory / "records.tsv"
    try:
        size = records.stat().st_size
    except OSError as exc:
        raise DatagenError(f"cannot read {records}: {exc}") from None
    write_dataset(manifest, "tsv", out, size,
                  lambda start, stop: read_bitext_tsv(directory, start, stop),
                  workers, MIN_BYTES_PER_WORKER)
