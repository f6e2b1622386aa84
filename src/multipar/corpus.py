"""Multi-parallel corpus representation, disk I/O, and pivot-alignment mining.

In memory a corpus is one column per language: ``columns`` maps each
language code to a tuple of K sentences, where position i of every column
is row i, and ``row_ids`` names the rows.  An empty sentence ``""`` is a
missing cell, so rows may be partial.  Two indexes are built on first use and
kept: ``position`` maps a row id to its position, and ``gaps`` maps a code to
the positions of its missing cells.

On disk a corpus is a directory with one ``<code>.txt`` file per language
(one sentence per line, an empty line for a missing cell; written with LF
line endings) plus an optional ``manifest.json`` recording the language list,
row count, row ids, and provenance.  Bitext inputs for mining are
per-language TSV files with one ``english<TAB>foreign`` pair per line.  Both
are read through :mod:`multipar.textio`: a column keeps every line, and a
bitext skips blank lines.  The miner iterates each bitext once, in order, so
a caller that passes them lazily holds one bitext's pairs at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from operator import not_
from pathlib import Path
from typing import Iterable, Mapping

from .textio import read_json, read_lines, read_record_chunks

_ASCII_WS = " \t\n\r\f\v"
# cells joined per line-end scan: a joined chunk stays small next to its column
_SCAN_CELLS = 4096


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class MultiParallelCorpus:
    """K aligned rows over N languages, stored as one tuple of K sentences
    per language; ``""`` marks a missing cell."""

    columns: Mapping[str, tuple[str, ...]]
    row_ids: tuple[int, ...]
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.columns) < 2:
            raise CorpusError("a corpus needs at least 2 languages")
        if len(set(self.row_ids)) != len(self.row_ids):
            raise CorpusError("duplicate row ids")
        for code, column in self.columns.items():
            if len(column) != len(self.row_ids):
                raise CorpusError(
                    f"column {code!r} has {len(column)} cells for {len(self.row_ids)} rows"
                )
            # one C-level scan per chunk of cells; the cells are walked only
            # to name the first bad row
            for start in range(0, len(column), _SCAN_CELLS):
                chunk = "".join(column[start : start + _SCAN_CELLS])
                if "\n" in chunk or "\r" in chunk:
                    for rid, text in zip(self.row_ids[start:], column[start:]):
                        if "\n" in text or "\r" in text:
                            raise CorpusError(f"embedded newline in {code!r} sentence (row {rid})")

    @property
    def languages(self) -> tuple[str, ...]:
        return tuple(self.columns)

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @cached_property
    def position(self) -> dict[int, int]:
        """Row id -> column position, built on first use."""
        return {rid: i for i, rid in enumerate(self.row_ids)}

    @cached_property
    def gaps(self) -> dict[str, frozenset[int]]:
        """Code -> the positions of its missing cells, built on first use."""
        n = self.n_rows
        return {
            code: frozenset(compress(range(n), map(not_, column)))
            for code, column in self.columns.items()
        }


def save_corpus(corpus: MultiParallelCorpus, directory: str | Path) -> None:
    """Write ``<code>.txt`` per language plus ``manifest.json``.

    A missing cell is an empty line, so line numbers stay aligned with row
    positions across all files.  A cell that cannot be encoded as UTF-8 (a
    lone surrogate) is an error naming its file and row; the files of the
    columns before it are written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for code, column in corpus.columns.items():
        path = directory / f"{code}.txt"
        text = "".join(line + "\n" for line in column)
        try:
            data = text.encode("utf-8")
        except UnicodeEncodeError as exc:
            row = corpus.row_ids[text.count("\n", 0, exc.start)]
            raise CorpusError(
                f"{path}: row {row} cannot be encoded as UTF-8: {exc.reason}"
            ) from None
        path.write_bytes(data)
    manifest = {
        "languages": list(corpus.languages),
        "rows": corpus.n_rows,
        "row_ids": list(corpus.row_ids),
        "provenance": dict(corpus.provenance),
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_corpus_dir(directory: str | Path) -> MultiParallelCorpus:
    """Load a corpus from the directory layout written by :func:`save_corpus`.

    The files must have equal line counts: row i of every language is line
    i, and an empty line is a missing cell.  Without a ``manifest.json``,
    every ``<code>.txt`` is read and the rows are numbered ``0..K-1``.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    row_ids = None
    if manifest_path.exists():
        manifest = read_json(manifest_path, CorpusError)
        codes = manifest.get("languages")
        if not (isinstance(codes, list) and all(isinstance(c, str) for c in codes)):
            raise CorpusError(f'{manifest_path}: "languages" must be a list of codes')
        for i, code in enumerate(codes):
            # a code names the file <code>.txt inside the corpus directory
            if code in ("", ".", "..") or Path(code).name != code:
                raise CorpusError(f"{manifest_path}: language code {code!r} is not a file name")
            if code in codes[:i]:
                raise CorpusError(f"{manifest_path}: language code {code!r} is listed twice")
        row_ids = manifest.get("row_ids")
        if row_ids is not None and not (
            isinstance(row_ids, list) and all(type(r) is int for r in row_ids)
        ):
            raise CorpusError(f'{manifest_path}: "row_ids" must be a list of integers')
    else:
        codes = sorted(p.stem for p in directory.glob("*.txt"))
    paths = {c: directory / f"{c}.txt" for c in codes}
    columns = {c: tuple(read_lines(path, CorpusError)) for c, path in paths.items()}
    k = len(next(iter(columns.values()), ()))
    if any(len(column) != k for column in columns.values()):
        detail = ", ".join(f"{paths[c]}: {len(col)}" for c, col in sorted(columns.items()))
        raise CorpusError(f"line-count mismatch across files ({detail})")
    if row_ids is None:
        row_ids = range(k)
    elif len(row_ids) != k:
        raise CorpusError(f"{manifest_path}: {len(row_ids)} row ids for {k} lines")
    # the source is the corpus_id that build-ft writes into its manifest
    return MultiParallelCorpus(
        columns=columns,
        row_ids=tuple(row_ids),
        provenance={"source": "load_corpus"},
    )


@dataclass(frozen=True)
class MiningStats:
    input_pairs: Mapping[str, int]
    duplicate_pivots_dropped: Mapping[str, int]
    yield_rows: int


def normalize_pivot(sentence: str) -> str:
    """Trim leading/trailing ASCII whitespace; no case folding or stripping."""
    return sentence.strip(_ASCII_WS)


def load_bitext_tsv(path: str | Path) -> list[tuple[str, str]]:
    """Read ``english<TAB>foreign`` pairs, one per line."""
    return [(en, foreign)
            for _, rows in read_record_chunks(path, 2, CorpusError) for en, foreign in rows]


def mine_pivot_aligned(
    bitexts: Mapping[str, Iterable[tuple[str, str]]],
    english_code: str = "en",
) -> tuple[MultiParallelCorpus, MiningStats]:
    """Join English-centric bitexts on identical (normalized) English sentences.

    An English sentence occurring more than once within a single bitext is
    ambiguous in that bitext and is dropped from it before joining, so each
    output row is a function of the pivot string.  An English side that is
    empty once trimmed joins nothing.  Output rows follow the first-seen
    order of the pivot in the first bitext; the result is fully
    multi-parallel over {english} + the bitext languages, except where a
    bitext's foreign side is empty: that cell is missing.

    Each bitext is iterated once, in mapping order, and only after the
    checks on the mapping's keys.  Held at a time are one bitext's pivot
    index and the rows still joinable: the pivots found once in every bitext
    read so far, with their foreign sides.
    """
    if len(bitexts) < 2:
        raise CorpusError("pivot mining needs at least two bitexts")
    if english_code in bitexts:
        raise CorpusError(f"bitext keyed by the pivot language {english_code!r}")

    input_pairs: dict[str, int] = {}
    dup_counts: dict[str, int] = {}
    order: tuple[str, ...] | None = None  # the joinable pivots, in first-seen order
    columns: dict[str, tuple[str, ...]] = {}
    for code, pairs in bitexts.items():
        seen: dict[str, str] = {}
        ambiguous: set[str] = set()
        n_pairs = 0
        for en, foreign in pairs:
            n_pairs += 1
            key = normalize_pivot(en)
            if key in seen:
                # repeated pivot within one bitext: alignment is ambiguous
                ambiguous.add(key)
            else:
                seen[key] = foreign
        for key in ambiguous:
            del seen[key]
        input_pairs[code] = n_pairs
        dup_counts[code] = len(ambiguous)
        if order is None:
            # the first index holds its unambiguous pivots in first-seen order
            order = tuple(key for key in seen if key)
        else:
            joined = list(map(seen.__contains__, order))
            order = tuple(compress(order, joined))
            columns = {c: tuple(compress(column, joined)) for c, column in columns.items()}
        columns[code] = tuple(map(seen.__getitem__, order))

    codes = list(bitexts)
    corpus = MultiParallelCorpus(
        columns={english_code: order, **columns},
        row_ids=tuple(range(len(order))),
        provenance={"source": "mine_pivot_aligned", "bitexts": codes},
    )
    stats = MiningStats(
        input_pairs=input_pairs,
        duplicate_pivots_dropped=dup_counts,
        yield_rows=len(order),
    )
    return corpus, stats

