"""Synthetic probe datasets: number pairs and dictionary-pivoted word pairs.

Number pairs carry no semantics beyond digits: each line is a space-joined
sequence of integers replicated on both sides.  Word pairs come from
English-centric dictionaries pivoted into a multi-parallel corpus: only the
English headwords shared by every dictionary are kept, one row each, with
one seeded choice per (headword, language), so a DE entry and an NL entry
for the same English word yield a DE-NL pair.  Its records are built with
:func:`~multipar.datagen.build_pairwise`, exactly as for a mined corpus.
Token budgets can be matched against a reference dataset so the probe
corpora carry comparable surface mass.  ``emit_number_pairs`` writes number
pairs in slices of their directions, each drawn by ``gen_number_pairs`` in
the process that writes it, so no line is pickled or held whole.  MUSE dictionaries are read through
:mod:`multipar.textio` as two whitespace-separated words per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import MultiParallelCorpus
from .datagen import Direction, FtDataset, min_items_per_worker, write_dataset
from .rng import _LANES, Stream, _rejection_limit, draws, stream, stream_states
from .textio import read_records


# number lines a worker process must draw and write to pay for itself, timed
# on 2 cores over 56 directions (11 runs per size, alternating 1 and 2
# workers): two workers beat one process in 10 of 11 runs from 8K and 16K
# lines, in 6 at 6K and in at most 3 up to 4K
MIN_LINES_PER_WORKER = 4096


class ProbeError(ValueError):
    pass


@dataclass(frozen=True)
class ProbeConfig:
    digit_min: int = 1
    digit_max: int = 1000
    tokens_per_line: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.digit_min > self.digit_max:
            raise ProbeError("digit_min must not exceed digit_max")
        if self.tokens_per_line < 1:
            raise ProbeError("tokens_per_line must be >= 1")
        if self.digit_max - self.digit_min + 1 > 2**64:
            # one draw is one 64-bit SplitMix64 output
            raise ProbeError("digit_max - digit_min + 1 must not exceed 2**64")


def gen_number_pairs(
    dirs: Sequence[Direction], lines_per_direction: int, config: ProbeConfig
) -> FtDataset:
    """Identical source/target lines of uniform random integers, per direction.

    Line i of direction d is ``tokens_per_line`` draws from
    ``stream(seed, f"numbers/{d}/{i}")``, a function of (direction, line
    index, seed) alone.  A direction's lines are drawn _LANES at a time with
    :func:`~multipar.rng.draws`; a line with a draw that ``randint`` would
    reject is drawn again alone by ``k`` calls of ``Stream.randint``.
    """
    if lines_per_direction < 1:
        raise ProbeError("lines_per_direction must be >= 1")

    lo, hi, k = config.digit_min, config.digit_max, config.tokens_per_line
    n = hi - lo + 1
    limit = _rejection_limit(n)
    # a range no larger than a chunk's draws formats each value once
    table = [str(lo + v) for v in range(n)] if n <= _LANES * k else None
    # a draw at or above a limit of 2**64 - 2**32 or more has its 32 top bits
    # set, so a chunk without four 0xFF bytes in a row has no rejected draw
    screen = b"\xff" * 4 if limit >= 2**64 - 2**32 else b""
    blocks = []
    for d in dirs:
        states = stream_states(config.seed, f"numbers/{d}/", lines_per_direction)
        lines = []
        for a in range(0, lines_per_direction, _LANES):
            chunk = states[a:a + _LANES]
            values = draws(chunk, k)
            if table is None:
                tokens = [str(lo + v % n) for v in values]
            else:
                tokens = [table[v % n] for v in values]
            lines += map(" ".join, zip(*[iter(tokens)] * k))
            if screen in values.tobytes() and max(values) >= limit:
                for i in {j // k for j, v in enumerate(values) if v >= limit}:
                    rng = Stream(chunk[i])
                    lines[a + i] = " ".join(str(rng.randint(lo, hi)) for _ in range(k))
        lines = tuple(lines)
        blocks.append((d, lines, lines, range(lines_per_direction)))
    return FtDataset(tuple(blocks), _number_manifest(dirs, lines_per_direction, config))


def _number_manifest(
    dirs: Sequence[Direction], lines_per_direction: int, config: ProbeConfig
) -> dict[str, object]:
    return {
        "corpus_id": "number_pairs",
        "directions": [str(d) for d in dirs],
        "tag_strategy": "none",
        "seed": config.seed,
        "config": {
            "digit_min": config.digit_min,
            "digit_max": config.digit_max,
            "tokens_per_line": config.tokens_per_line,
            "lines_per_direction": lines_per_direction,
        },
    }


def emit_number_pairs(
    dirs: Sequence[Direction], lines_per_direction: int, config: ProbeConfig,
    mode: str, path: str | Path, workers: int | None = 1,
) -> None:
    """Write ``gen_number_pairs(dirs, lines_per_direction, config)`` as
    :func:`~multipar.datagen.emit_bitext` writes it, over contiguous slices
    of the directions in up to ``workers`` processes: each slice's lines are
    drawn by ``gen_number_pairs`` in the process that writes them."""
    if lines_per_direction < 1:
        raise ProbeError("lines_per_direction must be >= 1")
    write_dataset(
        _number_manifest(dirs, lines_per_direction, config), mode, Path(path), len(dirs),
        lambda start, stop: gen_number_pairs(dirs[start:stop], lines_per_direction, config).blocks,
        workers,
        min_items_per_worker(MIN_LINES_PER_WORKER, len(dirs), len(dirs) * lines_per_direction),
    )


def load_muse_dictionary(path: str | Path) -> dict[str, set[str]]:
    """MUSE-style input, one ``english<TAB or space>foreign`` entry per line,
    as each English headword's set of translations."""
    entries: dict[str, set[str]] = {}
    for _, (en, foreign) in read_records(path, 2, ProbeError, sep=None):
        entries.setdefault(en, set()).add(foreign)
    return entries


def pivot_dictionaries(
    en_dicts: Mapping[str, Mapping[str, set[str]]],
    seed: int,
    english_code: str = "en",
) -> MultiParallelCorpus:
    """Join English-centric dictionaries, each mapping an English headword to
    its set of translations, on shared English headwords.

    Only headwords present in every input dictionary survive.  For each
    (headword, language) one translation is chosen uniformly at random among
    the candidates, once and globally, so every direction involving that
    language reuses the same choice and transitivity holds.  Returns a
    corpus whose English column holds the shared headwords in sorted order,
    followed by one column of choices per language in code order, with rows
    numbered ``0..H-1``.
    """
    if len(en_dicts) < 2:
        raise ProbeError("pivoting needs at least two English-centric dictionaries")
    if english_code in en_dicts:
        raise ProbeError("dictionary pair with identical languages")
    headwords = sorted(set.intersection(*map(set, en_dicts.values())))
    # one global choice per (headword, language)
    columns = {english_code: tuple(headwords)}
    for code in sorted(en_dicts):
        rng = stream(seed, f"pivot/{code}")
        options = [sorted(en_dicts[code][w]) for w in headwords]
        columns[code] = tuple(o[rng.randbelow(len(o))] for o in options)
    return MultiParallelCorpus(
        columns=columns,
        row_ids=tuple(range(len(headwords))),
        provenance={"source": "pivot_dictionaries"},
    )


def match_token_budget(
    target_total_tokens: int,
    tokens_per_line: int,
    num_directions: int,
) -> int:
    """Lines per direction so total token mass approximates a reference budget.

    Rounds to the nearest line count (half away from zero), minimum one line;
    the achieved budget is therefore within one line's tokens per direction
    of the target.  A negative target is a ProbeError.
    """
    if target_total_tokens < 0:
        raise ProbeError(f"token budget must be >= 0, got {target_total_tokens}")
    if target_total_tokens < tokens_per_line:
        return 1
    exact = target_total_tokens / (tokens_per_line * num_directions)
    return max(1, int(exact + 0.5))
