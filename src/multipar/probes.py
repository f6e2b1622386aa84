"""Synthetic probe datasets: number pairs and dictionary-pivoted word pairs.

Number pairs carry no semantics beyond digits: each line is a space-joined
sequence of integers replicated on both sides.  Word pairs come from
English-centric dictionaries joined on shared English headwords, so a
DE entry and an NL entry for the same English word yield a DE-NL pair.
Token budgets can be matched against a reference dataset so the probe
corpora carry comparable surface mass.  MUSE dictionaries are read through
:mod:`multipar.textio` as two whitespace-separated words per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping

from .datagen import Direction, DirectionSet, FtDataset
from .rng import _LANES, Stream, _rejection_limit, draws, stream, stream_states
from .textio import read_records


class ProbeError(ValueError):
    pass


@dataclass(frozen=True)
class Dictionary:
    """Word-level translation entries for one (unordered) language pair."""

    pair: tuple[str, str]
    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if self.pair[0] == self.pair[1]:
            raise ProbeError("dictionary pair with identical languages")
        for a, b in self.entries:
            if not a or not b or any(ch.isspace() for ch in a + b):
                raise ProbeError(f"bad dictionary entry ({a!r}, {b!r})")

    def oriented(self, direction: Direction) -> tuple[tuple[str, str], ...]:
        """Entries with the first element in ``direction.src``."""
        if (direction.src, direction.tgt) == self.pair:
            return self.entries
        if (direction.tgt, direction.src) == self.pair:
            return tuple((b, a) for a, b in self.entries)
        raise ProbeError(f"dictionary {self.pair} does not cover {direction}")


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
    dirs: DirectionSet, lines_per_direction: int, config: ProbeConfig
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
    manifest = {
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
    return FtDataset(tuple(blocks), manifest)


def load_muse_dictionary(path: str | Path) -> set[tuple[str, str]]:
    """MUSE-style input: one ``english<TAB or space>foreign`` entry per line."""
    return {(en, foreign) for _, (en, foreign) in read_records(path, 2, ProbeError, sep=None)}


def pivot_dictionaries(
    en_dicts: Mapping[str, Iterable[tuple[str, str]]],
    seed: int,
    english_code: str = "en",
) -> tuple[dict[str, Dictionary], dict[tuple[str, str], Dictionary]]:
    """Join English-centric dictionaries on shared English headwords.

    Only headwords present in every input dictionary survive.  For each
    (headword, language) one translation is chosen uniformly at random among
    the candidates, once and globally, so every pivoted pair involving that
    language reuses the same choice and transitivity holds.  Returns the
    restricted English-centric dictionaries and one dictionary per unordered
    non-English pair; all have exactly |shared headwords| entries.
    """
    if len(en_dicts) < 2:
        raise ProbeError("pivoting needs at least two English-centric dictionaries")
    candidates: dict[str, dict[str, list[str]]] = {}
    for code, entries in en_dicts.items():
        per_word: dict[str, list[str]] = {}
        for en_word, foreign in entries:
            per_word.setdefault(en_word, []).append(foreign)
        candidates[code] = per_word

    shared = None
    for per_word in candidates.values():
        keys = set(per_word)
        shared = keys if shared is None else shared & keys
    headwords = sorted(shared)

    # one global choice per (headword, language)
    chosen: dict[str, dict[str, str]] = {}
    for code in sorted(candidates):
        rng = stream(seed, f"pivot/{code}")
        chosen[code] = {
            w: sorted(set(candidates[code][w]))[rng.randbelow(len(set(candidates[code][w])))]
            for w in headwords
        }

    en_centric = {
        code: Dictionary(
            pair=(english_code, code),
            entries=tuple((w, chosen[code][w]) for w in headwords),
        )
        for code in sorted(candidates)
    }
    pivoted = {}
    for a, b in combinations(sorted(candidates), 2):
        pivoted[(a, b)] = Dictionary(
            pair=(a, b),
            entries=tuple((chosen[a][w], chosen[b][w]) for w in headwords),
        )
    return en_centric, pivoted


def build_word_pair_dataset(
    dicts: Iterable[Dictionary], dirs: DirectionSet
) -> FtDataset:
    """One single-word record per (direction, dictionary entry).

    Both orientations of a pair draw from the same entry set, so (a, b) and
    (b, a) produce mirrored records.
    """
    by_pair = {tuple(sorted(d.pair)): d for d in dicts}
    blocks = []
    for direction in dirs:
        key = tuple(sorted((direction.src, direction.tgt)))
        if key not in by_pair:
            raise ProbeError(f"no dictionary for direction {direction}")
        entries = by_pair[key].oriented(direction)
        if entries:
            sources, targets = zip(*entries)
            blocks.append((direction, sources, targets, range(len(sources))))
    manifest = {
        "corpus_id": "word_pairs",
        "directions": [str(d) for d in dirs],
        "tag_strategy": "none",
    }
    return FtDataset(tuple(blocks), manifest)


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
