"""Shared test utilities: independent brute-force oracles and fixture builders.

The oracles here deliberately use naive, quadratic scans and plain loops so
they share no code path with the library implementations they check.
"""

import random
from collections import Counter

from multipar.corpus import MultiParallelCorpus
from multipar.registry import ec30
from multipar.rng import Stream


# --- brute-force pivot-mining oracle ------------------------------------------


def _trim(s):
    return s.strip(" \t\n\r\f\v")


def brute_force_mine(bitexts, english_code="en"):
    """Naive reference join of English-centric bitexts.

    A pivot is usable in one bitext iff its trimmed form occurs exactly once
    there; a row exists iff the pivot is nonempty and usable in every bitext.  Rows follow
    the first-occurrence order of usable pivots in the first bitext.  Returns
    one tuple of cells per language, English first.
    """
    codes = list(bitexts)
    usable = {}
    for code in codes:
        trimmed = [_trim(en) for en, _ in bitexts[code]]
        counts = Counter(trimmed)
        usable[code] = {
            key: foreign
            for (en, foreign), key in zip(bitexts[code], trimmed)
            if counts[key] == 1
        }
    keys = []
    seen = set()
    for en, _ in bitexts[codes[0]]:
        key = _trim(en)
        if key in seen:
            continue
        seen.add(key)
        if key and all(key in usable[c] for c in codes):
            keys.append(key)
    return {english_code: tuple(keys), **{c: tuple(usable[c][k] for k in keys) for c in codes}}


def brute_force_mining_stats(bitexts):
    """The pairs of each bitext, and the distinct trimmed pivots that occur
    more than once in it, blank ones included."""
    return (
        {code: len(pairs) for code, pairs in bitexts.items()},
        {code: sum(n > 1 for n in Counter(_trim(en) for en, _ in pairs).values())
         for code, pairs in bitexts.items()},
    )


def make_mining_fixture(n_lines=1000, codes=("de", "nl", "fr"), seed=99):
    """Bitexts with injected exact duplicates, conflicting duplicates,
    whitespace-variant pivots, and per-language gaps."""
    rng = Stream(seed)
    pivots = [f"english sentence number {i} about topic {i % 37}" for i in range(n_lines)]
    bitexts = {}
    for code in codes:
        pairs = []
        for i, en in enumerate(pivots):
            # gaps: each language drops a different residue class
            if i % 17 == {"de": 3, "nl": 5, "fr": 7}.get(code, 1):
                continue
            text = en
            if i % 13 == 2:
                text = f"  {en}\t"  # trims to the same pivot
            pairs.append((text, f"{code} translation of line {i}"))
            if i % 29 == 4:
                # conflicting duplicate: same pivot, different foreign side
                pairs.append((en, f"{code} CONFLICT for line {i}"))
            if i % 31 == 6:
                # exact duplicate: same pivot, same foreign side
                pairs.append((en, f"{code} translation of line {i}"))
        pairs[n_lines // 2 :] = rng.permutation(pairs[n_lines // 2 :])  # keep a stable head
        bitexts[code] = pairs
    return bitexts


# --- brute-force dictionary pivot join ----------------------------------------


def brute_force_join(entries_a, entries_b):
    """All (foreign_a, foreign_b) pairs sharing an English headword."""
    out = set()
    for en_a, wa in entries_a:
        for en_b, wb in entries_b:
            if en_a == en_b:
                out.add((wa, wb))
    return out


def grouped(dicts):
    """Dictionaries of (headword, word) entries as ``pivot_dictionaries``
    takes them: each headword's set of words, per language."""
    out = {}
    for code, entries in dicts.items():
        out[code] = {}
        for en, word in entries:
            out[code].setdefault(en, set()).add(word)
    return out


# --- corpus builders ------------------------------------------------------------


def full_corpus(codes, n_rows, stamp="r"):
    """Fully multi-parallel corpus of distinct synthetic sentences."""
    columns = {
        code: tuple(f"{code} {stamp} {i} alpha beta" for i in range(n_rows))
        for code in codes
    }
    return MultiParallelCorpus(columns=columns, row_ids=tuple(range(n_rows)))


def synthetic_sentences(alphabet, n_sentences, seed, words=6, min_len=3, max_len=8):
    """Pseudo-random sentences drawn from a fixed character alphabet."""
    rng = Stream(seed)
    out = []
    for _ in range(n_sentences):
        sentence_words = []
        for _ in range(words):
            length = rng.randint(min_len, max_len)
            sentence_words.append(
                "".join(alphabet[rng.randbelow(len(alphabet))] for _ in range(length))
            )
        out.append(" ".join(sentence_words))
    return out


# --- score matrices ------------------------------------------------------------


def write_ec30_scores(path, seed):
    """A seeded chrf and bleu score for every one of EC30's 930 directions."""
    rnd = random.Random(seed)
    codes = ec30().codes
    lines = ["src_lang\ttgt_lang\tmetric\tvalue\tcount\n"]
    for src in codes:
        for tgt in codes:
            if src != tgt:
                for metric in ("bleu", "chrf"):
                    lines.append(f"{src}\t{tgt}\t{metric}\t{rnd.uniform(0, 60):.3f}\t100\n")
    path.write_text("".join(lines), encoding="utf-8")
