"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, dest, registry)`` writes every file a workload's
stages read into ``dest`` and returns an oracle: the facts the output checks
compare against, worked out here from the generator's own construction rather
than from the program's outputs.  The same seed always gives the same bytes.

The languages, their resource tiers and scripts come from the program's
bundled EC30 registry.  Text comes from synthetic languages.  Each language
has its own syllable inventory drawn from its real script (Latin, Cyrillic,
Devanagari, Bengali, Arabic, Hebrew, Ethiopic) and its own Zipf-weighted
vocabulary.  Languages of one script share most letters, so identification
errors are real.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path

# EC30 minus this language is the eval and lid language set
LEFT_OUT = "oc"

_ETHIOPIC = "".join(
    chr(base + vowel)
    for base in [0x1200 + 8 * k for k in range(9)] + [0x1260 + 8 * k for k in range(8)]
    for vowel in range(7)
)
# script -> (onset letters, nucleus letters, letters only some languages use)
_ALPHABETS = {
    "Latin": ("bcdfghjklmnprstvwz", "aeiou", "äöüéèàçñãåøłšžčřăîșëœ"),
    "Cyrillic": ("бвгджзклмнпрстфхцчшщ", "аеиоуыэюя", "ёіїєђћ"),
    "Devanagari": ("कखगघचछजझटठडढणतथदधनपफबभमयरलवशषसह", "ािीुूेैोौ", "ँंः"),
    "Bengali": ("কখগঘচছজঝটঠডঢণতথদধনপফবভমযরলশষসহ", "ািীুূেৈোৌ", "ংঃ"),
    "Arabic": ("بتثجحخدذرزسشصضطظعغفقكلمنهوي", "اوي", "ةءئ"),
    "Hebrew": ("אבגדהזחטכלמנסעפצקרשת", "וי", "ךםןףץ"),
    "Ethiopic": (_ETHIOPIC, "", ""),
}


class Language:
    """A synthetic language: a syllable inventory and a Zipf vocabulary.

    A quarter of the vocabulary comes from a pool shared by every language of
    the same script, at ranks of the language's own choosing.
    """

    def __init__(self, code: str, script: str, english: str, seed: int):
        onsets, nuclei, extras = _ALPHABETS[script]
        shared = sorted(_words(random.Random(f"{seed}:{script}:shared"), onsets, nuclei, 300))
        rng = random.Random(f"{seed}:{code}:profile")
        onsets = rng.sample(onsets, max(6, len(onsets) * 2 // 3))
        nuclei = list(nuclei) if len(nuclei) < 4 else rng.sample(nuclei, len(nuclei) - 1)
        if extras and code != english:
            nuclei += rng.sample(extras, min(2, len(extras)))
        self.words = sorted(_words(rng, onsets, nuclei, 450) | set(rng.sample(shared, 150)))
        rng.shuffle(self.words)
        self._cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(self.words))))

    def sentence(self, rng: random.Random, n_words: int) -> str:
        return " ".join(rng.choices(self.words, cum_weights=self._cum, k=n_words))


def _languages(registry, codes, seed: int) -> dict[str, Language]:
    return {c: Language(c, registry[c].script, registry.english_code, seed) for c in codes}


def _ec30_codes(registry) -> tuple[str, ...]:
    return tuple(c for c in registry.codes if c != LEFT_OUT)


def _words(rng: random.Random, onsets: str, nuclei, count: int) -> set[str]:
    syllables = [o + n for o in onsets for n in (nuclei or [""])]
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choices(syllables, k=rng.choice((1, 2, 2, 3, 3, 4)))))
    return words


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


# --- prep: bitexts for mine -> build-ft -> tag -> probe-numbers -> mix ---------

PREP_LANGUAGES = ("en", "ar", "cs", "de", "fr", "hi", "ru", "sv")
PREP_PIVOTS = 5000


def _prep(seed: int, dest: Path, registry) -> dict:
    rng = random.Random(f"{seed}:prep")
    langs = _languages(registry, PREP_LANGUAGES, seed)
    foreign = PREP_LANGUAGES[1:]
    pivots: list[str] = []
    seen: set[str] = set()
    while len(pivots) < PREP_PIVOTS * 105 // 100:
        s = langs["en"].sentence(rng, rng.randint(2, 12))
        if s not in seen:
            seen.add(s)
            pivots.append(s)
    base, extra = pivots[:PREP_PIVOTS], pivots[PREP_PIVOTS:]
    ids = range(len(base))
    dropped: set[int] = set()
    empties: dict[str, set[int]] = {}
    texts: dict[str, list[str]] = {}
    bitext_dir = dest / "bitexts"
    bitext_dir.mkdir(parents=True)
    for k, code in enumerate(foreign):
        lang = langs[code]
        texts[code] = [lang.sentence(rng, max(1, len(en.split()) + rng.randint(-3, 4))) for en in base]
        gaps = set(rng.sample(ids, len(base) * 3 // 100))
        dups = rng.sample([i for i in ids if i not in gaps], len(base) // 100)
        empties[code] = set(rng.sample([i for i in ids if i not in gaps], len(base) // 200))
        dropped |= gaps | set(dups)
        lines = []
        for i in ids:
            if i in gaps:
                continue
            en = base[i] if rng.random() > 0.02 else f"  {base[i]} "
            lines.append(f"{en}\t{'' if i in empties[code] else texts[code][i]}")
        for n, i in enumerate(dups):
            # half exact duplicates, half conflicting translations; some padded
            other = texts[code][i] if n % 2 else lang.sentence(rng, 6)
            lines.append(f"{base[i]}{' ' * (n % 3)}\t{other}")
        # pivots present in this bitext alone never join
        lines += [f"{en}\t{lang.sentence(rng, 5)}" for en in extra[k :: len(foreign)]]
        rng.shuffle(lines)
        _write_lines(bitext_dir / f"{code}.tsv", lines)
    # mined rows follow the first occurrence of each joined pivot in the
    # first bitext; the oracle keys cells by that mined row id
    index = {en: i for i, en in enumerate(base)}
    first_lines = (bitext_dir / f"{foreign[0]}.tsv").read_text(encoding="utf-8").splitlines()
    order = (index.get(line.split("\t")[0].strip(" ")) for line in first_lines)
    order = [i for i in dict.fromkeys(order) if i is not None and i not in dropped]
    cells = {"en": [base[i] for i in order]}
    cells.update({c: ["" if i in empties[c] else texts[c][i] for i in order] for c in foreign})
    # the records a build over every mined row would hold, per direction;
    # mixture weights are scale-free, so these give the built set's mixture
    sizes, src_tokens = {}, 0
    for a, b in itertools.permutations(sorted(PREP_LANGUAGES), 2):
        both = [s for s, t in zip(cells[a], cells[b]) if s and t]
        sizes[f"{a}-{b}"] = len(both)
        src_tokens += sum(len(s.split()) for s in both)
    _write_lines(dest / "sizes.tsv", (f"{k}\t{v}" for k, v in sizes.items()))
    rows = len(order) * 9 // 10
    return {
        "languages": list(PREP_LANGUAGES),
        "yield_rows": len(order),
        "pivots_dropped": sum(len(base) // 100 for _ in foreign),
        "rows": rows,
        "empty_rows": {c: [r for r, i in enumerate(order) if i in empties[c]] for c in foreign},
        "token_budget": src_tokens * rows // len(order),
        "directions": len(sizes),
    }


# --- eval: score three metrics, then report over an EC30 matrix ----------------

EVAL_PAIRS = 3200
_NUMBERS = ("3.14", "1,200", "12-15", "2024", "0.5", "7", "10,000.25", "3-4")
_SYMBOLS = ("&amp;", "&quot;", "&lt;", "&gt;", "%", "(", ")", "$", "@", "/", "--")


def _decorate(rng: random.Random, words: list[str]) -> list[str]:
    out = []
    for w in words:
        r = rng.random()
        if r < 0.06:
            out.append(rng.choice(_NUMBERS))
        elif r < 0.10:
            out.append(rng.choice(_SYMBOLS))
        elif r < 0.18:
            out.append(w + rng.choice(".,;:!?"))
        elif r < 0.20:
            out.append(f"&quot;{w}&quot;")
        else:
            out.append(w)
    return out


def _eval(seed: int, dest: Path, registry) -> dict:
    rng = random.Random(f"{seed}:eval")
    codes = _ec30_codes(registry)
    langs = _languages(registry, codes, seed)
    hyps, refs, identical = [], [], []
    for _ in range(EVAL_PAIRS):
        lang = langs[rng.choice(codes)]
        ref_words = _decorate(rng, lang.sentence(rng, rng.randint(1, 60)).split())
        ref = " ".join(ref_words)
        r = rng.random()
        if r < 0.05:
            hyp = ref
            identical.append(ref)
        elif r < 0.07:
            hyp = ""
        else:
            hyp_words = []
            for w in ref_words:
                x = rng.random()
                if x < 0.15:
                    hyp_words.append(lang.sentence(rng, 1))
                elif x > 0.92:
                    continue
                else:
                    hyp_words.append(w)
            if len(hyp_words) > 3 and rng.random() < 0.5:
                i = rng.randrange(len(hyp_words) - 1)
                hyp_words[i], hyp_words[i + 1] = hyp_words[i + 1], hyp_words[i]
            hyp = " ".join(hyp_words)
        hyps.append(hyp)
        refs.append(ref)
    _write_lines(dest / "hyp.txt", hyps)
    _write_lines(dest / "ref.txt", refs)
    _write_lines(dest / "identical.txt", identical)

    header = "src_lang\ttgt_lang\tmetric\tvalue\tcount"
    level = {"High": 30.0, "Medium": 22.0, "Low": 14.0}
    grand = {}
    matrices = {"scores": [header], "baseline": [header]}
    for metric, scale in (("bleu", 1.0), ("chrfpp", 1.8)):
        deltas = []
        for a, b in itertools.permutations(codes, 2):
            base = scale * (level[registry[a].tier] + level[registry[b].tier]) / 2 + rng.uniform(-8, 8)
            new = base + rng.uniform(-3, 9)
            count = rng.randint(500, 2000)
            matrices["baseline"].append(f"{a}\t{b}\t{metric}\t{base!r}\t{count}")
            matrices["scores"].append(f"{a}\t{b}\t{metric}\t{new!r}\t{count}")
            if "en" not in (a, b):
                deltas.append(new - base)
        grand[metric] = sum(deltas) / len(deltas)
    for name, lines in matrices.items():
        _write_lines(dest / f"{name}.tsv", lines)
    return {
        "pairs": EVAL_PAIRS,
        "identical_pairs": len(identical),
        "directions": len(codes) * (len(codes) - 1),
        "zero_shot_grand_mean_delta": grand,
    }


# --- lid: train on EC30 minus oc, then classify planted hypotheses --------------

LID_ROWS = 500
LID_EVAL_LINES = 1400
LID_ONTARGET_LINES = 900
OFF_TARGET_SHARE = 0.2
EMPTY_SHARE = 0.03


def _hypothesis(rng, langs, target: str) -> tuple[str, bool]:
    """A hypothesis meant to be in ``target``; planted off-target or empty."""
    r = rng.random()
    if r < EMPTY_SHARE:
        return "", True
    if r < OFF_TARGET_SHARE:
        other = rng.choice([c for c in langs if c != target])
        return langs[other].sentence(rng, rng.randint(1, 16)), True
    return langs[target].sentence(rng, rng.randint(1, 16)), False


def _lid(seed: int, dest: Path, registry) -> dict:
    rng = random.Random(f"{seed}:lid")
    codes = _ec30_codes(registry)
    langs = _languages(registry, codes, seed)
    corpus = dest / "corpus"
    corpus.mkdir(parents=True)
    train = 0
    for code in codes:
        lines = [
            "" if rng.random() < 0.05 else langs[code].sentence(rng, rng.randint(3, 30))
            for _ in range(LID_ROWS)
        ]
        train += sum(1 for line in lines if line)
        _write_lines(corpus / f"{code}.txt", lines)
    planted_eval = 0
    lines = []
    for _ in range(LID_EVAL_LINES):
        code = rng.choice(codes)
        text, off = _hypothesis(rng, langs, code)
        planted_eval += off
        lines.append(f"{code}\t{text}")
    _write_lines(dest / "hyps.tsv", lines)
    planted_on = 0
    lines = []
    row_ids = itertools.count()
    for _ in range(LID_ONTARGET_LINES):
        src, tgt = rng.sample(codes, 2)
        text, off = _hypothesis(rng, langs, tgt)
        planted_on += not off
        lines.append(f"{src}-{tgt}\t{next(row_ids)}\t{text}")
    _write_lines(dest / "baseline.tsv", lines)
    return {
        "languages": list(codes),
        "train_sentences": train,
        "eval_lines": LID_EVAL_LINES,
        "eval_planted_off_target": planted_eval,
        "ontarget_lines": LID_ONTARGET_LINES,
        "ontarget_planted_on_target": planted_on,
    }


GENERATORS = {"prep": _prep, "eval": _eval, "lid": _lid}


def generate(workload: str, seed: int, dest: Path, registry) -> dict:
    """Write the inputs of one workload for one seed, with languages from
    ``registry`` (the program's EC30 registry); return the oracle."""
    dest.mkdir(parents=True)
    return GENERATORS[workload](seed, dest, registry)
