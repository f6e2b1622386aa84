import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import multipar
from multipar import probes
from multipar.cli import main
from multipar.datagen import Direction, build_pairwise, enumerate_directions
from multipar.probes import (
    ProbeConfig,
    ProbeError,
    gen_number_pairs,
    load_muse_dictionary,
    match_token_budget,
    pivot_dictionaries,
)
from multipar.rng import _LANES, _rejection_limit, stream

from helpers import brute_force_join, grouped


# --- number pairs -----------------------------------------------------------------


def test_number_pairs_shape_and_identity():
    dirs = enumerate_directions(["en", "de", "nl"])
    config = ProbeConfig(tokens_per_line=10, seed=1)
    ds = gen_number_pairs(dirs, 5, config)
    assert len(ds) == 6 * 5
    for r in ds.records:
        assert r.src_text == r.tgt_text
        tokens = r.src_text.split()
        assert len(tokens) == 10
        assert all(1 <= int(t) <= 1000 for t in tokens)


def test_number_pairs_deterministic_per_direction_and_line():
    dirs = enumerate_directions(["en", "de"])
    config = ProbeConfig(seed=7)
    a = gen_number_pairs(dirs, 3, config)
    b = gen_number_pairs(dirs, 3, config)
    assert [r.src_text for r in a.records] == [r.src_text for r in b.records]
    # lines are keyed by (direction, index): extending the direction set
    # must not change existing lines
    wider = enumerate_directions(["en", "de", "nl"])
    c = gen_number_pairs(wider, 3, config)
    by_direction = {d: sources for d, sources, _t, _p in c.blocks}
    for d, sources, targets, positions in a.blocks:
        assert by_direction[d] == sources == targets
        assert positions == range(3)


def test_number_pairs_seed_sensitivity_and_validation():
    dirs = enumerate_directions(["en", "de"])
    a = gen_number_pairs(dirs, 2, ProbeConfig(seed=1))
    b = gen_number_pairs(dirs, 2, ProbeConfig(seed=2))
    assert [r.src_text for r in a.records] != [r.src_text for r in b.records]
    with pytest.raises(ProbeError):
        gen_number_pairs(dirs, 0, ProbeConfig())
    with pytest.raises(ProbeError):
        ProbeConfig(digit_min=5, digit_max=1)
    with pytest.raises(ProbeError):
        ProbeConfig(tokens_per_line=0)


def test_number_pairs_digit_bounds_are_respected_and_attained():
    dirs = enumerate_directions(["en", "de"])
    ds = gen_number_pairs(dirs, 50, ProbeConfig(digit_min=1, digit_max=3, seed=0))
    values = {int(t) for r in ds.records for t in r.src_text.split()}
    assert values == {1, 2, 3}


# line counts that cross the 10 / 100 / 1,000 label digit-count groups and a chunk
LINES = st.sampled_from([1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001,
                         _LANES - 1, _LANES, _LANES + 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=-(2**70), max_value=2**70), st.integers(min_value=1, max_value=12),
       LINES, st.integers(min_value=0, max_value=2**64 - 1), st.data())
def test_number_pairs_equal_one_randint_per_token(lo, tokens, lines, seed, data):
    # spans: small, around the str-table cut-off of a chunk's draws, and near
    # 2**63, where about half of all draws are rejected
    cut = _LANES * tokens
    span = data.draw(st.one_of(
        st.integers(min_value=0, max_value=2000),
        st.sampled_from([cut - 2, cut - 1, cut]),
        st.sampled_from([2**63 - 1, 2**63, 2**63 + 1]),
        st.integers(min_value=2**62, max_value=2**64 - 1),
    ))
    dirs = enumerate_directions(["en", "de"])
    config = ProbeConfig(digit_min=lo, digit_max=lo + span, tokens_per_line=tokens, seed=seed)
    ds = gen_number_pairs(dirs, lines, config)
    for d, sources, _targets, positions in ds.blocks:
        assert positions == range(len(sources)) == range(lines)
        for i, line in enumerate(sources):
            rng = stream(seed, f"numbers/{d}/{i}")
            assert line == " ".join(str(rng.randint(lo, lo + span)) for _ in range(tokens))


@pytest.mark.parametrize(
    "hi", [1000, 2**36 - 1, 2**63 + 1],
    # limits of 2**64 - 616, of 2**64 - 2**28 (only its top 32 bits are set)
    # and of 2**63 + 1
    ids=["small", "top-32-bits", "half"],
)
def test_a_draw_at_the_rejection_limit_redraws_its_line(monkeypatch, hi):
    dirs = enumerate_directions(["en", "de"])
    config = ProbeConfig(digit_min=1, digit_max=hi, tokens_per_line=3, seed=5)
    expected = gen_number_pairs(dirs, 20, config).blocks
    real = probes.draws

    def planted(states, k):
        values = real(states, k)
        values[7] = _rejection_limit(hi)  # line 2, token 1: the least rejected draw
        return values

    monkeypatch.setattr(probes, "draws", planted)
    assert gen_number_pairs(dirs, 20, config).blocks == expected


def test_digit_range_wider_than_one_draw_is_a_probe_error():
    ProbeConfig(digit_min=0, digit_max=2**64 - 1)
    ProbeConfig(digit_min=-(2**63), digit_max=2**63 - 1)
    with pytest.raises(ProbeError, match=r"2\*\*64"):
        ProbeConfig(digit_min=0, digit_max=2**64)
    with pytest.raises(ProbeError, match=r"2\*\*64"):
        ProbeConfig(digit_min=1, digit_max=10**20)


def test_cli_digit_range_wider_than_one_draw_exits_1(tmp_path):
    # a subprocess with a timeout: such a range made the draw loop spin forever
    argv = ["probe-numbers", "--languages", "en", "de", "--lines", "1",
            "--digit-max", str(10**20), "--out", str(tmp_path / "out")]
    code = f"import sys; from multipar.cli import main; sys.exit(main({argv!r}))"
    env = {**os.environ, "PYTHONPATH": str(Path(multipar.__file__).parent.parent)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 1
    assert "2**64" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--languages", "en", "de", "nl", "--lines", "50"],
         "706f6858f02bdee0ab80751e01c04fcaba1d1aadb85307a561807d81ac30c353"),
        # about half of the raw draws of a 2**63 + 1 range are rejected
        (["--languages", "en", "de", "nl", "--lines", "50", "--digit-min", "0",
          "--digit-max", "9223372036854775808", "--tokens-per-line", "7"],
         "123fb65a23af213dc2224581f5c30ac0c779e46fd4c910fd7ded411a97f60011"),
        # several chunks per direction, with line indices of 4 digits
        (["--languages", "en", "de", "--lines", "5000"],
         "ae7b82ac390ea55bc59ff8a9a7b01c9c8ea5acde7e8e68ec7d3363193951ac1d"),
    ],
    ids=["default-range", "rejection", "chunks"],
)
def test_number_probe_bytes_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "numbers"
    assert main(["probe-numbers", *argv, "--seed", "7", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "records.tsv").read_bytes()).hexdigest() == digest


# --- dictionaries -------------------------------------------------------------------


def test_dictionary_validation():
    with pytest.raises(ProbeError, match="dictionary pair with identical languages"):
        pivot_dictionaries(grouped({"en": [("a", "b")], "de": [("a", "c")]}), seed=0)
    corpus = pivot_dictionaries({"de": {"dog": {"Hund"}}, "nl": {"dog": {"hond"}}}, seed=0)
    ds = build_pairwise(corpus, (Direction("de", "en"),))
    assert [(r.src_text, r.tgt_text) for r in ds.records] == [("Hund", "dog")]


def test_load_muse_dictionary(tmp_path):
    path = tmp_path / "en-de.txt"
    path.write_text("dog\tHund\ncat Katze\n\ndog K\u00f6ter\ndog Hund\n", encoding="utf-8")
    assert load_muse_dictionary(path) == {"dog": {"Hund", "K\u00f6ter"}, "cat": {"Katze"}}
    bad = tmp_path / "bad.txt"
    bad.write_text("just-one-field\n", encoding="utf-8")
    with pytest.raises(ProbeError):
        load_muse_dictionary(bad)


@pytest.mark.parametrize(
    "line, fields",
    [("dog\t", 1), ("\tHund", 1), ("dog Hu\u00a0nd", 3), ("dog Hund K\u00f6ter", 3)],
    ids=["empty-foreign", "empty-english", "nbsp", "three-fields"],
)
def test_load_muse_dictionary_rejects_a_bad_entry_at_its_line(tmp_path, line, fields):
    # NBSP is whitespace to str.split, so it splits a word in two
    path = tmp_path / "en-de.txt"
    path.write_text(f"cat Katze\n{line}\n", encoding="utf-8")
    with pytest.raises(ProbeError) as exc:
        load_muse_dictionary(path)
    assert str(exc.value) == f"{path}:2: expected 2 fields, got {fields}"


def chosen_entries(corpus, code, english_code="en"):
    """The (headword, choice) entries of one language, in row order."""
    return tuple(zip(corpus.columns[english_code], corpus.columns[code]))


UNIQUE_DICTS = {
    "de": [("dog", "Hund"), ("cat", "Katze"), ("house", "Haus")],
    "nl": [("dog", "hond"), ("cat", "kat"), ("tree", "boom")],
    "fr": [("dog", "chien"), ("cat", "chat"), ("house", "maison")],
}


def test_pivoting_unique_translations_equals_brute_force_closure():
    corpus = pivot_dictionaries(grouped(UNIQUE_DICTS), seed=0)
    # shared headwords: dog, cat
    assert chosen_entries(corpus, "de") == (("cat", "Katze"), ("dog", "Hund"))
    assert corpus.row_ids == (0, 1)
    for a, b in itertools.combinations(sorted(UNIQUE_DICTS), 2):
        expected = brute_force_join(
            [(e, w) for e, w in UNIQUE_DICTS[a] if e in ("cat", "dog")],
            [(e, w) for e, w in UNIQUE_DICTS[b] if e in ("cat", "dog")],
        )
        assert set(zip(corpus.columns[a], corpus.columns[b])) == expected


AMBIGUOUS_DICTS = {
    "de": [("dog", "Hund"), ("walk", "gehen"), ("walk", "laufen")],
    "nl": [("dog", "hond"), ("walk", "lopen"), ("walk", "wandelen")],
    "fr": [("dog", "chien"), ("walk", "marcher")],
}


def test_pivoting_one_to_many_consistent_with_chosen_en_centric():
    corpus = pivot_dictionaries(grouped(AMBIGUOUS_DICTS), seed=3)
    # every chosen translation is one of the input candidates
    candidates = {
        code: {en: {w for e, w in entries if e == en} for en in ("dog", "walk")}
        for code, entries in AMBIGUOUS_DICTS.items()
    }
    for code in AMBIGUOUS_DICTS:
        for en_word, foreign in chosen_entries(corpus, code):
            assert foreign in candidates[code][en_word]
    # pivoted pairs equal the brute-force join of the chosen restrictions,
    # so one choice per (headword, language) is reused everywhere
    pairs = list(itertools.combinations(sorted(AMBIGUOUS_DICTS), 2))
    for a, b in pairs:
        expected = brute_force_join(chosen_entries(corpus, a), chosen_entries(corpus, b))
        assert set(zip(corpus.columns[a], corpus.columns[b])) == expected
    # within the full brute-force closure of the raw inputs
    for a, b in pairs:
        closure = brute_force_join(AMBIGUOUS_DICTS[a], AMBIGUOUS_DICTS[b])
        assert set(zip(corpus.columns[a], corpus.columns[b])) <= closure


def test_pivoting_deterministic_and_seed_sensitive():
    a = pivot_dictionaries(grouped(AMBIGUOUS_DICTS), seed=3)
    b = pivot_dictionaries(grouped(AMBIGUOUS_DICTS), seed=3)
    assert a == b
    dicts = grouped(AMBIGUOUS_DICTS)
    outcomes = {pivot_dictionaries(dicts, seed=s).columns["de"] for s in range(20)}
    assert len(outcomes) > 1  # both walk candidates get chosen across seeds


def test_pivoting_seven_languages_yields_28_equal_size_dictionaries():
    codes = ["de", "nl", "fr", "es", "it", "pt", "ro"]
    headwords = [f"word{i}" for i in range(10)]
    dicts = {c: [(w, f"{w}_{c}") for w in headwords] for c in codes}
    corpus = pivot_dictionaries(grouped(dicts), seed=0)
    assert corpus.languages == ("en", *sorted(codes))
    pairs = list(itertools.combinations(corpus.languages, 2))
    assert len(pairs) == 28
    assert sum("en" in pair for pair in pairs) == 7
    assert {len(set(zip(corpus.columns[a], corpus.columns[b]))) for a, b in pairs} == {10}
    ds = build_pairwise(corpus, enumerate_directions(corpus.languages))
    assert {len(positions) for _d, _s, _t, positions in ds.blocks} == {10}
    assert len(ds.blocks) == 56


def test_pivoting_needs_two_dictionaries():
    with pytest.raises(ProbeError):
        pivot_dictionaries(grouped({"de": [("a", "b")]}), seed=0)


# --- word-pair datasets ---------------------------------------------------------------


def test_word_pairs_mirror_orientations():
    corpus = pivot_dictionaries(grouped(UNIQUE_DICTS), seed=0)
    dirs = enumerate_directions(["de", "nl"], include_english_centric=False)
    ds = build_pairwise(corpus, dirs)
    assert len(ds) == 4  # 2 entries x 2 orientations
    forward = {(r.src_text, r.tgt_text) for r in ds.records if str(r.direction) == "de-nl"}
    backward = {(r.tgt_text, r.src_text) for r in ds.records if str(r.direction) == "nl-de"}
    assert forward == backward


def write_word_dictionaries(directory, seed):
    """Seeded en-<code>.txt files: 60 candidate headwords per language, each
    kept with probability 0.8 and given one to three translations, written
    with tabs or spaces in a shuffled line order."""
    rnd = random.Random(seed)
    directory.mkdir()
    for code in ("de", "nl", "sv", "fr", "es", "ru"):
        lines = []
        for i in range(60):
            if rnd.random() < 0.8:
                for j in range(rnd.randint(1, 3)):
                    sep = rnd.choice(["\t", " "])
                    lines.append(f"word{i}{sep}{code}{i}_{rnd.randint(0, 9)}{'x' * j}\n")
        rnd.shuffle(lines)
        (directory / f"en-{code}.txt").write_text("".join(lines), encoding="utf-8")


@pytest.mark.parametrize(
    "argv, digest",
    [
        ([], "d0b75014443e28381b7e85127791b23f142d3c0709bbc40cb978a6a0b3773167"),
        (["--format", "split_files"],
         "31c7d1e1285c892e183e61c7ca52d2b5340bf40d865e7efa2f7a6e14af3cf3cc"),
        (["--exclude", "nl", "ru"],
         "3dedc717616f663074b8f5e336a697d4050437d8fcc094c7494084c004fb847e"),
        (["--fraction", "0.3"],
         "d3c4687b1c989748d48006c95e54092a19e070d2b1970b1779094cbb748c5eea"),
        (["--family", "Germanic", "--no-english-centric"],
         "52d84b41fa59297b6dc313a8e0147d7e1476b46bc03c8953f9b766eec50847fc"),
    ],
    ids=["tsv", "split_files", "exclude", "fraction", "family"],
)
def test_word_probe_bytes_are_pinned(tmp_path, argv, digest):
    write_word_dictionaries(tmp_path / "dicts", seed=22)
    out = tmp_path / "words"
    assert main(["probe-words", "--dictionaries", str(tmp_path / "dicts"), *argv,
                 "--seed", "5", "--out", str(out)]) == 0
    # a sha256sum listing of every output file but run.json
    listing = "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
        for p in sorted(out.iterdir()) if p.name != "run.json"
    )
    assert hashlib.sha256(listing.encode()).hexdigest() == digest


# --- token budgets -----------------------------------------------------------------


def test_match_token_budget_rounds_to_nearest_line():
    lines = match_token_budget(1000, tokens_per_line=10, num_directions=10)
    assert lines == 10
    assert lines * 10 * 10 == 1000
    assert match_token_budget(1049, tokens_per_line=10, num_directions=10) == 10
    assert match_token_budget(1050, tokens_per_line=10, num_directions=10) == 11


def test_match_token_budget_minimum_one_line():
    assert match_token_budget(3, tokens_per_line=10, num_directions=56) == 1


def test_budget_then_generate_hits_budget(tmp_path):
    # 6 directions: 597 tokens round to 10 lines of 10 tokens each
    lines = match_token_budget(597, tokens_per_line=10, num_directions=6)
    out = tmp_path / "numbers"
    argv = ["probe-numbers", "--languages", "en", "de", "nl", "--token-budget", "597",
            "--seed", "0", "--out", str(out)]
    assert main(argv) == 0
    records = [line.split("\t") for line in (out / "records.tsv").read_text().splitlines()]
    achieved = lines * 10 * 6
    assert sum(len(src.split()) for _s, _t, src, _tgt in records) == achieved == 600
    assert sum(len(tgt.split()) for _s, _t, _src, tgt in records) == 600


def test_negative_token_budget_exits_1(tmp_path, capsys):
    argv = ["probe-numbers", "--languages", "en", "de", "--seed", "0"]
    out = tmp_path / "negative"
    assert main([*argv, "--token-budget", "-50", "--out", str(out)]) == 1
    assert "token budget must be >= 0, got -50" in capsys.readouterr().err
    assert not out.exists()
    # a budget of 0 keeps the minimum of one line per direction
    out = tmp_path / "zero"
    assert main([*argv, "--token-budget", "0", "--out", str(out)]) == 0
    assert len((out / "records.tsv").read_text().splitlines()) == 2
