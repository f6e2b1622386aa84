import json
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from multipar.corpus import (
    CorpusError,
    MultiParallelCorpus,
    load_bitext_tsv,
    load_corpus_dir,
    mine_pivot_aligned,
    normalize_pivot,
    save_corpus,
)

from helpers import brute_force_mine, full_corpus, make_mining_fixture


def fully_parallel(corpus):
    return all(all(column) for column in corpus.columns.values())


# --- construction and validation ----------------------------------------------


def test_requires_two_languages():
    with pytest.raises(CorpusError):
        MultiParallelCorpus({"en": ("x",)}, (0,))


def test_rejects_duplicate_row_ids():
    with pytest.raises(CorpusError):
        MultiParallelCorpus({"en": ("a", "b"), "de": ("", "")}, (0, 0))


def test_rejects_embedded_newline():
    with pytest.raises(CorpusError):
        MultiParallelCorpus({"en": ("a\nb",), "de": ("c",)}, (0,))


def test_an_embedded_line_end_names_the_first_bad_row():
    def rejected(column):
        good = tuple(f"en {i}" for i in range(len(column)))
        with pytest.raises(CorpusError) as info:
            MultiParallelCorpus({"en": good, "xx": column}, tuple(range(100, 100 + len(column))))
        return str(info.value)

    column = [f"xx {i}" for i in range(9)]
    column[4] = "a\rb"
    assert rejected(column) == "embedded newline in 'xx' sentence (row 104)"
    column[7] = "c\nd"
    assert rejected(column) == "embedded newline in 'xx' sentence (row 104)"
    long = [f"xx {i}" for i in range(10_000)]
    long[9_999] = "\r"
    assert rejected(long) == "embedded newline in 'xx' sentence (row 10099)"
    long[9_000] = "\n"
    assert rejected(long) == "embedded newline in 'xx' sentence (row 9100)"
    # the columns are checked in order
    with pytest.raises(CorpusError, match=r"^embedded newline in 'de' sentence \(row 1\)$"):
        MultiParallelCorpus({"en": ("a", "b"), "de": ("c", "d\n"), "nl": ("\r", "")}, (0, 1))


def test_rejects_ragged_columns():
    with pytest.raises(CorpusError):
        MultiParallelCorpus({"en": ("a", "b"), "de": ("c",)}, (0, 1))


def test_partial_rows_allowed():
    corpus = MultiParallelCorpus(
        {"en": ("a", "c"), "de": ("b", "d"), "nl": ("", "e")},
        (0, 1),
    )
    assert not fully_parallel(corpus)
    assert corpus.columns["nl"] == ("", "e")  # row 0 lacks nl


# --- file loading ----------------------------------------------------------------
# a directory without manifest.json: every <code>.txt, rows numbered from 0


def test_load_corpus_aligns_lines(tmp_path):
    (tmp_path / "en.txt").write_text("one\ntwo\n", encoding="utf-8")
    (tmp_path / "de.txt").write_text("eins\nzwei\n", encoding="utf-8")
    corpus = load_corpus_dir(tmp_path)
    assert corpus.n_rows == 2 and corpus.row_ids == (0, 1)
    assert corpus.columns == {"en": ("one", "two"), "de": ("eins", "zwei")}


def test_load_corpus_line_count_mismatch_names_files(tmp_path):
    (tmp_path / "en.txt").write_text("one\ntwo\n", encoding="utf-8")
    (tmp_path / "de.txt").write_text("eins\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus_dir(tmp_path)
    assert "en.txt" in str(err.value) and "de.txt" in str(err.value)


def test_load_corpus_rejects_invalid_utf8(tmp_path):
    (tmp_path / "en.txt").write_bytes(b"\xff\xfe broken\n")
    (tmp_path / "de.txt").write_text("ok\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        load_corpus_dir(tmp_path)


def test_save_load_round_trip(tmp_path):
    corpus = full_corpus(["en", "de", "nl"], 7)
    save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus_dir(tmp_path / "c")
    assert loaded.languages == corpus.languages
    assert loaded.columns == corpus.columns
    assert loaded.row_ids == corpus.row_ids


def test_save_load_preserves_nonconsecutive_row_ids(tmp_path):
    full = full_corpus(["en", "de"], 10)
    corpus = MultiParallelCorpus(
        {code: tuple(column[i] for i in (8, 3, 5)) for code, column in full.columns.items()},
        (8, 3, 5),
    )
    save_corpus(corpus, tmp_path / "c")
    loaded = load_corpus_dir(tmp_path / "c")
    assert loaded.row_ids == (8, 3, 5)
    assert loaded.columns == corpus.columns


_CELL = st.one_of(st.just(""), st.text(st.characters(exclude_characters="\n\r"), max_size=6))


@st.composite
def corpora(draw):
    codes = draw(
        st.lists(st.sampled_from(["en", "de", "nl", "fr", "zh"]), min_size=2, max_size=4, unique=True)
    )
    k = draw(st.integers(0, 6))
    columns = {c: tuple(draw(st.lists(_CELL, min_size=k, max_size=k))) for c in codes}
    row_ids = draw(st.lists(st.integers(), min_size=k, max_size=k, unique=True))
    return MultiParallelCorpus(columns, tuple(row_ids))


def _encodable(text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


@settings(deadline=None)  # disk I/O per example
@given(corpora())
@example(MultiParallelCorpus({"en": ("c",), "de": ("",)}, (0,)))
@example(MultiParallelCorpus({"en": ("c", "d"), "de": ("", "x\ud800")}, (4, 9)))
def test_save_load_round_trip_keeps_missing_cells(corpus):
    bad = [
        (code, rid)
        for code, column in corpus.columns.items()
        for rid, text in zip(corpus.row_ids, column)
        if not _encodable(text)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        if bad:
            with pytest.raises(CorpusError) as err:
                save_corpus(corpus, tmp)
            code, rid = bad[0]
            assert f"{code}.txt" in str(err.value) and f"row {rid}" in str(err.value)
            return
        save_corpus(corpus, tmp)
        loaded = load_corpus_dir(tmp)
    assert loaded.languages == corpus.languages
    assert loaded.columns == corpus.columns
    assert loaded.row_ids == corpus.row_ids


def test_load_corpus_dir_rejects_manifest_row_id_count_mismatch(tmp_path):
    save_corpus(full_corpus(["en", "de"], 2), tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["row_ids"] = [7, 8, 9]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_corpus_dir(tmp_path)
    message = str(err.value)
    assert "manifest.json" in message and "3 row ids" in message and "2 lines" in message


def test_load_bitext_tsv(tmp_path):
    path = tmp_path / "de.tsv"
    path.write_text("hello\thallo\n\nbye\ttschüss\n", encoding="utf-8")
    assert load_bitext_tsv(path) == [("hello", "hallo"), ("bye", "tschüss")]


def test_load_bitext_tsv_field_count_error(tmp_path):
    path = tmp_path / "de.tsv"
    path.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(CorpusError) as err:
        load_bitext_tsv(path)
    assert ":1" in str(err.value)


# --- pivot mining ----------------------------------------------------------------


def test_normalize_pivot_trims_ascii_whitespace_only():
    assert normalize_pivot(" \thello world\r\n") == "hello world"
    assert normalize_pivot("Hello") == "Hello"  # no case folding
    assert normalize_pivot(" x") == " x"  # NBSP is not trimmed


def test_mine_small_example():
    bitexts = {
        "de": [("Good morning", "Guten Morgen"), ("Thanks", "Danke")],
        "nl": [("Thanks", "Bedankt"), ("Good morning", "Goedemorgen")],
    }
    corpus, stats = mine_pivot_aligned(bitexts)
    assert corpus.languages == ("en", "de", "nl")
    # row order follows the first bitext
    assert corpus.columns["en"] == ("Good morning", "Thanks")
    assert corpus.columns["nl"][0] == "Goedemorgen"
    assert stats.yield_rows == 2
    assert fully_parallel(corpus)


def test_mine_drops_ambiguous_pivots():
    bitexts = {
        "de": [("Hi", "Hallo"), ("Hi", "Servus"), ("Bye", "Tschüss")],
        "nl": [("Hi", "Hoi"), ("Bye", "Doei")],
    }
    corpus, stats = mine_pivot_aligned(bitexts)
    assert corpus.columns["en"] == ("Bye",)
    assert stats.duplicate_pivots_dropped == {"de": 1, "nl": 0}


def test_mine_joins_on_trimmed_pivot():
    bitexts = {
        "de": [("  Hello ", "Hallo")],
        "nl": [("Hello", "Hoi")],
    }
    corpus, _ = mine_pivot_aligned(bitexts)
    assert corpus.columns == {"en": ("Hello",), "de": ("Hallo",), "nl": ("Hoi",)}


def test_mine_empty_foreign_side_is_a_missing_cell():
    corpus, _ = mine_pivot_aligned({"de": [("Hi", "")], "nl": [("Hi", "Hoi")]})
    assert corpus.columns == {"en": ("Hi",), "de": ("",), "nl": ("Hoi",)}
    assert not fully_parallel(corpus)


def test_mine_never_joins_on_a_blank_pivot():
    # a blank English side once joined "guten tag" to "goedemorgen"
    bitexts = {
        "de": [(" ", "guten tag"), ("Hi", "Hallo")],
        "nl": [("", "goedemorgen"), ("Hi", "Hoi")],
    }
    corpus, stats = mine_pivot_aligned(bitexts)
    assert corpus.columns == {"en": ("Hi",), "de": ("Hallo",), "nl": ("Hoi",)}
    assert stats.yield_rows == 1
    assert stats.input_pairs == {"de": 2, "nl": 2}


_pivots = st.sampled_from(["", " ", "\t", "a", " a", "b", "c d", "e"])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.tuples(_pivots, st.text("xyz", max_size=2)), max_size=6),
                min_size=2, max_size=3))
def test_mine_matches_brute_force_on_blank_and_repeated_pivots(pairs):
    bitexts = {code: rows for code, rows in zip(("de", "nl", "fr"), pairs)}
    corpus, stats = mine_pivot_aligned(bitexts)
    assert corpus.columns == brute_force_mine(bitexts)
    assert stats.yield_rows == corpus.n_rows


def test_mine_requires_two_bitexts():
    with pytest.raises(CorpusError):
        mine_pivot_aligned({"de": [("a", "b")]})


def test_mine_rejects_pivot_keyed_bitext():
    with pytest.raises(CorpusError):
        mine_pivot_aligned({"en": [("a", "b")], "de": [("a", "c")]})


def test_mine_matches_brute_force_on_large_fixture():
    bitexts = make_mining_fixture(n_lines=1000)
    corpus, _ = mine_pivot_aligned(bitexts)
    expected = brute_force_mine(bitexts)
    assert corpus.columns == expected
    assert corpus.row_ids == tuple(range(len(expected["en"])))
    assert len(expected["en"]) > 0  # fixture must actually exercise the join
