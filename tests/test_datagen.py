import hashlib
import itertools
import json
import math
import tempfile
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multipar.cli import main
from multipar.corpus import MultiParallelCorpus, save_corpus
from multipar.datagen import (
    DatagenError,
    Direction,
    TAGS,
    FtDataset,
    json_text,
    apply_tags,
    build_multidirectional_setting,
    build_multiparallel_setting,
    build_pairwise,
    emit_bitext,
    enumerate_directions,
    partition_buckets,
    restrict_directions_to_family,
    sample_directions,
    sample_rows,
    tag_bitext,
)
from multipar.registry import ec30
from multipar.report import load_scores
from multipar.rng import stream

from helpers import full_corpus

EC30_CODES = list(ec30().codes)


# --- directions -----------------------------------------------------------------


def test_direction_str_and_parse(tmp_path):
    d = Direction("de", "nl")
    assert str(d) == "de-nl"
    # a score TSV line names a direction by its two language fields
    path = tmp_path / "scores.tsv"
    path.write_text("src_lang\ttgt_lang\tmetric\tvalue\tcount\nde\tnl\tchrf\t1\t0\n")
    assert [d for d, _ in load_scores(path)] == [d]
    with pytest.raises(DatagenError):
        Direction("de", "de")


@pytest.mark.parametrize("src, tgt", [("", "nl"), ("de", ""), ("", "")])
def test_direction_rejects_empty_code(src, tgt):
    with pytest.raises(DatagenError, match="empty language code"):
        Direction(src, tgt)


@pytest.mark.parametrize("src, tgt", [("a-b", "c"), ("a", "b-c"), ("-", "de")])
def test_direction_rejects_a_hyphen_in_a_code(src, tgt):
    # the name src-tgt would not tell a-b -> c from a -> b-c
    with pytest.raises(DatagenError, match="direction with a '-' in a language code"):
        Direction(src, tgt)


def test_enumerate_counts_match_n_times_n_minus_1():
    for n in (2, 3, 8):
        codes = [f"l{i}" for i in range(n - 1)] + ["en"]
        dirs = enumerate_directions(codes)
        assert len(dirs) == n * (n - 1)


def test_enumerate_is_lexicographic_and_deduplicated():
    dirs = enumerate_directions(["nl", "de", "en", "de"])
    assert list(dirs) == [
        Direction(a, b)
        for a, b in itertools.permutations(["de", "en", "nl"], 2)
    ]


def test_enumerate_exclusions_and_no_english():
    dirs = enumerate_directions(["en", "de", "nl", "fr"], excluded_languages={"fr"})
    assert len(dirs) == 6
    zs = enumerate_directions(["en", "de", "nl", "fr"], include_english_centric=False)
    assert len(zs) == 6
    assert all(not d.is_english_centric() for d in zs)


def test_enumerate_needs_two_languages():
    with pytest.raises(DatagenError):
        enumerate_directions(["en", "de"], excluded_languages={"de"})


def test_english_centric_vs_zero_shot_split():
    dirs = enumerate_directions(["en", "de", "nl"])
    zero_shot = enumerate_directions(["en", "de", "nl"], include_english_centric=False)
    english_centric = [d for d in dirs if d.is_english_centric()]
    assert len(english_centric) == 4
    assert list(zero_shot) == [Direction("de", "nl"), Direction("nl", "de")]
    assert set(english_centric) | set(zero_shot) == set(dirs)


# --- direction sampling -----------------------------------------------------------


def test_sample_directions_uses_floor():
    dirs = enumerate_directions(EC30_CODES, excluded_languages={"oc"})
    assert len(dirs) == 870
    assert len(sample_directions(dirs, 0.1, seed=1)) == 87
    assert len(sample_directions(dirs, 0.999, seed=1)) == 869


@pytest.mark.parametrize("fraction, count", [(0.57, 57), (0.29, 29), (0.01, 1)])
def test_sample_directions_floors_the_written_fraction(fraction, count):
    # 0.57 * 100 is 56.99999999999999 in binary floating point
    dirs = enumerate_directions(EC30_CODES)[:100]
    sample = sample_directions(dirs, fraction, seed=1)
    assert len(sample) == count
    assert set(sample) <= set(sample_directions(dirs, 0.9, seed=1))


def test_sample_directions_nested_across_fractions():
    dirs = enumerate_directions(EC30_CODES)
    small = set(sample_directions(dirs, 0.1, seed=5))
    large = set(sample_directions(dirs, 0.2, seed=5))
    assert small < large


def test_sample_directions_deterministic_and_seed_sensitive():
    dirs = enumerate_directions(["en", "de", "nl", "fr", "es"])
    a = list(sample_directions(dirs, 0.5, seed=3))
    b = list(sample_directions(dirs, 0.5, seed=3))
    c = list(sample_directions(dirs, 0.5, seed=4))
    assert a == b
    assert a != c


def test_sample_directions_validates_fraction():
    dirs = enumerate_directions(["en", "de"])
    with pytest.raises(DatagenError):
        sample_directions(dirs, 0.0, seed=0)
    with pytest.raises(DatagenError):
        sample_directions(dirs, 1.5, seed=0)
    with pytest.raises(DatagenError):
        sample_directions(dirs, 0.01, seed=0)  # floor would select none


def test_restrict_to_family():
    reg = ec30()
    dirs = enumerate_directions(EC30_CODES)
    germanic = restrict_directions_to_family(dirs, "Germanic", reg)
    assert len(germanic) == 42  # 7 languages including English
    zero_shot = enumerate_directions(EC30_CODES, include_english_centric=False)
    assert len(restrict_directions_to_family(zero_shot, "Germanic", reg)) == 30  # 6 languages
    with pytest.raises(ValueError):  # unknown family comes from the registry
        restrict_directions_to_family(dirs, "Klingon", reg)


# --- row sampling -----------------------------------------------------------------


def test_sample_rows_nested_and_distinct():
    corpus = full_corpus(["en", "de"], 100)
    small = sample_rows(corpus, 10, seed=2)
    large = sample_rows(corpus, 20, seed=2)
    assert small == large[:10]
    assert len(set(large)) == 20


def test_sample_rows_range_check():
    corpus = full_corpus(["en", "de"], 5)
    with pytest.raises(DatagenError):
        sample_rows(corpus, 0, seed=0)
    with pytest.raises(DatagenError):
        sample_rows(corpus, 6, seed=0)


# --- pairwise building ------------------------------------------------------------


def test_build_pairwise_count_and_order():
    corpus = full_corpus(["en", "de", "nl"], 4)
    dirs = enumerate_directions(["en", "de", "nl"])
    ds = build_pairwise(corpus, dirs)
    assert len(ds) == 6 * 4
    # direction-major ordering
    assert [str(r.direction) for r in ds.records[:8]] == ["de-en"] * 4 + ["de-nl"] * 4
    first = ds.records[0]
    assert first.src_text.startswith("de ") and first.tgt_text.startswith("en ")


def test_build_pairwise_skips_empty_sides_and_counts_them():
    columns = {"en": ("hello", "bye", "again"), "de": ("hallo", "", "")}
    corpus = MultiParallelCorpus(columns, (0, 1, 2))
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    assert len(ds) == 2
    assert ds.manifest["skipped"] == {"de-en": 2, "en-de": 2}


def test_build_pairwise_respects_row_subset_order():
    corpus = full_corpus(["en", "de"], 5)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]), row_ids=[3, 1])
    assert [(str(r.direction), r.src_text) for r in ds.records] == [
        ("de-en", "de r 3 alpha beta"), ("de-en", "de r 1 alpha beta"),
        ("en-de", "en r 3 alpha beta"), ("en-de", "en r 1 alpha beta"),
    ]
    # blocks reference the corpus columns; one position array serves both directions
    (d0, s0, t0, p0), (d1, s1, t1, p1) = ds.blocks
    assert s0 is t1 is corpus.columns["de"] and t0 is s1 is corpus.columns["en"]
    assert p0 is p1 and list(p0) == [3, 1]


def test_build_pairwise_validates_inputs():
    corpus = full_corpus(["en", "de"], 3)
    with pytest.raises(DatagenError):
        build_pairwise(corpus, enumerate_directions(["en", "fr"]))
    with pytest.raises(DatagenError):
        build_pairwise(corpus, enumerate_directions(["en", "de"]), row_ids=[9])


def test_bitext_size_parity_across_row_and_direction_tradeoff():
    # x% of directions with y rows vs y% with x rows keeps record counts equal
    corpus = full_corpus(["en", "de", "nl", "fr", "es"], 800)
    dirs = enumerate_directions(corpus.languages)  # 20 directions
    a = build_pairwise(
        corpus, sample_directions(dirs, 0.8, seed=1), sample_rows(corpus, 100, 1)
    )
    b = build_pairwise(
        corpus, sample_directions(dirs, 0.1, seed=1), sample_rows(corpus, 800, 1)
    )
    assert len(a) == len(b) == 1600


# --- buckets ---------------------------------------------------------------------


def test_partition_buckets_sizes_1997_into_10():
    buckets = partition_buckets(list(range(1997)), 10, seed=0)
    assert sorted(map(len, buckets)) == [199] * 3 + [200] * 7


def test_partition_buckets_total_and_determinism():
    rows = list(range(50))
    a = partition_buckets(rows, 7, seed=9)
    b = partition_buckets(rows, 7, seed=9)
    assert a == b
    assert sorted(rid for bucket in a for rid in bucket) == rows


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(min_value=-(10**9), max_value=10**9), min_size=1, max_size=80,
             unique=True),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.data(),
)
def test_partition_buckets_deals_one_permutation_round_robin(row_ids, seed, data):
    num_buckets = data.draw(st.integers(min_value=1, max_value=len(row_ids)))
    buckets = partition_buckets(row_ids, num_buckets, seed)
    # a partition of the row ids into sorted buckets whose sizes differ by at most one
    assert len(buckets) == num_buckets
    assert sorted(rid for bucket in buckets for rid in bucket) == sorted(row_ids)
    assert all(bucket == sorted(bucket) for bucket in buckets)
    sizes = [len(bucket) for bucket in buckets]
    assert max(sizes) - min(sizes) <= 1
    # the row -> bucket map that the buckets were once stored as
    perm = stream(seed, "buckets").permutation(row_ids)
    mapping = {rid: i % num_buckets for i, rid in enumerate(perm)}
    assert buckets == [
        sorted(rid for rid, b in mapping.items() if b == bucket) for bucket in range(num_buckets)
    ]


def test_partition_buckets_validates():
    with pytest.raises(DatagenError):
        partition_buckets([1, 2], 3, seed=0)
    with pytest.raises(DatagenError):
        partition_buckets([1, 2], 0, seed=0)


def test_settings_have_equal_record_counts_with_equal_buckets():
    codes = ["de", "en", "fr", "nl", "pt"]  # 5 languages, 10 unordered pairs
    corpus = full_corpus(codes, 2000)
    buckets = partition_buckets(list(corpus.row_ids), 10, seed=4)
    multi_par = build_multiparallel_setting(corpus, buckets, 0, codes, seed=4)
    pairs = dict(enumerate(itertools.combinations(codes, 2)))
    multi_dir = build_multidirectional_setting(corpus, buckets, codes, seed=4)
    assert len(multi_par) == len(multi_dir) == 4000
    # each bucket contributes exactly its two directions, one block each,
    # over that bucket's rows
    assert [str(d) for d, _s, _t, _p in multi_dir.blocks] == [
        str(d) for a, b in pairs.values() for d in (Direction(a, b), Direction(b, a))
    ]
    for bucket, (a, b) in pairs.items():
        rows = sorted(buckets[bucket])
        _d, sources, targets, positions = multi_dir.blocks[2 * bucket]
        assert [sources[i] for i in positions] == [corpus.columns[a][r] for r in rows]
        assert [targets[i] for i in positions] == [corpus.columns[b][r] for r in rows]


@pytest.mark.parametrize("bucket", [-1, 3])
def test_multiparallel_rejects_a_bucket_out_of_range(bucket):
    corpus = full_corpus(["en", "de"], 9)
    buckets = partition_buckets(corpus.row_ids, 3, seed=0)
    with pytest.raises(DatagenError, match=f"invalid bucket index {bucket}"):
        build_multiparallel_setting(corpus, buckets, bucket, ["en", "de"])


def test_multidirectional_requires_total_pair_map():
    corpus = full_corpus(["en", "de", "nl"], 9)
    buckets = partition_buckets(list(corpus.row_ids), 3, seed=0)
    # 2 languages give 1 pair for 3 buckets
    with pytest.raises(DatagenError):
        build_multidirectional_setting(corpus, buckets, ["en", "de"])


# --- tags ------------------------------------------------------------------------


def test_one_tag_prepends_target_tag_to_source():
    corpus = full_corpus(["en", "de"], 1)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    tagged = apply_tags(ds, "one_tag")
    by_dir = {str(r.direction): r for r in tagged.records}
    assert by_dir["de-en"].src_text.startswith("<2en> ")
    assert by_dir["de-en"].tgt_text == ds.records[0].tgt_text
    assert tagged.manifest["tag_strategy"] == "one_tag"


def test_two_tag_tags_both_sides():
    corpus = full_corpus(["en", "de"], 1)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    tagged = apply_tags(ds, "two_tag")
    by_dir = {str(r.direction): r for r in tagged.records}
    assert by_dir["en-de"].src_text.startswith("<src:en> ")
    assert by_dir["en-de"].tgt_text.startswith("<tgt:de> ")


def test_double_tagging_is_an_error():
    corpus = full_corpus(["en", "de"], 1)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    tagged = apply_tags(ds, "one_tag")
    with pytest.raises(DatagenError):
        apply_tags(tagged, "two_tag")
    # retagging with "none" is a no-op, not an error
    assert apply_tags(tagged, "none") is tagged


def test_unknown_tag_kind_rejected(tmp_path):
    corpus = full_corpus(["en", "de"], 1)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    with pytest.raises(DatagenError, match="unknown tag strategy 'three_tag'"):
        apply_tags(ds, "three_tag")
    # a manifest naming an unknown strategy is refused before anything is made
    bad = FtDataset(ds.blocks, {**ds.manifest, "tag_strategy": "three_tag"})
    with pytest.raises(DatagenError, match="unknown tag strategy 'three_tag'"):
        emit_bitext(bad, "tsv", tmp_path / "out")
    assert not (tmp_path / "out").exists()
    emit_bitext(ds, "tsv", tmp_path / "plain")
    with pytest.raises(DatagenError, match="unknown tag strategy 'three_tag'"):
        tag_bitext(tmp_path / "plain", "three_tag", tmp_path)


# --- emission ---------------------------------------------------------------------


def test_emit_tsv_round_trip(tmp_path):
    corpus = full_corpus(["en", "de", "nl"], 3)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de", "nl"]))
    emit_bitext(ds, "tsv", tmp_path / "ds")
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["counts"]["records"] == len(ds)
    assert manifest["counts"]["per_direction"]["de-en"] == 3
    # read back and written untagged, the dataset is the same bytes
    assert main(["tag", "--dataset", str(tmp_path / "ds"), "--tag", "none",
                 "--out", str(tmp_path / "back")]) == 0
    for name in ("records.tsv", "manifest.json"):
        assert (tmp_path / "back" / name).read_bytes() == (tmp_path / "ds" / name).read_bytes()


def test_emit_split_files_aligned(tmp_path):
    corpus = full_corpus(["en", "de"], 4)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    emit_bitext(ds, "split_files", tmp_path)
    src = (tmp_path / "de-en.src").read_text().splitlines()
    tgt = (tmp_path / "de-en.tgt").read_text().splitlines()
    assert len(src) == len(tgt) == 4
    assert src[0].startswith("de ") and tgt[0].startswith("en ")


def test_emit_rejects_empty_and_tabs(tmp_path):
    corpus = full_corpus(["en", "de"], 1)
    ds = build_pairwise(corpus, enumerate_directions(["en", "de"]))
    with pytest.raises(DatagenError):
        emit_bitext(ds, "parquet", tmp_path)
    bad = FtDataset(((Direction("de", "en"), ("ok", "has\ttab"), ("x", "y"), range(2)),), {})
    with pytest.raises(DatagenError, match=r"^de-en row 1: embedded tab/newline"):
        emit_bitext(bad, "tsv", tmp_path / "out")
    assert not (tmp_path / "out").exists()
    # a bad cell no record uses is never written, so it is no error
    emit_bitext(FtDataset(((Direction("de", "en"), ("ok", "has\ttab"), ("x", "y"), range(1)),)),
                "tsv", tmp_path / "first")
    assert (tmp_path / "first" / "records.tsv").read_text() == "de\ten\tok\tx\n"
    with pytest.raises(DatagenError):
        emit_bitext(FtDataset((), {}), "tsv", tmp_path)


def test_emit_split_files_skips_fully_skipped_direction(tmp_path):
    columns = {"en": ("hello", "bye"), "de": ("hallo", "tschüss"), "nl": ("", "")}
    corpus = MultiParallelCorpus(columns, (0, 1))
    ds = build_pairwise(corpus, enumerate_directions(["en", "de", "nl"]))
    assert [str(d) for d, _s, _t, _p in ds.blocks] == ["de-en", "en-de"]
    emit_bitext(ds, "split_files", tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "de-en.src", "de-en.tgt", "en-de.src", "en-de.tgt", "manifest.json"
    ]
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["counts"] == {"records": 4, "per_direction": {"de-en": 2, "en-de": 2}}


def test_emit_split_files_joins_a_recurring_direction(tmp_path):
    de_en, en_de = Direction("de", "en"), Direction("en", "de")
    one = range(1)
    ds = FtDataset(((de_en, ("a",), ("b",), one), (en_de, ("c",), ("d",), one),
                    (de_en, ("e",), ("f",), one)))
    emit_bitext(ds, "split_files", tmp_path)
    assert (tmp_path / "de-en.src").read_text() == "a\ne\n"
    assert (tmp_path / "de-en.tgt").read_text() == "b\nf\n"
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["counts"]["per_direction"] == {"de-en": 2, "en-de": 1}


def test_dataset_rejects_empty_and_ragged_blocks():
    d = Direction("de", "en")
    with pytest.raises(DatagenError, match="block for de-en has no records"):
        FtDataset(((d, ("a",), ("x",), range(0)),))
    ds = FtDataset(((d, ("a", "b", "c"), ("x", "y", "z"), array("I", [2, 0])),))
    assert len(ds) == 2
    assert [(r.src_text, r.tgt_text) for r in ds.records] == [("c", "z"), ("a", "x")]


def test_read_bitext_tsv_groups_consecutive_lines_without_manifest(tmp_path, capsys):
    records = "de\ten\ta\tb\nde\ten\tc\td\nen\tde\te\tf\nde\ten\tg\th\n"
    (tmp_path / "records.tsv").write_text(records, encoding="utf-8")
    argv = ["tag", "--dataset", str(tmp_path), "--tag", "none", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert (tmp_path / "out" / "records.tsv").read_text(encoding="utf-8") == records
    assert json.loads((tmp_path / "out" / "manifest.json").read_text()) == {
        "tag_strategy": "none",
        "format": "tsv",
        "counts": {"records": 4, "per_direction": {"de-en": 3, "en-de": 1}},
    }
    (tmp_path / "records.tsv").write_text("de\ten\ta\n", encoding="utf-8")
    assert main(argv) == 1
    assert f"{tmp_path / 'records.tsv'}:1: expected 4 fields, got 3" in capsys.readouterr().err


def test_json_text_is_the_indented_json_dumps():
    cases = [
        {"rows": []},
        {"rows": list(range(100_000)), "directions": ["de-nl", "nl-de"], "seed": None},
        {"corpus_id": "çorpüs 😀", "skipped": {"de-ñl": 2},
         "pair_for_bucket": {"0": ["de", "ü"]}},
        {"nested": [[], {}, [1, [2.5, True]], {"b": "\t\"\\", "a": (1, "x")}],
         "int_keys": {2: 1, 1: 0}},
        {"mapping": {str(1000 - 7 * i): i % 6 for i in range(2_000)}, "num_buckets": 6},
        {"mapping": {}, "flat": {"b": 1.5, "a": None, "ü": True, "c": "x\ty"}},
        [], {}, "plain", 3,
    ]
    for value in cases:
        assert json_text(value) == json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False)
        assert json_text(value, ensure_ascii=True) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_text_rejects_a_non_finite_number(bad):
    # alone, in a list and a dict of scalars, and nested
    for value in [bad, [1, bad], {"a": bad}, {"a": [{"b": bad}]}, [[bad, 2]]]:
        with pytest.raises(ValueError, match="Out of range float values"):
            json_text(value)


# --- emitted bytes ------------------------------------------------------------------


def _golden_corpus(path):
    ids = tuple(range(100, 140))
    columns = {
        c: tuple(
            "" if (c == "de" and i % 7 == 3) or (c == "nl" and i % 5 == 1) else f"{c} row {i} ünï"
            for i in range(40)
        )
        for c in ("en", "de", "nl", "fr")
    }
    save_corpus(MultiParallelCorpus(columns, ids, {"source": "golden"}), path)


@pytest.mark.parametrize(
    "argv, digests",
    [
        (["build-ft", "--rows", "25", "--seed", "4", "--tag", "two_tag"],
         {"records.tsv": "0cfe12aa4a8e89dc62fb8d311c2006a2092f0b1c0af69e6667c9003de0c8d919",
          "manifest.json": "7b5e36049cd84d7dc784506c51fe9e760e27c09a7ed58abcee13f21e622a6330"}),
        (["build-ft"],
         {"records.tsv": "f133957c0c7fddde86e471b75ff7b803da6364bcd8f0adb932091eeab4a53ff8"}),
        (["tag", "--tag", "one_tag"],
         {"records.tsv": "39eb8e3d851e362c574426c45237cf5345f57cd7f95441907aa1a663888cc4ae",
          "manifest.json": "94a7a8140a55192c18ae8b9fad2bc5f5049e01c622e91e0fb5aed2c1c11c62fc"}),
        (["build-ft", "--rows", "25", "--seed", "4", "--tag", "one_tag", "--format", "split_files"],
         {"de-nl.src": "b5893fca69be1aaebc6c000e3b6bc1266b2da0b9cee76b8955b4dddfac2838cc",
          "de-nl.tgt": "3cd12aaff1048cf4339e27da18d5d3da9da765172d42c84a8d2b70be37af92cb",
          "manifest.json": "99436a9758c5d97f0ec1f9bee88f5d3f19156259c82a723fb1f48a53ff860b8e"}),
    ],
    ids=["build-ft-two_tag", "build-ft", "tag-one_tag", "build-ft-split_files"],
)
def test_emitted_bytes_are_pinned(tmp_path, argv, digests):
    # corpus columns with gaps, row ids that are not positions, and non-ASCII text
    _golden_corpus(tmp_path / "corpus")
    corpus_args = ["--corpus", str(tmp_path / "corpus")]
    if argv[0] == "tag":
        assert main(["build-ft", *corpus_args, "--out", str(tmp_path / "plain")]) == 0
        corpus_args = ["--dataset", str(tmp_path / "plain")]
    out = tmp_path / "out"
    assert main([argv[0], *corpus_args, *argv[1:], "--out", str(out)]) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


# The reference below makes, tags and writes records one at a time, as the
# code did before blocks referenced corpus columns; it is kept to check them.


def _reference_records(corpus, dirs, row_ids):
    ids = list(corpus.row_ids) if row_ids is None else row_ids
    at = {rid: i for i, rid in enumerate(corpus.row_ids)}
    records = []
    for d in dirs:
        for rid in ids:
            s, t = corpus.columns[d.src][at[rid]], corpus.columns[d.tgt][at[rid]]
            if s and t:
                records.append((d, s, t))
    return records


def _reference_tagged(records, kind):
    if kind == "one_tag":
        return [(d, f"<2{d.tgt}> {s}", t) for d, s, t in records]
    if kind == "two_tag":
        return [(d, f"<src:{d.src}> {s}", f"<tgt:{d.tgt}> {t}") for d, s, t in records]
    return records


def _reference_files(records, mode):
    if mode == "tsv":
        return {"records.tsv": "".join(f"{d.src}\t{d.tgt}\t{s}\t{t}\n" for d, s, t in records)}
    files = {}
    for d, s, t in records:
        files[f"{d}.src"] = files.get(f"{d}.src", "") + s + "\n"
        files[f"{d}.tgt"] = files.get(f"{d}.tgt", "") + t + "\n"
    return files


def _check_emit(ds, expected, out):
    """``ds`` views and writes ``expected``, as the reference writer would."""
    assert [(r.direction, r.src_text, r.tgt_text) for r in ds.records] == expected
    assert len(ds) == len(expected)
    for mode in ("tsv", "split_files"):
        if any("\t" in s + t for _d, s, t in expected):
            with pytest.raises(DatagenError, match="embedded tab"):
                emit_bitext(ds, mode, out / mode)
            assert not (out / mode).exists()
            continue
        emit_bitext(ds, mode, out / mode)
        written = {p.name: p.read_bytes() for p in (out / mode).iterdir()}
        manifest = json.loads(written.pop("manifest.json"))
        reference = _reference_files(expected, mode)
        assert written == {name: text.encode("utf-8") for name, text in reference.items()}
        per_direction = {}
        for d, _s, _t in expected:
            per_direction[str(d)] = per_direction.get(str(d), 0) + 1
        assert manifest["counts"] == {"records": len(expected), "per_direction": per_direction}


# empty cells are missing, and the alphabet holds non-BMP letters
CELLS = st.text(st.sampled_from("ab ü😀𝔘"), max_size=4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_blocks_write_what_the_per_record_reference_writes(data):
    codes = data.draw(st.lists(st.sampled_from(["en", "de", "nl", "fr"]),
                               min_size=2, max_size=4, unique=True))
    n = data.draw(st.integers(1, 8))
    row_ids = tuple(data.draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True)))
    columns = {c: data.draw(st.lists(CELLS, min_size=n, max_size=n)) for c in codes}
    if data.draw(st.booleans()):
        # an unwritable cell, an error only when a record uses it
        code, i = data.draw(st.sampled_from(codes)), data.draw(st.integers(0, n - 1))
        columns[code][i] = "x\ty"
    corpus = MultiParallelCorpus({c: tuple(v) for c, v in columns.items()}, row_ids)
    subset = data.draw(st.none() | st.lists(st.sampled_from(row_ids), min_size=1, unique=True))
    kind, reread_kind = data.draw(st.tuples(*[st.sampled_from(list(TAGS))] * 2))
    dirs = enumerate_directions(codes)
    plain = _reference_records(corpus, dirs, subset)
    ds = apply_tags(build_pairwise(corpus, dirs, subset), kind)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if not plain:
            with pytest.raises(DatagenError, match="empty dataset"):
                emit_bitext(ds, "tsv", out / "none")
            return
        _check_emit(ds, _reference_tagged(plain, kind), out / "built")
        if any("\t" in s + t for _d, s, t in plain):
            return
        # a records.tsv whose directions recur, streamed through tag
        again = plain + plain[: len(plain) // 2 + 1]
        (out / "again").mkdir()
        (out / "again" / "records.tsv").write_text(
            _reference_files(again, "tsv")["records.tsv"], encoding="utf-8"
        )
        argv = ["tag", "--dataset", str(out / "again"), "--tag", reread_kind,
                "--out", str(out / "reread")]
        assert main(argv) == 0
        reference = _reference_files(_reference_tagged(again, reread_kind), "tsv")["records.tsv"]
        assert (out / "reread" / "records.tsv").read_text(encoding="utf-8") == reference
        per_direction = {}
        for d, _s, _t in again:
            per_direction[str(d)] = per_direction.get(str(d), 0) + 1
        manifest = json.loads((out / "reread" / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["counts"] == {"records": len(again), "per_direction": per_direction}
