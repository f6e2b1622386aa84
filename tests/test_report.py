import json

import pytest

from multipar import (
    GroupingScheme,
    ScoreMatrix,
    aggregate,
    count_boosted,
    delta,
    emit_report,
    english_centric_summary,
    family_summary,
)
from multipar.datagen import Direction, enumerate_directions
from multipar.registry import ec30
from multipar.report import (
    RESOURCE_GRID_GROUPS,
    ReportError,
    classify,
    resource_grid_group,
)

REG = ec30()

# published zero-shot baseline group means (ChrF), one value per grid cell
TABLE1_BASELINE = {
    "H-H": 11.0, "H-M": 14.8, "H-L": 10.6,
    "M-H": 11.3, "M-M": 14.9, "M-L": 10.5,
    "L-H": 13.7, "L-M": 17.4, "L-L": 10.9,
}
# representative language per tier, two per tier for distinct src/tgt
TIER_REPS = {"H": ("de", "fr"), "M": ("sv", "it"), "L": ("af", "ro")}


def grid_matrix(values, metric="chrf"):
    """One direction per grid cell, carrying that cell's published mean."""
    matrix = ScoreMatrix()
    for cell, value in values.items():
        src_tier, tgt_tier = cell.split("-")
        src = TIER_REPS[src_tier][0]
        tgt = TIER_REPS[tgt_tier][1]
        matrix.set(Direction(src, tgt), metric, value)
    return matrix


# --- ScoreMatrix ------------------------------------------------------------------


def test_matrix_set_get_and_duplicate():
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 33.3, count=10)
    assert matrix.get(Direction("de", "nl"), "chrf").value == 33.3
    with pytest.raises(ReportError):
        matrix.set(Direction("de", "nl"), "chrf", 34.0)
    with pytest.raises(ReportError):
        matrix.get(Direction("nl", "de"), "chrf")


def test_matrix_merge_disjoint_and_conflicting():
    a, b = ScoreMatrix(), ScoreMatrix()
    a.set(Direction("de", "nl"), "chrf", 1.0)
    b.set(Direction("nl", "de"), "chrf", 2.0)
    merged = a.merge(b)
    assert len(merged) == 2
    b2 = ScoreMatrix()
    b2.set(Direction("de", "nl"), "chrf", 9.9)
    with pytest.raises(ReportError):
        a.merge(b2)


def test_matrix_tsv_and_json_round_trips(tmp_path):
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 33.3, count=5)
    matrix.set(Direction("de", "nl"), "bleu", 12.125, count=5)
    path = tmp_path / "scores.tsv"
    matrix.save_tsv(path)
    loaded = ScoreMatrix.load_tsv(path)
    assert loaded.cells() == matrix.cells()
    again = ScoreMatrix.from_json_dict(matrix.to_json_dict())
    assert again.cells() == matrix.cells()


# --- classification -----------------------------------------------------------------


def test_resource_grid_group_labels():
    assert resource_grid_group(Direction("de", "sv"), REG) == "H-M"
    assert resource_grid_group(Direction("af", "fr"), REG) == "L-H"
    with pytest.raises(ReportError):
        resource_grid_group(Direction("en", "de"), REG)


def test_grid_cell_counts_are_90_diagonal_100_off_diagonal():
    dirs = enumerate_directions(REG.codes)
    counts = {}
    for d in dirs.zero_shot():
        counts[resource_grid_group(d, REG)] = counts.get(resource_grid_group(d, REG), 0) + 1
    assert set(counts) == set(RESOURCE_GRID_GROUPS)
    for cell, n in counts.items():
        src, tgt = cell.split("-")
        assert n == (90 if src == tgt else 100), cell
    assert sum(counts.values()) == 870


def test_classify_english_centric_and_family():
    ec = GroupingScheme("english_centric")
    assert classify(Direction("en", "de"), ec, REG) == "EN-X/High"
    assert classify(Direction("mt", "en"), ec, REG) == "X-EN/Medium"
    assert classify(Direction("de", "nl"), ec, REG) is None
    fam = GroupingScheme("family", family="Germanic")
    assert classify(Direction("de", "nl"), fam, REG) == "within"
    assert classify(Direction("de", "fr"), fam, REG) == "out_of"
    assert classify(Direction("fr", "de"), fam, REG) == "into"
    assert classify(Direction("fr", "it"), fam, REG) is None
    assert classify(Direction("en", "de"), fam, REG) is None
    with pytest.raises(ReportError):
        classify(Direction("de", "zz"), fam, REG)


def test_scheme_validation():
    with pytest.raises(ReportError):
        GroupingScheme("by_vibes")
    with pytest.raises(ReportError):
        GroupingScheme("family")


# --- aggregation -----------------------------------------------------------------


def test_aggregate_reproduces_published_zero_shot_average():
    matrix = grid_matrix(TABLE1_BASELINE)
    result = aggregate(matrix, GroupingScheme("resource_grid"), REG, "chrf")
    for cell, value in TABLE1_BASELINE.items():
        assert result[cell] == pytest.approx(value)
    assert result["AVG"] == pytest.approx(12.8, abs=0.05)


def test_aggregate_mean_of_group_means_differs_from_grand_mean():
    matrix = ScoreMatrix()
    # H-H group with two directions, L-L with one
    matrix.set(Direction("de", "fr"), "chrf", 10.0)
    matrix.set(Direction("fr", "de"), "chrf", 20.0)
    matrix.set(Direction("af", "ro"), "chrf", 40.0)
    result = aggregate(matrix, GroupingScheme("resource_grid"), REG, "chrf")
    assert result["H-H"] == pytest.approx(15.0)
    assert result["AVG"] == pytest.approx((15.0 + 40.0) / 2)
    assert result["GRAND_MEAN"] == pytest.approx(70.0 / 3)


def test_aggregate_allow_partial_flag():
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "fr"), "chrf", 10.0)
    scheme = GroupingScheme("resource_grid")
    assert aggregate(matrix, scheme, REG, "chrf", allow_partial=True)["H-H"] == 10.0
    with pytest.raises(ReportError):
        aggregate(matrix, scheme, REG, "chrf", allow_partial=False)
    empty_fit = ScoreMatrix()
    empty_fit.set(Direction("en", "de"), "chrf", 1.0)
    with pytest.raises(ReportError):
        aggregate(empty_fit, scheme, REG, "chrf")


def test_english_centric_summary_reproduces_published_overall():
    table2 = {
        ("High", "EN-X"): 52.5, ("High", "X-EN"): 57.5,
        ("Medium", "EN-X"): 53.9, ("Medium", "X-EN"): 56.5,
        ("Low", "EN-X"): 42.5, ("Low", "X-EN"): 49.8,
    }
    reps = {"High": "de", "Medium": "sv", "Low": "af"}
    matrix = ScoreMatrix()
    for (tier, orientation), value in table2.items():
        code = reps[tier]
        d = Direction("en", code) if orientation == "EN-X" else Direction(code, "en")
        matrix.set(d, "chrf", value)
    summary = english_centric_summary(matrix, REG, "chrf")
    assert summary["overall"]["EN-X"] == pytest.approx(49.6, abs=0.05)
    assert summary["overall"]["X-EN"] == pytest.approx(54.6, abs=0.05)
    assert summary["overall"]["AVG"] == pytest.approx(52.1, abs=0.05)
    assert summary["tiers"]["Medium"]["EN-X"] == pytest.approx(53.9)


def test_family_summary_partitions():
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 30.0)
    matrix.set(Direction("nl", "de"), "chrf", 34.0)
    matrix.set(Direction("de", "fr"), "chrf", 20.0)
    matrix.set(Direction("it", "nl"), "chrf", 10.0)
    summary = family_summary(matrix, "Germanic", REG, "chrf")
    assert summary == {"within": 32.0, "out_of": 20.0, "into": 10.0}
    romance = family_summary(matrix, "Indo-Aryan", REG, "chrf")
    assert romance == {"within": None, "out_of": None, "into": None}


# --- deltas and boosted counts -------------------------------------------------------


def test_delta_cellwise_and_antisymmetric():
    base = grid_matrix(TABLE1_BASELINE)
    boosted = grid_matrix({k: v + 5.0 for k, v in TABLE1_BASELINE.items()})
    diff = delta(boosted, base)
    for d in diff.directions("chrf"):
        assert diff.get(d, "chrf").value == pytest.approx(5.0)
    reverse = delta(base, boosted)
    for d in diff.directions("chrf"):
        assert reverse.get(d, "chrf").value == pytest.approx(-5.0)


def test_delta_requires_identical_keys():
    a = ScoreMatrix()
    a.set(Direction("de", "nl"), "chrf", 1.0)
    b = ScoreMatrix()
    b.set(Direction("nl", "de"), "chrf", 1.0)
    with pytest.raises(ReportError) as err:
        delta(a, b)
    assert "de-nl" in str(err.value) and "nl-de" in str(err.value)


def test_count_boosted_strict_threshold():
    base = grid_matrix({k: 10.0 for k in TABLE1_BASELINE})
    new = grid_matrix(
        {k: 10.0 + (2.0 if i % 2 == 0 else 1.0)
         for i, k in enumerate(sorted(TABLE1_BASELINE))}
    )
    diff = delta(new, base)
    assert count_boosted(diff, "chrf", threshold=1.0) == 5  # strictly greater only
    assert count_boosted(diff, "chrf", threshold=0.0) == 9
    some = list(diff.directions("chrf"))[:3]
    assert count_boosted(diff, "chrf", 0.0, directions=some) == 3
    with pytest.raises(ReportError):
        count_boosted(diff, "bleu", 0.0)


# --- report emission ------------------------------------------------------------------


def stable_matrix():
    matrix = ScoreMatrix()
    codes = ["en", "de", "fr", "sv", "it", "af", "ro"]
    for i, d in enumerate(enumerate_directions(codes)):
        matrix.set(d, "chrf", 20.0 + i * 0.7, count=10)
    return matrix


def test_emit_report_tsv_and_json_and_markdown(tmp_path):
    matrix = stable_matrix()
    schemes = [
        GroupingScheme("resource_grid"),
        GroupingScheme("english_centric"),
        GroupingScheme("family", family="Germanic"),
    ]
    for fmt, filename in (
        ("tsv", "summary.tsv"),
        ("json", "report.json"),
        ("markdown", "report.md"),
    ):
        out = tmp_path / fmt
        emit_report(matrix, schemes, REG, fmt, out)
        assert (out / filename).exists()
    payload = json.loads((tmp_path / "json" / "report.json").read_text())
    assert payload["schema_version"] == 1
    grid = payload["summaries"]["chrf"]["resource_grid"]
    assert "AVG" in grid and "GRAND_MEAN" in grid
    restored = ScoreMatrix.from_json_dict(payload["matrix"])
    assert restored.cells() == matrix.cells()
    markdown = (tmp_path / "markdown" / "report.md").read_text()
    assert "| AVG" in markdown or "AVG |" in markdown


def test_emit_report_is_deterministic(tmp_path):
    matrix = stable_matrix()
    schemes = [GroupingScheme("resource_grid"), GroupingScheme("english_centric")]
    emit_report(matrix, schemes, REG, "tsv", tmp_path / "a")
    emit_report(matrix, schemes, REG, "tsv", tmp_path / "b")
    for name in ("scores.tsv", "summary.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_validation(tmp_path):
    with pytest.raises(ReportError):
        emit_report(ScoreMatrix(), [GroupingScheme("resource_grid")], REG, "tsv", tmp_path)
    with pytest.raises(ReportError):
        emit_report(stable_matrix(), [], REG, "pdf", tmp_path)
