import json

import pytest

from multipar.cli import main
from multipar.datagen import Direction, enumerate_directions
from multipar.registry import ec30
from multipar.report import (
    RESOURCE_GRID_GROUPS,
    ReportError,
    ScoreMatrix,
    _labeler,
    count_boosted,
    delta,
    emit_report,
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


def chrf_summaries(tmp_path, matrix, *schemes):
    """The chrf summaries ``report --format json`` writes for the matrix."""
    matrix.save_tsv(tmp_path / "scores.tsv")
    out = tmp_path / "report"
    argv = ["report", "--scores", str(tmp_path / "scores.tsv"), "--format", "json",
            "--scheme", *schemes, "--out", str(out)]
    assert main(argv) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["summaries"]["chrf"]


# --- ScoreMatrix ------------------------------------------------------------------


def test_matrix_set_get_and_duplicate():
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 33.3, count=10)
    assert matrix.get(Direction("de", "nl"), "chrf").value == 33.3
    with pytest.raises(ReportError):
        matrix.set(Direction("de", "nl"), "chrf", 34.0)
    with pytest.raises(ReportError):
        matrix.get(Direction("nl", "de"), "chrf")


def test_matrix_tsv_and_json_round_trips(tmp_path):
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 33.3, count=5)
    matrix.set(Direction("de", "nl"), "bleu", 12.125, count=5)
    path = tmp_path / "scores.tsv"
    matrix.save_tsv(path)
    loaded = ScoreMatrix.load_tsv(path)
    assert loaded.cells() == matrix.cells()
    json_cells = {
        (Direction(c["src"], c["tgt"]), c["metric"]): (c["value"], c["count"])
        for c in matrix.to_json_dict()["cells"]
    }
    assert json_cells == {key: (cell.value, cell.count) for key, cell in matrix.cells().items()}


# --- classification -----------------------------------------------------------------


def test_resource_grid_group_labels():
    assert resource_grid_group(Direction("de", "sv"), REG) == "H-M"
    assert resource_grid_group(Direction("af", "fr"), REG) == "L-H"
    with pytest.raises(ReportError):
        resource_grid_group(Direction("en", "de"), REG)


def test_grid_cell_counts_are_90_diagonal_100_off_diagonal():
    dirs = enumerate_directions(REG.codes)
    counts = {}
    for d in enumerate_directions(REG.codes, include_english_centric=False):
        counts[resource_grid_group(d, REG)] = counts.get(resource_grid_group(d, REG), 0) + 1
    assert set(counts) == set(RESOURCE_GRID_GROUPS)
    for cell, n in counts.items():
        src, tgt = cell.split("-")
        assert n == (90 if src == tgt else 100), cell
    assert sum(counts.values()) == 870


def test_label_english_centric_and_family(tmp_path):
    ec = _labeler("english_centric", REG)
    assert ec(Direction("en", "de")) == "EN-X/High"
    assert ec(Direction("mt", "en")) == "X-EN/Medium"
    assert ec(Direction("de", "nl")) is None
    fam = _labeler("family:Germanic", REG)
    assert fam(Direction("de", "nl")) == "within"
    assert fam(Direction("de", "fr")) == "out_of"
    assert fam(Direction("fr", "de")) == "into"
    assert fam(Direction("fr", "it")) is None
    assert fam(Direction("en", "de")) is None
    outside = ScoreMatrix()
    outside.set(Direction("de", "zz"), "chrf", 1.0)
    with pytest.raises(ReportError, match="de-zz has languages outside the registry"):
        emit_report(outside, ["family:Germanic"], REG, "json", tmp_path)


def test_scheme_validation(tmp_path):
    for scheme, message in (
        ("by_vibes", "unknown grouping scheme 'by_vibes'"),
        ("family", "family scheme requires a family name"),
        ("family:", "family scheme requires a family name"),
    ):
        with pytest.raises(ReportError, match=message):
            emit_report(stable_matrix(), [scheme], REG, "json", tmp_path)


# --- aggregation -----------------------------------------------------------------


def test_aggregate_reproduces_published_zero_shot_average(tmp_path):
    matrix = grid_matrix(TABLE1_BASELINE)
    result = chrf_summaries(tmp_path, matrix, "resource_grid")["resource_grid"]
    for cell, value in TABLE1_BASELINE.items():
        assert result[cell] == pytest.approx(value)
    assert result["AVG"] == pytest.approx(12.8, abs=0.05)


def test_aggregate_mean_of_group_means_differs_from_grand_mean(tmp_path):
    matrix = ScoreMatrix()
    # H-H group with two directions, L-L with one
    matrix.set(Direction("de", "fr"), "chrf", 10.0)
    matrix.set(Direction("fr", "de"), "chrf", 20.0)
    matrix.set(Direction("af", "ro"), "chrf", 40.0)
    result = chrf_summaries(tmp_path, matrix, "resource_grid")["resource_grid"]
    assert result["H-H"] == pytest.approx(15.0)
    assert result["AVG"] == pytest.approx((15.0 + 40.0) / 2)
    assert result["GRAND_MEAN"] == pytest.approx(70.0 / 3)


def test_english_centric_summary_reproduces_published_overall(tmp_path):
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
    summary = chrf_summaries(tmp_path, matrix, "english_centric")["english_centric"]
    assert summary["overall"]["EN-X"] == pytest.approx(49.6, abs=0.05)
    assert summary["overall"]["X-EN"] == pytest.approx(54.6, abs=0.05)
    assert summary["overall"]["AVG"] == pytest.approx(52.1, abs=0.05)
    assert summary["tiers"]["Medium"]["EN-X"] == pytest.approx(53.9)


def test_family_summary_partitions(tmp_path):
    matrix = ScoreMatrix()
    matrix.set(Direction("de", "nl"), "chrf", 30.0)
    matrix.set(Direction("nl", "de"), "chrf", 34.0)
    matrix.set(Direction("de", "fr"), "chrf", 20.0)
    matrix.set(Direction("it", "nl"), "chrf", 10.0)
    summaries = chrf_summaries(tmp_path, matrix, "family:Germanic", "family:Indo-Aryan")
    assert summaries["family:Germanic"] == {"within": 32.0, "out_of": 20.0, "into": 10.0}
    assert summaries["family:Indo-Aryan"] == {"within": None, "out_of": None, "into": None}


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
    schemes = ["resource_grid", "english_centric", "family:Germanic"]
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
    assert payload["matrix"] == matrix.to_json_dict()
    markdown = (tmp_path / "markdown" / "report.md").read_text()
    assert "| AVG" in markdown or "AVG |" in markdown


def test_emit_report_is_deterministic(tmp_path):
    matrix = stable_matrix()
    schemes = ["resource_grid", "english_centric"]
    emit_report(matrix, schemes, REG, "tsv", tmp_path / "a")
    emit_report(matrix, schemes, REG, "tsv", tmp_path / "b")
    for name in ("scores.tsv", "summary.tsv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_emit_report_validation(tmp_path):
    with pytest.raises(ReportError):
        emit_report(ScoreMatrix(), ["resource_grid"], REG, "tsv", tmp_path)
    with pytest.raises(ReportError):
        emit_report(stable_matrix(), [], REG, "pdf", tmp_path)
