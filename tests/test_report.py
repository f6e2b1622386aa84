import json
import math

import pytest

from multipar.cli import main
from multipar.datagen import Direction, enumerate_directions
from multipar.registry import ec30
from multipar.report import (
    RESOURCE_GRID_GROUPS,
    ReportError,
    _labeler,
    count_boosted,
    delta,
    emit_report,
    load_scores,
    resource_grid_group,
    save_scores,
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
    matrix = {}
    for cell, value in values.items():
        src_tier, tgt_tier = cell.split("-")
        src = TIER_REPS[src_tier][0]
        tgt = TIER_REPS[tgt_tier][1]
        matrix[(Direction(src, tgt), metric)] = (value, 0)
    return matrix


def chrf_summaries(tmp_path, matrix, *schemes):
    """The chrf summaries ``report --format json`` writes for the matrix."""
    save_scores(matrix, tmp_path / "scores.tsv")
    out = tmp_path / "report"
    argv = ["report", "--scores", str(tmp_path / "scores.tsv"), "--format", "json",
            "--scheme", *schemes, "--out", str(out)]
    assert main(argv) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["summaries"]["chrf"]


# --- score matrices ----------------------------------------------------------------


def test_matrix_cell_and_duplicate(tmp_path):
    path = tmp_path / "scores.tsv"
    save_scores({(Direction("de", "nl"), "chrf"): (33.3, 10)}, path)
    assert load_scores(path)[(Direction("de", "nl"), "chrf")][0] == 33.3
    path.write_text(path.read_text() + "de\tnl\tchrf\t34.0\t0\n")
    with pytest.raises(ReportError):
        load_scores(path)


def test_matrix_tsv_and_json_round_trips(tmp_path):
    matrix = {
        (Direction("de", "nl"), "chrf"): (33.3, 5),
        (Direction("de", "nl"), "bleu"): (12.125, 5),
    }
    path = tmp_path / "scores.tsv"
    save_scores(matrix, path)
    loaded = load_scores(path)
    assert loaded == matrix
    emit_report(matrix, [], REG, "json", tmp_path / "report")
    payload = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    json_cells = {
        (Direction(c["src"], c["tgt"]), c["metric"]): (c["value"], c["count"])
        for c in payload["matrix"]["cells"]
    }
    assert json_cells == matrix


@pytest.mark.parametrize("value, count, message", [
    (math.nan, 0, "non-finite value nan"),
    (-math.inf, 0, "non-finite value -inf"),
    (1.0, -1, "cell count must be >= 0"),
])
def test_save_scores_checks_every_cell(tmp_path, value, count, message):
    with pytest.raises(ReportError, match=message):
        save_scores({(Direction("de", "nl"), "chrf"): (value, count)}, tmp_path / "scores.tsv")
    assert not (tmp_path / "scores.tsv").exists()


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
    outside = {(Direction("de", "zz"), "chrf"): (1.0, 0)}
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
    # H-H group with two directions, L-L with one
    matrix = {
        (Direction("de", "fr"), "chrf"): (10.0, 0),
        (Direction("fr", "de"), "chrf"): (20.0, 0),
        (Direction("af", "ro"), "chrf"): (40.0, 0),
    }
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
    matrix = {}
    for (tier, orientation), value in table2.items():
        code = reps[tier]
        d = Direction("en", code) if orientation == "EN-X" else Direction(code, "en")
        matrix[(d, "chrf")] = (value, 0)
    summary = chrf_summaries(tmp_path, matrix, "english_centric")["english_centric"]
    assert summary["overall"]["EN-X"] == pytest.approx(49.6, abs=0.05)
    assert summary["overall"]["X-EN"] == pytest.approx(54.6, abs=0.05)
    assert summary["overall"]["AVG"] == pytest.approx(52.1, abs=0.05)
    assert summary["tiers"]["Medium"]["EN-X"] == pytest.approx(53.9)


def test_family_summary_partitions(tmp_path):
    matrix = {
        (Direction("de", "nl"), "chrf"): (30.0, 0),
        (Direction("nl", "de"), "chrf"): (34.0, 0),
        (Direction("de", "fr"), "chrf"): (20.0, 0),
        (Direction("it", "nl"), "chrf"): (10.0, 0),
    }
    summaries = chrf_summaries(tmp_path, matrix, "family:Germanic", "family:Indo-Aryan")
    assert summaries["family:Germanic"] == {"within": 32.0, "out_of": 20.0, "into": 10.0}
    assert summaries["family:Indo-Aryan"] == {"within": None, "out_of": None, "into": None}


# --- deltas and boosted counts -------------------------------------------------------


def test_delta_cellwise_and_antisymmetric():
    base = grid_matrix(TABLE1_BASELINE)
    boosted = grid_matrix({k: v + 5.0 for k, v in TABLE1_BASELINE.items()})
    diff = delta(boosted, base)
    for key in diff:
        assert diff[key][0] == pytest.approx(5.0)
    reverse = delta(base, boosted)
    for key in diff:
        assert reverse[key][0] == pytest.approx(-5.0)


def test_delta_requires_identical_keys():
    a = {(Direction("de", "nl"), "chrf"): (1.0, 0)}
    b = {(Direction("nl", "de"), "chrf"): (1.0, 0)}
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
    some = sorted(d for d, metric in diff if metric == "chrf")[:3]
    assert count_boosted(diff, "chrf", 0.0, directions=some) == 3
    with pytest.raises(ReportError):
        count_boosted(diff, "bleu", 0.0)


# --- report emission ------------------------------------------------------------------


def stable_matrix():
    codes = ["en", "de", "fr", "sv", "it", "af", "ro"]
    return {
        (d, "chrf"): (20.0 + i * 0.7, 10) for i, d in enumerate(enumerate_directions(codes))
    }


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
    assert payload["matrix"] == {
        "schema_version": 1,
        "cells": [
            {"src": d.src, "tgt": d.tgt, "metric": m, "value": value, "count": count}
            for (d, m), (value, count) in sorted(matrix.items())
        ],
    }
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
        emit_report({}, ["resource_grid"], REG, "tsv", tmp_path)
    with pytest.raises(ReportError):
        emit_report(stable_matrix(), [], REG, "pdf", tmp_path)
