"""Score matrices, grouping schemes, deltas, and report emission.

A score matrix is a plain dict from ``(Direction, metric)`` to ``(value,
count)``.  ``load_scores`` and ``save_scores`` read and write it as a score
TSV, ``src_lang tgt_lang metric value count``, read through
:mod:`multipar.textio`.  Every cell is checked where it is made, on load, in
``delta`` and on save, so each value is finite and each count is >= 0.

A grouping scheme is its name: ``resource_grid``, ``english_centric`` or
``family:<name>``.

Group values are unweighted arithmetic means over member directions.  Any
"AVG" column produced here is the mean of group means; the direction-weighted
grand mean is emitted alongside under a separate, clearly labeled key,
because the two generally differ.  Every group mean is finite.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import groupby
from operator import add
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .datagen import Direction, json_text
from .registry import LanguageRegistry
from .textio import read_lines

REPORT_SCHEMA_VERSION = 1

TIER_LETTER = {"High": "H", "Medium": "M", "Low": "L", "ExtraLow": "E"}
RESOURCE_GRID_GROUPS = (
    "H-H", "H-M", "H-L", "M-H", "M-M", "M-L", "L-H", "L-M", "L-L",
)
SCORE_TSV_HEADER = ("src_lang", "tgt_lang", "metric", "value", "count")


class ReportError(ValueError):
    pass


# (direction, metric name) -> (value, count): a score matrix
Scores = dict[tuple[Direction, str], tuple[float, int]]


def _cell(value: float, count: int) -> tuple[float, int]:
    """The cell ``(value, count)``, checked: a finite value, a count >= 0."""
    if not math.isfinite(value):
        raise ReportError(f"non-finite value {value!r}")
    if count < 0:
        raise ReportError("cell count must be >= 0")
    return value, count


def save_scores(cells: Scores, path: str | Path) -> None:
    """Write a score TSV, ``src_lang tgt_lang metric value count``, sorted."""
    lines = ["\t".join(SCORE_TSV_HEADER) + "\n"]
    for (d, m), cell in sorted(cells.items()):
        value, count = _cell(*cell)
        lines.append(f"{d.src}\t{d.tgt}\t{m}\t{value:.17g}\t{count}\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_scores(path: str | Path) -> Scores:
    """Parse a score TSV, as ``save_scores`` writes it or as an external
    scorer (e.g. COMET) does; every bad line is named by ``file:line``."""
    cells: Scores = {}
    first_line: dict[tuple[Direction, str], int] = {}
    lines = read_lines(path, ReportError)
    if tuple(next(lines, "").split("\t")) != SCORE_TSV_HEADER:
        raise ReportError(f"{path}: missing or malformed header")
    errors = []
    for lineno, line in enumerate(lines, start=2):
        parts = line.split("\t")
        if len(parts) != len(SCORE_TSV_HEADER):
            if line.strip():
                errors.append(f"{path}:{lineno}: expected 5 fields")
            continue
        src, tgt, metric, value, count = parts
        try:
            key = (Direction(src, tgt), metric)
            value, count = float(value), int(count)
            if key in first_line:
                raise ReportError(
                    f"duplicate cell {src}-{tgt}/{metric} (first at line {first_line[key]})"
                )
            cells[key] = _cell(value, count)
        except ValueError as exc:
            errors.append(f"{path}:{lineno}: {exc}")
            continue
        first_line[key] = lineno
    if errors:
        raise ReportError("; ".join(errors))
    return cells


def resource_grid_group(direction: Direction, registry: LanguageRegistry) -> str:
    """Zero-shot grid cell label, e.g. ``H-M`` for High-source, Medium-target."""
    if direction.is_english_centric(registry.english_code):
        raise ReportError(f"{direction} is english-centric, not in the resource grid")
    src_tier = TIER_LETTER[registry.tier_of(direction.src)]
    tgt_tier = TIER_LETTER[registry.tier_of(direction.tgt)]
    return f"{src_tier}-{tgt_tier}"


def _mean(values: Iterable[float]) -> float | None:
    """Arithmetic mean, or None when there are no values."""
    values = list(values)
    if not values:
        return None
    # a left fold: sum() compensates float rounding from Python 3.12 on
    mean = reduce(add, values, 0.0) / len(values)
    if not math.isfinite(mean):
        raise ReportError(f"the mean of {len(values)} values overflows")
    return mean


def _labeler(scheme: str, registry: LanguageRegistry) -> Callable[[Direction], str | None]:
    """The function that labels a direction under the scheme named
    ``resource_grid``, ``english_centric`` or ``family:<name>``; it returns
    None for a direction the scheme leaves out.  An unknown scheme or family
    is an error even when no direction would be labelled by it."""
    english = registry.english_code
    if scheme == "resource_grid":
        return lambda d: (
            None if d.is_english_centric(english) else resource_grid_group(d, registry)
        )
    if scheme == "english_centric":
        def english_centric(d: Direction) -> str | None:
            if d.src == english:
                return f"EN-X/{registry.tier_of(d.tgt)}"
            if d.tgt == english:
                return f"X-EN/{registry.tier_of(d.src)}"
            return None
        return english_centric
    kind, _, family = scheme.partition(":")
    if kind != "family":
        raise ReportError(f"unknown grouping scheme {scheme!r}")
    if not family:
        raise ReportError("family scheme requires a family name")
    members = set(registry.members_of_family(family))

    def family_role(d: Direction) -> str | None:
        # zero-shot directions only, so English is never a member here
        if d.is_english_centric(english):
            return None
        src_in, tgt_in = d.src in members, d.tgt in members
        if src_in and tgt_in:
            return "within"
        if src_in:
            return "out_of"
        if tgt_in:
            return "into"
        return None
    return family_role


def _summarize(scheme: str, groups: Mapping[str, list[float]]) -> dict | None:
    """The summary of one scheme's groups; None when a resource-grid or
    english-centric scheme has no group, while a family keeps its keys."""
    if scheme.startswith("family:"):
        return {key: _mean(groups.get(key, ())) for key in ("within", "out_of", "into")}
    if not groups:
        return None
    if scheme == "resource_grid":
        result = {label: _mean(vals) for label, vals in sorted(groups.items())}
        result["AVG"] = _mean(result.values())
        result["GRAND_MEAN"] = _mean(v for vals in groups.values() for v in vals)
        return result
    tiers: dict[str, dict[str, float]] = {}
    for label, values in groups.items():
        orientation, tier = label.split("/")
        tiers.setdefault(tier, {})[orientation] = _mean(values)
    cell_means = [v for tier in tiers.values() for v in tier.values()]
    overall = {
        "EN-X": _mean(m["EN-X"] for m in tiers.values() if "EN-X" in m),
        "X-EN": _mean(m["X-EN"] for m in tiers.values() if "X-EN" in m),
        "AVG": _mean(cell_means),
    }
    return {"tiers": tiers, "overall": overall}


def delta(matrix_a: Scores, matrix_b: Scores) -> Scores:
    """Cellwise a - b over identical keys, with the smaller count."""
    if matrix_a.keys() != matrix_b.keys():
        only_a = sorted(f"{d}/{m}" for d, m in matrix_a.keys() - matrix_b.keys())
        only_b = sorted(f"{d}/{m}" for d, m in matrix_b.keys() - matrix_a.keys())
        raise ReportError(
            f"cell key mismatch; only in first: {only_a}; only in second: {only_b}"
        )
    return {
        key: _cell(value - matrix_b[key][0], min(count, matrix_b[key][1]))
        for key, (value, count) in sorted(matrix_a.items())
    }


def count_boosted(
    delta_matrix: Scores,
    metric: str,
    threshold: float,
    directions: Iterable[Direction] | None = None,
) -> int:
    """Number of (filtered) directions whose delta strictly exceeds threshold."""
    values = {d: value for (d, m), (value, _) in delta_matrix.items() if m == metric}
    if not values:
        raise ReportError(f"unknown metric {metric!r}")
    wanted = values.keys() if directions is None else set(directions)
    return sum(1 for d, value in values.items() if value > threshold and d in wanted)


def _fmt(value: float | None) -> str:
    return "null" if value is None else f"{value:.1f}"


def _markdown_resource_grid(values: Mapping[str, float], metric: str) -> str:
    header = " | ".join(RESOURCE_GRID_GROUPS) + " | AVG"
    row = " | ".join(_fmt(values.get(g)) for g in RESOURCE_GRID_GROUPS)
    row += f" | {values['AVG']:.1f}"
    return (
        f"### Zero-shot {metric} by resource group\n\n"
        f"| {header} |\n|{'---|' * 10}\n| {row} |\n\n"
        f"AVG is the mean of group means; direction-weighted mean: "
        f"{values['GRAND_MEAN']:.2f}\n"
    )


def _markdown_english_centric(summary: dict, metric: str) -> str:
    tiers = ("High", "Medium", "Low")
    present = [t for t in tiers if t in summary["tiers"]] + [
        t for t in sorted(summary["tiers"]) if t not in tiers
    ]
    header = " | ".join(f"{t} EN-X | {t} X-EN" for t in present)
    row = " | ".join(
        _fmt(summary["tiers"][t].get(orientation))
        for t in present
        for orientation in ("EN-X", "X-EN")
    )
    overall = summary["overall"]
    return (
        f"### English-centric {metric} by resource group\n\n"
        f"| {header} | AVG |\n|{'---|' * (2 * len(present) + 1)}\n"
        f"| {row} | {overall['AVG']:.1f} |\n\n"
        f"Overall EN-X {_fmt(overall['EN-X'])}, X-EN {_fmt(overall['X-EN'])} "
        f"(means of tier cells)\n"
    )


def emit_report(
    matrix: Scores,
    schemes: Iterable[str],
    registry: LanguageRegistry,
    fmt: str,
    path: str | Path,
) -> None:
    """Write the matrix and its aggregation under each named scheme in a
    stable, sorted form.  Directions a scheme leaves out are not grouped."""
    labelers = {scheme: _labeler(scheme, registry) for scheme in schemes}
    if not matrix:
        raise ReportError("refusing to report an empty matrix")
    if fmt not in ("tsv", "json", "markdown"):
        raise ReportError(f"unknown report format {fmt!r}")

    # metric -> scheme -> label -> values, each in sorted direction order
    groups = {metric: {scheme: {} for scheme in labelers} for metric in {m for _, m in matrix}}
    cells = sorted(matrix.items())
    for direction, direction_cells in groupby(cells, key=lambda item: item[0][0]):
        if direction.src not in registry or direction.tgt not in registry:
            raise ReportError(f"direction {direction} has languages outside the registry")
        labels = [(scheme, label_of(direction)) for scheme, label_of in labelers.items()]
        for (_, metric), (value, _) in direction_cells:
            for scheme, label in labels:
                if label is not None:
                    groups[metric][scheme].setdefault(label, []).append(value)
    summaries = {
        metric: {scheme: _summarize(scheme, by_label) for scheme, by_label in per_metric.items()}
        for metric, per_metric in groups.items()
    }

    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "tsv":
        save_scores(matrix, out / "scores.tsv")
        lines = ["metric\tscheme\tgroup\tvalue\n"]
        for metric, per_metric in sorted(summaries.items()):
            for key, summary in sorted(per_metric.items()):
                for group, value in sorted(_flatten(summary)):
                    rendered = "null" if value is None else f"{value:.17g}"
                    lines.append(f"{metric}\t{key}\t{group}\t{rendered}\n")
        (out / "summary.tsv").write_text("".join(lines), encoding="utf-8")
    elif fmt == "json":
        cell_list = [
            {"src": d.src, "tgt": d.tgt, "metric": m, "value": value, "count": count}
            for (d, m), (value, count) in cells
        ]
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "matrix": {"schema_version": REPORT_SCHEMA_VERSION, "cells": cell_list},
            "summaries": summaries,
        }
        text = json_text(payload, ensure_ascii=True)
        (out / "report.json").write_text(text + "\n", encoding="utf-8")
    else:
        parts = []
        for metric, per_metric in sorted(summaries.items()):
            for key, summary in sorted(per_metric.items()):
                if summary is None:
                    continue
                if key == "resource_grid":
                    parts.append(_markdown_resource_grid(summary, metric))
                elif key == "english_centric":
                    parts.append(_markdown_english_centric(summary, metric))
                else:
                    rows = "\n".join(
                        f"- {group}: {_fmt(v)}" for group, v in sorted(_flatten(summary))
                    )
                    parts.append(f"### {key} {metric}\n\n{rows}\n")
        (out / "report.md").write_text("\n".join(parts), encoding="utf-8")


def _flatten(summary) -> list[tuple[str, float | None]]:
    if summary is None:
        return []
    flat = []
    for key, value in summary.items():
        if isinstance(value, dict):
            flat.extend((f"{key}/{sub}", v) for sub, v in _flatten(value))
        else:
            flat.append((key, value))
    return flat
