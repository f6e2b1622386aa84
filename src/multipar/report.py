"""Per-direction score matrices, grouping schemes, deltas, and report emission.

Group values are unweighted arithmetic means over member directions.  Any
"AVG" column produced here is the mean of group means; the direction-weighted
grand mean is emitted alongside under a separate, clearly labeled key,
because the two generally differ.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .datagen import Direction
from .registry import LanguageRegistry

REPORT_SCHEMA_VERSION = 1

TIER_LETTER = {"High": "H", "Medium": "M", "Low": "L", "ExtraLow": "E"}
RESOURCE_GRID_GROUPS = (
    "H-H", "H-M", "H-L", "M-H", "M-M", "M-L", "L-H", "L-M", "L-L",
)
SCORE_TSV_HEADER = ("src_lang", "tgt_lang", "metric", "value", "count")


class ReportError(ValueError):
    pass


@dataclass(frozen=True)
class Cell:
    value: float
    count: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ReportError("cell count must be >= 0")


class ScoreMatrix:
    """Map (direction, metric name) -> scored cell."""

    def __init__(self):
        self._cells: dict[tuple[Direction, str], Cell] = {}

    def set(self, direction: Direction, metric: str, value: float, count: int = 0) -> None:
        key = (direction, metric)
        if key in self._cells:
            raise ReportError(f"duplicate cell {direction}/{metric}")
        self._cells[key] = Cell(value, count)

    def get(self, direction: Direction, metric: str) -> Cell:
        try:
            return self._cells[(direction, metric)]
        except KeyError:
            raise ReportError(f"missing cell {direction}/{metric}") from None

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: tuple[Direction, str]) -> bool:
        return key in self._cells

    def cells(self) -> dict[tuple[Direction, str], Cell]:
        return dict(self._cells)

    def metrics(self) -> tuple[str, ...]:
        return tuple(sorted({m for _, m in self._cells}))

    def directions(self, metric: str | None = None) -> tuple[Direction, ...]:
        dirs = {d for d, m in self._cells if metric is None or m == metric}
        return tuple(sorted(dirs))

    def merge(self, other: "ScoreMatrix") -> "ScoreMatrix":
        merged = ScoreMatrix()
        for (d, m), cell in sorted(self._cells.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            merged.set(d, m, cell.value, cell.count)
        for (d, m), cell in sorted(other._cells.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            merged.set(d, m, cell.value, cell.count)
        return merged

    # --- TSV round trip: src_lang tgt_lang metric value count ---

    def save_tsv(self, path: str | Path) -> None:
        lines = ["\t".join(SCORE_TSV_HEADER) + "\n"]
        for (d, m), cell in sorted(
            self._cells.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            lines.append(f"{d.src}\t{d.tgt}\t{m}\t{cell.value:.17g}\t{cell.count}\n")
        Path(path).write_text("".join(lines), encoding="utf-8")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "ScoreMatrix":
        """Parse a score TSV, as ``save_tsv`` writes it or as an external
        scorer (e.g. COMET) does; every bad line is named by ``file:line``."""
        matrix = cls()
        seen: dict[tuple, int] = {}
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines or tuple(lines[0].split("\t")) != SCORE_TSV_HEADER:
            raise ReportError(f"{path}: missing or malformed header")
        errors = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split("\t")
            if len(parts) != len(SCORE_TSV_HEADER):
                errors.append(f"{path}:{lineno}: expected 5 fields")
                continue
            src, tgt, metric, value, count = parts
            try:
                direction = Direction(src, tgt)
                cell_value = float(value)
                cell_count = int(count)
                if not math.isfinite(cell_value):
                    raise ReportError(f"non-finite value {value!r}")
            except ValueError as exc:
                errors.append(f"{path}:{lineno}: {exc}")
                continue
            key = (direction, metric)
            if key in seen:
                errors.append(
                    f"{path}:{lineno}: duplicate cell {src}-{tgt}/{metric}"
                    f" (first at line {seen[key]})"
                )
                continue
            seen[key] = lineno
            matrix.set(direction, metric, cell_value, cell_count)
        if errors:
            raise ReportError("; ".join(errors))
        return matrix

    def to_json_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "cells": [
                {
                    "src": d.src,
                    "tgt": d.tgt,
                    "metric": m,
                    "value": cell.value,
                    "count": cell.count,
                }
                for (d, m), cell in sorted(
                    self._cells.items(), key=lambda kv: (kv[0][0], kv[0][1])
                )
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScoreMatrix":
        matrix = cls()
        for row in data["cells"]:
            matrix.set(
                Direction(row["src"], row["tgt"]),
                row["metric"],
                row["value"],
                row.get("count", 0),
            )
        return matrix


@dataclass(frozen=True)
class GroupingScheme:
    kind: str  # "resource_grid" | "english_centric" | "family"
    family: str | None = None

    KINDS = ("resource_grid", "english_centric", "family")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ReportError(f"unknown grouping scheme {self.kind!r}")
        if self.kind == "family" and not self.family:
            raise ReportError("family scheme requires a family name")


def resource_grid_group(direction: Direction, registry: LanguageRegistry) -> str:
    """Zero-shot grid cell label, e.g. ``H-M`` for High-source, Medium-target."""
    if direction.is_english_centric(registry.english_code):
        raise ReportError(f"{direction} is english-centric, not in the resource grid")
    src_tier = TIER_LETTER[registry.tier_of(direction.src)]
    tgt_tier = TIER_LETTER[registry.tier_of(direction.tgt)]
    return f"{src_tier}-{tgt_tier}"


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def aggregate(
    matrix: ScoreMatrix,
    scheme: GroupingScheme,
    registry: LanguageRegistry,
    metric: str,
    allow_partial: bool = True,
) -> dict[str, float]:
    """Group means plus ``AVG`` (mean of group means) and ``GRAND_MEAN``
    (direction-weighted), computed over the matrix's directions.

    ``allow_partial=False`` errors if a resource-grid group has no member in
    the matrix.
    """
    groups = _group(matrix, scheme, registry, metric)
    if scheme.kind == "resource_grid" and not allow_partial:
        missing = [g for g in RESOURCE_GRID_GROUPS if g not in groups]
        if missing:
            raise ReportError(f"resource grid groups without data: {missing}")
    if not groups:
        raise ReportError(f"no direction in the matrix fits scheme {scheme.kind!r}")
    result = {label: _mean(vals) for label, vals in sorted(groups.items())}
    result["AVG"] = _mean(result.values())
    result["GRAND_MEAN"] = _mean(v for vals in groups.values() for v in vals)
    return result


def _group(
    matrix: ScoreMatrix, scheme: GroupingScheme, registry: LanguageRegistry, metric: str
) -> dict[str, list[float]]:
    """Values of the matrix's directions under each label the scheme gives;
    directions the scheme excludes are left out."""
    groups: dict[str, list[float]] = {}
    for direction in matrix.directions(metric):
        label = classify(direction, scheme, registry)
        if label is not None:
            groups.setdefault(label, []).append(matrix.get(direction, metric).value)
    return groups


def classify(
    direction: Direction, scheme: GroupingScheme, registry: LanguageRegistry
) -> str | None:
    """Group label for one direction, or None when the scheme excludes it."""
    english = registry.english_code
    if direction.src not in registry or direction.tgt not in registry:
        raise ReportError(f"direction {direction} has languages outside the registry")
    if scheme.kind == "resource_grid":
        if direction.is_english_centric(english):
            return None
        return resource_grid_group(direction, registry)
    if scheme.kind == "english_centric":
        if direction.src == english:
            return f"EN-X/{registry.tier_of(direction.tgt)}"
        if direction.tgt == english:
            return f"X-EN/{registry.tier_of(direction.src)}"
        return None
    # family scheme: zero-shot directions only
    if direction.is_english_centric(english):
        return None
    members = set(registry.members_of_family(scheme.family, include_english=False))
    src_in, tgt_in = direction.src in members, direction.tgt in members
    if src_in and tgt_in:
        return "within"
    if src_in:
        return "out_of"
    if tgt_in:
        return "into"
    return None


def english_centric_summary(
    matrix: ScoreMatrix, registry: LanguageRegistry, metric: str
) -> dict:
    """Per-tier EN-X / X-EN means plus the overall mean of the tier cells."""
    groups = _group(matrix, GroupingScheme("english_centric"), registry, metric)
    if not groups:
        raise ReportError("no english-centric directions in the matrix")
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


def family_summary(
    matrix: ScoreMatrix, family: str, registry: LanguageRegistry, metric: str
) -> dict[str, float | None]:
    """Within / out-of / into family means over zero-shot directions."""
    groups = _group(matrix, GroupingScheme("family", family=family), registry, metric)
    return {
        key: (_mean(groups[key]) if key in groups else None)
        for key in ("within", "out_of", "into")
    }


def delta(matrix_a: ScoreMatrix, matrix_b: ScoreMatrix) -> ScoreMatrix:
    """Cellwise a - b over identical keys."""
    keys_a = set(matrix_a.cells())
    keys_b = set(matrix_b.cells())
    if keys_a != keys_b:
        only_a = sorted(f"{d}/{m}" for d, m in keys_a - keys_b)
        only_b = sorted(f"{d}/{m}" for d, m in keys_b - keys_a)
        raise ReportError(
            f"cell key mismatch; only in first: {only_a}; only in second: {only_b}"
        )
    out = ScoreMatrix()
    for (d, m), cell in sorted(matrix_a.cells().items(), key=lambda kv: (kv[0][0], kv[0][1])):
        other = matrix_b.get(d, m)
        out.set(d, m, cell.value - other.value, min(cell.count, other.count))
    return out


def count_boosted(
    delta_matrix: ScoreMatrix,
    metric: str,
    threshold: float,
    directions: Iterable[Direction] | None = None,
) -> int:
    """Number of (filtered) directions whose delta strictly exceeds threshold."""
    if metric not in delta_matrix.metrics():
        raise ReportError(f"unknown metric {metric!r}")
    candidates = delta_matrix.directions(metric)
    if directions is not None:
        wanted = set(directions)
        candidates = tuple(d for d in candidates if d in wanted)
    return sum(
        1 for d in candidates if delta_matrix.get(d, metric).value > threshold
    )


def _markdown_resource_grid(values: Mapping[str, float], metric: str) -> str:
    header = " | ".join(RESOURCE_GRID_GROUPS) + " | AVG"
    row = " | ".join(
        f"{values[g]:.1f}" if g in values else "null" for g in RESOURCE_GRID_GROUPS
    )
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
    cells = []
    for t in present:
        for orientation in ("EN-X", "X-EN"):
            v = summary["tiers"][t].get(orientation)
            cells.append("null" if v is None else f"{v:.1f}")
    row = " | ".join(cells)
    overall = summary["overall"]
    return (
        f"### English-centric {metric} by resource group\n\n"
        f"| {header} | AVG |\n|{'---|' * (2 * len(present) + 1)}\n"
        f"| {row} | {overall['AVG']:.1f} |\n\n"
        f"Overall EN-X {overall['EN-X']:.1f}, X-EN {overall['X-EN']:.1f} "
        f"(means of tier cells)\n"
    )


def emit_report(
    matrix: ScoreMatrix,
    schemes: Iterable[GroupingScheme],
    registry: LanguageRegistry,
    fmt: str,
    path: str | Path,
) -> None:
    """Write the matrix and per-scheme aggregations in a stable, sorted form."""
    if not len(matrix):
        raise ReportError("refusing to report an empty matrix")
    if fmt not in ("tsv", "json", "markdown"):
        raise ReportError(f"unknown report format {fmt!r}")
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    schemes = list(schemes)

    summaries: dict[str, dict] = {}
    for metric in matrix.metrics():
        per_metric: dict[str, object] = {}
        for scheme in schemes:
            key = scheme.kind if scheme.kind != "family" else f"family:{scheme.family}"
            if scheme.kind == "family":
                per_metric[key] = family_summary(matrix, scheme.family, registry, metric)
            elif not any(classify(d, scheme, registry) for d in matrix.directions(metric)):
                per_metric[key] = None  # scheme has no members for this metric
            elif scheme.kind == "english_centric":
                per_metric[key] = english_centric_summary(matrix, registry, metric)
            else:
                per_metric[key] = aggregate(matrix, scheme, registry, metric)
        summaries[metric] = per_metric

    if fmt == "tsv":
        matrix.save_tsv(out / "scores.tsv")
        lines = ["metric\tscheme\tgroup\tvalue\n"]
        for metric, per_metric in sorted(summaries.items()):
            for key, summary in sorted(per_metric.items()):
                for group, value in sorted(_flatten(summary)):
                    rendered = "null" if value is None else f"{value:.17g}"
                    lines.append(f"{metric}\t{key}\t{group}\t{rendered}\n")
        (out / "summary.tsv").write_text("".join(lines), encoding="utf-8")
    elif fmt == "json":
        payload = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "matrix": matrix.to_json_dict(),
            "summaries": summaries,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
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
                        f"- {group}: " + ("null" if v is None else f"{v:.1f}")
                        for group, v in sorted(_flatten(summary))
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
