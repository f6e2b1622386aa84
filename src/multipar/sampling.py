"""Temperature-based mixture weighting over language pairs or directions.

Weights follow the standard temperature sampler: with data sizes n_k and
temperature T, p_k is proportional to (n_k / sum(n))^(1/T).  T = 1 recovers
proportional sampling; large T flattens towards uniform.  The weights are a
plain dict from key to p_k, which ``sample_schedule`` and ``save_weights``
take.  Size and weight tables are ``key<TAB>number`` records read through
:mod:`multipar.textio`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import repeat
from pathlib import Path
from typing import Mapping

from .rng import stream, uniforms
from .textio import read_records


class SamplingError(ValueError):
    pass


def temperature_weights(sizes: Mapping[str, int | float], temperature: float) -> dict[str, float]:
    """Normalized sampling weights p_k proportional to (n_k / sum n)^(1/T)."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise SamplingError(f"temperature must be positive and finite, got {temperature}")
    if not sizes:
        raise SamplingError("empty size table")
    if any(n <= 0 for n in sizes.values()):
        raise SamplingError("all sizes must be positive")
    total = sum(sizes.values())
    if not math.isfinite(total):
        raise SamplingError("sizes sum beyond the float range")
    raw = {k: (n / total) ** (1.0 / temperature) for k, n in sizes.items()}
    norm = sum(raw.values())
    if norm == 0:
        raise SamplingError(f"every weight underflows to 0 at temperature {temperature}")
    return {k: v / norm for k, v in raw.items()}


def sample_schedule(weights: Mapping[str, float], length: int, seed: int) -> list[str]:
    """``length`` i.i.d. seeded draws from the categorical distribution."""
    if length < 0:
        raise SamplingError(f"length must be >= 0, got {length}")
    if not weights:
        raise SamplingError("empty weight map")
    keys = sorted(weights)
    cumulative = []
    acc = 0.0
    for k in keys:
        acc += weights[k]
        cumulative.append(acc)
    cumulative[-1] = math.nextafter(1.0, 2.0)  # guard against float undershoot
    schedule: list[str] = []
    for chunk in uniforms(stream(seed, "schedule"), length):
        schedule += map(keys.__getitem__, map(bisect_right, repeat(cumulative), chunk))
    return schedule


def save_weights(weights: Mapping[str, float], path: str | Path) -> None:
    """Emit a ``key<TAB>weight`` table, keys sorted."""
    lines = [f"{k}\t{weights[k]:.17g}\n" for k in sorted(weights)]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_table(path: str | Path) -> dict[str, float]:
    """Read ``key<TAB>number`` records; each number must be finite, and each
    key listed once."""
    table, first = {}, {}
    for lineno, (key, number) in read_records(path, 2, SamplingError):
        if key in first:
            raise SamplingError(
                f"{path}:{lineno}: duplicate key {key!r} (first at line {first[key]})"
            )
        first[key] = lineno
        try:
            value = float(number)
            if not math.isfinite(value):
                raise SamplingError(f"non-finite value {number!r}")
        except ValueError as exc:
            raise SamplingError(f"{path}:{lineno}: {exc}") from None
        table[key] = value
    return table
