"""Temperature-based mixture weighting over language pairs or directions.

Weights follow the standard temperature sampler: with data sizes n_k and
temperature T, p_k is proportional to (n_k / sum(n))^(1/T).  T = 1 recovers
proportional sampling; large T flattens towards uniform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .rng import stream


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class MixtureWeights:
    weights: Mapping[str, float]
    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise SamplingError(f"temperature must be positive, got {self.temperature}")
        if any(w < 0 for w in self.weights.values()):
            raise SamplingError("negative weight")
        total = sum(self.weights.values())
        if self.weights and abs(total - 1.0) > 1e-9:
            raise SamplingError(f"weights sum to {total}, not 1")


def temperature_weights(sizes: Mapping[str, int | float], temperature: float) -> MixtureWeights:
    """Normalized sampling weights p_k proportional to (n_k / sum n)^(1/T)."""
    if temperature <= 0:
        raise SamplingError(f"temperature must be positive, got {temperature}")
    if not sizes:
        raise SamplingError("empty size table")
    if any(n <= 0 for n in sizes.values()):
        raise SamplingError("all sizes must be positive")
    total = sum(sizes.values())
    raw = {k: (n / total) ** (1.0 / temperature) for k, n in sizes.items()}
    norm = sum(raw.values())
    return MixtureWeights(
        weights={k: v / norm for k, v in raw.items()}, temperature=temperature
    )


def sample_schedule(weights: MixtureWeights, length: int, seed: int) -> list[str]:
    """``length`` i.i.d. seeded draws from the categorical distribution."""
    if length < 0:
        raise SamplingError(f"length must be >= 0, got {length}")
    if not weights.weights:
        raise SamplingError("empty weight map")
    keys = sorted(weights.weights)
    cumulative = []
    acc = 0.0
    for k in keys:
        acc += weights.weights[k]
        cumulative.append(acc)
    cumulative[-1] = math.nextafter(1.0, 2.0)  # guard against float undershoot
    rng = stream(seed, "schedule")
    return [keys[bisect_right(cumulative, rng.random())] for _ in range(length)]


def save_weights(weights: MixtureWeights, path: str | Path) -> None:
    """Emit a ``key<TAB>weight`` table, keys sorted."""
    lines = [f"{k}\t{weights.weights[k]:.17g}\n" for k in sorted(weights.weights)]
    Path(path).write_text("".join(lines), encoding="utf-8")


def load_table(path: str | Path) -> dict[str, float]:
    """Read ``key<TAB>number`` lines, skipping blank ones; each number must be
    finite."""
    table = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise SamplingError(f"{path}:{lineno}: expected key<TAB>number")
            value = float(parts[1])
            if not math.isfinite(value):
                raise SamplingError(f"{path}:{lineno}: non-finite value {parts[1]!r}")
            table[parts[0]] = value
    return table


def load_weights(path: str | Path, temperature: float = 1.0) -> MixtureWeights:
    return MixtureWeights(weights=load_table(path), temperature=temperature)
