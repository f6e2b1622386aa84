import math
from collections import Counter

import mpmath
import pytest

from multipar.sampling import (
    SamplingError,
    load_table,
    sample_schedule,
    save_weights,
    temperature_weights,
)


def mpmath_temperature_oracle(sizes, temperature, dps=60):
    """Arbitrary-precision reference for the temperature weights."""
    with mpmath.workdps(dps):
        total = mpmath.mpf(sum(sizes.values()))
        raw = {
            k: mpmath.power(mpmath.mpf(n) / total, mpmath.mpf(1) / temperature)
            for k, n in sizes.items()
        }
        norm = sum(raw.values())
        return {k: float(v / norm) for k, v in raw.items()}


def test_t1_recovers_proportional_sampling():
    sizes = {"a": 30, "b": 50, "c": 20}
    weights = temperature_weights(sizes, 1.0)
    for k, n in sizes.items():
        assert weights[k] == pytest.approx(n / 100, abs=1e-15)


def test_equal_sizes_give_exactly_uniform_weights():
    weights = temperature_weights({"a": 7, "b": 7, "c": 7, "d": 7}, 3.0)
    assert all(w == 0.25 for w in weights.values())


def test_huge_temperature_flattens_to_uniform():
    sizes = {"high": 5_000_000, "med": 1_000_000, "low": 100_000}
    weights = temperature_weights(sizes, 1e9)
    for w in weights.values():
        assert abs(w - 1 / 3) < 1e-6


def test_monotone_flattening():
    sizes = {"big": 1000, "small": 10}
    spread = [
        temperature_weights(sizes, t)["big"]
        - temperature_weights(sizes, t)["small"]
        for t in (1.0, 2.0, 5.0, 100.0)
    ]
    assert spread == sorted(spread, reverse=True)
    assert all(s > 0 for s in spread)


def test_matches_arbitrary_precision_oracle():
    sizes = {"high": 5_000_000, "med": 1_000_000, "low": 100_000}
    weights = temperature_weights(sizes, 5.0)
    oracle = mpmath_temperature_oracle(sizes, 5.0)
    for k in sizes:
        assert abs(weights[k] - oracle[k]) < 1e-12


def test_validation():
    with pytest.raises(SamplingError):
        temperature_weights({"a": 1}, 0.0)
    with pytest.raises(SamplingError):
        temperature_weights({}, 1.0)
    with pytest.raises(SamplingError):
        temperature_weights({"a": 0}, 1.0)


def test_schedule_deterministic_and_seed_sensitive():
    weights = temperature_weights({"a": 3, "b": 1}, 1.0)
    one = sample_schedule(weights, 500, seed=11)
    two = sample_schedule(weights, 500, seed=11)
    other = sample_schedule(weights, 500, seed=12)
    assert one == two
    assert one != other
    assert len(one) == 500


def test_schedule_empirical_frequencies_within_three_sigma():
    weights = temperature_weights({"a": 3, "b": 1}, 1.0)
    n = 20_000
    counts = Counter(sample_schedule(weights, n, seed=0))
    p = 0.75
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(counts["a"] - n * p) < 3 * sigma


def test_schedule_degenerate_weight_always_sampled():
    weights = {"only": 1.0}
    assert sample_schedule(weights, 10, seed=0) == ["only"] * 10


def test_schedule_validation():
    weights = temperature_weights({"a": 1, "b": 1}, 1.0)
    with pytest.raises(SamplingError):
        sample_schedule(weights, -1, seed=0)
    assert sample_schedule(weights, 0, seed=0) == []


def test_weights_tsv_round_trip(tmp_path):
    weights = temperature_weights({"high": 5_000_000, "low": 100_000}, 5.0)
    path = tmp_path / "weights.tsv"
    save_weights(weights, path)
    loaded = load_table(path)
    for k, v in weights.items():
        assert loaded[k] == pytest.approx(v, abs=1e-15)
