"""Numeric helpers shared by reputation models and the QoS machinery."""

from __future__ import annotations

import math
from operator import mul
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError


def clamp(value: float, low: float, high: float) -> float:
    """Restrict *value* to the closed interval ``[low, high]``."""
    if low > high:
        raise ConfigurationError(
            f"clamp: low must be <= high, got the empty interval "
            f"[{low}, {high}]"
        )
    return max(low, min(high, value))


def safe_mean(values: Iterable[float], default: float = 0.0) -> float:
    """Arithmetic mean, or *default* for an empty iterable."""
    values = list(values)
    if not values:
        return default
    return sum(values) / len(values)


def weighted_mean(
    values: Sequence[float],
    weights: Sequence[float],
    default: float = 0.0,
) -> float:
    """Weighted arithmetic mean; *default* when total weight is zero.

    Raises :class:`~repro.common.errors.ConfigurationError` on length
    mismatch or negative weights.
    """
    if len(values) != len(weights):
        raise ConfigurationError(
            f"weighted_mean: values and weights must have equal length, "
            f"got {len(values)} and {len(weights)}"
        )
    if any(w < 0 for w in weights):
        raise ConfigurationError("weighted_mean: weights must be non-negative")
    total = sum(weights)
    if total <= 0:
        return default
    return sum(v * w for v, w in zip(values, weights)) / total


def normalize_weights(weights: Mapping[str, float]) -> Dict[str, float]:
    """Scale a non-negative weight mapping so it sums to one.

    An all-zero (or empty) mapping yields uniform weights over its keys;
    an empty mapping returns an empty dict.
    """
    if any(w < 0 for w in weights.values()):
        raise ConfigurationError(
            "normalize_weights: weights must be non-negative"
        )
    total = sum(weights.values())
    if not weights:
        return {}
    if total <= 0:
        uniform = 1.0 / len(weights)
        return {key: uniform for key in weights}
    return {key: w / total for key, w in weights.items()}


def exponential_decay(age: float, half_life: float) -> float:
    """Weight in ``(0, 1]`` for an observation *age* old.

    ``half_life`` is the age at which the weight is exactly 0.5.  A
    non-positive age yields weight 1.0.
    """
    if half_life <= 0:
        raise ConfigurationError(
            f"exponential_decay: half_life must be positive, got {half_life}"
        )
    if age <= 0:
        return 1.0
    return math.pow(0.5, age / half_life)


def _centered(values: Sequence[float]) -> Tuple[Sequence[float], float]:
    mean = sum(values) / len(values)
    return [v - mean for v in values], mean


def pearson_correlation(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[float]:
    """Pearson correlation coefficient of two equal-length samples.

    Returns ``None`` when undefined: fewer than two points, or either
    sample has zero variance.
    """
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"pearson_correlation: xs and ys must have equal length, "
            f"got {len(xs)} and {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        return None
    cx, _ = _centered(xs)
    cy, _ = _centered(ys)
    # map(mul, ...) hands sum the products a generator would, in the
    # same order, with no Python frame per item
    sxx = sum(map(mul, cx, cx))
    syy = sum(map(mul, cy, cy))
    if sxx <= 0 or syy <= 0:
        return None
    sxy = sum(map(mul, cx, cy))
    return clamp(sxy / math.sqrt(sxx * syy), -1.0, 1.0)


def cosine_similarity(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[float]:
    """Cosine of the angle between two equal-length vectors.

    Returns ``None`` when either vector is all-zero or empty.
    """
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"cosine_similarity: xs and ys must have equal length, "
            f"got {len(xs)} and {len(ys)}"
        )
    if not xs:
        return None
    nx = math.sqrt(sum(map(mul, xs, xs)))
    ny = math.sqrt(sum(map(mul, ys, ys)))
    if nx <= 0 or ny <= 0:
        return None
    dot = sum(map(mul, xs, ys))
    return clamp(dot / (nx * ny), -1.0, 1.0)
