"""Evaluation metrics for reputation mechanisms."""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId


def score_mae(
    estimated: Mapping[EntityId, float],
    truth: Mapping[EntityId, float],
    empty: float = float("nan"),
) -> float:
    """Mean absolute error of estimated scores vs. ground truth.

    Compared over the intersection of keys.  An empty intersection
    returns *empty* — NaN by default, so "the mechanism scored nothing
    we have truth for" can never masquerade as a perfect 0.0 error
    (which is what this function silently reported before).  Callers
    that want the old behaviour pass ``empty=0.0``.
    """
    common = sorted(set(estimated) & set(truth))
    if not common:
        return empty
    return sum(abs(estimated[k] - truth[k]) for k in common) / len(common)


def _ranks(values: Sequence[float]) -> Sequence[float]:
    """Fractional ranks (ties averaged)."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def spearman_rho(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[float]:
    """Spearman rank correlation; None when undefined."""
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"spearman_rho: xs and ys must have equal length, "
            f"got {len(xs)} and {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        return None
    rx = _ranks(xs)
    ry = _ranks(ys)
    mean = (n + 1) / 2.0
    sxx = sum((r - mean) ** 2 for r in rx)
    syy = sum((r - mean) ** 2 for r in ry)
    if sxx <= 0 or syy <= 0:
        return None
    sxy = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    return sxy / (sxx * syy) ** 0.5


def kendall_tau(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[float]:
    """Kendall's tau-a; None when undefined."""
    if len(xs) != len(ys):
        raise ConfigurationError(
            f"kendall_tau: xs and ys must have equal length, "
            f"got {len(xs)} and {len(ys)}"
        )
    n = len(xs)
    if n < 2:
        return None
    concordant = 0
    discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            a = (xs[i] - xs[j]) * (ys[i] - ys[j])
            if a > 0:
                concordant += 1
            elif a < 0:
                discordant += 1
    total = n * (n - 1) / 2
    return (concordant - discordant) / total


def top_k_precision(
    estimated: Mapping[EntityId, float],
    truth: Mapping[EntityId, float],
    k: int = 1,
) -> float:
    """Share of the estimated top-k that belongs to the true top-k.

    The selection-relevant slice of ranking quality: a mechanism may
    misorder the tail freely as long as it surfaces the right leaders.
    """
    if k < 1:
        raise ConfigurationError(f"top_k_precision: k must be >= 1, got {k}")
    common = sorted(set(estimated) & set(truth))
    if not common:
        return 0.0
    k = min(k, len(common))
    top_estimated = set(
        sorted(common, key=lambda c: (-estimated[c], c))[:k]
    )
    top_true = set(sorted(common, key=lambda c: (-truth[c], c))[:k])
    return len(top_estimated & top_true) / k


def ranking_quality(
    estimated: Mapping[EntityId, float],
    truth: Mapping[EntityId, float],
) -> Dict[str, Optional[float]]:
    """Spearman/Kendall agreement between a model's scores and truth."""
    common = sorted(set(estimated) & set(truth))
    xs = [estimated[k] for k in common]
    ys = [truth[k] for k in common]
    return {
        "spearman": spearman_rho(xs, ys),
        "kendall": kendall_tau(xs, ys),
        "mae": score_mae(estimated, truth),
        "top1": top_k_precision(estimated, truth, k=1),
    }
