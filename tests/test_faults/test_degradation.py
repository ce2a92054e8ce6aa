"""Stale caches, confidence discounting, ranking fallback."""

from __future__ import annotations

import pytest

from repro.common.errors import ConfigurationError
from repro.core.decay import ExponentialDecay, NoDecay, SlidingWindow
from repro.faults.degradation import (
    StaleCache,
    StaleRankingFallback,
    StaleValue,
    discounted_score,
)


class TestStaleCache:
    def test_miss_on_empty(self):
        cache = StaleCache()
        assert cache.get("k", 0.0) is None
        assert cache.misses == 1
        assert len(cache) == 0

    def test_fresh_hit_full_confidence(self):
        cache = StaleCache()
        cache.put("k", [1, 2], now=10.0)
        stale = cache.get("k", now=10.0)
        assert stale == StaleValue(value=[1, 2], age=0.0, confidence=1.0)
        assert cache.hits == 1
        assert "k" in cache

    def test_confidence_decays_with_age(self):
        cache = StaleCache(decay=ExponentialDecay(half_life=10.0))
        cache.put("k", "v", now=0.0)
        assert cache.get("k", now=10.0).confidence == pytest.approx(0.5)
        assert cache.get("k", now=20.0).confidence == pytest.approx(0.25)

    def test_max_age_hard_floor(self):
        cache = StaleCache(decay=NoDecay(), max_age=5.0)
        cache.put("k", "v", now=0.0)
        assert cache.get("k", now=5.0) is not None
        assert cache.get("k", now=5.1) is None

    def test_zero_confidence_is_a_miss(self):
        cache = StaleCache(decay=SlidingWindow(window=3.0))
        cache.put("k", "v", now=0.0)
        assert cache.get("k", now=2.0).confidence == 1.0
        assert cache.get("k", now=4.0) is None  # weight 0 -> miss

    def test_put_refreshes_age(self):
        cache = StaleCache(decay=ExponentialDecay(half_life=10.0))
        cache.put("k", "old", now=0.0)
        cache.put("k", "new", now=50.0)
        stale = cache.get("k", now=50.0)
        assert stale.value == "new"
        assert stale.confidence == 1.0

    def test_clock_skew_clamps_to_zero_age(self):
        cache = StaleCache()
        cache.put("k", "v", now=10.0)
        assert cache.get("k", now=5.0).age == 0.0

    def test_rejects_non_positive_max_age(self):
        with pytest.raises(ConfigurationError):
            StaleCache(max_age=0.0)


class TestDiscountedScore:
    def test_full_confidence_keeps_score(self):
        assert discounted_score(0.9, 1.0) == pytest.approx(0.9)

    def test_zero_confidence_returns_prior(self):
        assert discounted_score(0.9, 0.0) == pytest.approx(0.5)
        assert discounted_score(0.1, 0.0, prior=0.3) == pytest.approx(0.3)

    def test_shrinks_toward_prior_from_both_sides(self):
        assert discounted_score(0.9, 0.5) == pytest.approx(0.7)
        assert discounted_score(0.1, 0.5) == pytest.approx(0.3)

    def test_preserves_order_at_equal_confidence(self):
        high = discounted_score(0.8, 0.4)
        low = discounted_score(0.6, 0.4)
        assert high > low

    def test_rejects_confidence_out_of_range(self):
        with pytest.raises(ConfigurationError):
            discounted_score(0.5, 1.5)


class TestStaleRankingFallback:
    def test_recall_discounts_scores(self):
        fallback = StaleRankingFallback(
            decay=ExponentialDecay(half_life=10.0)
        )
        ranking = [("svc-a", 0.9), ("svc-b", 0.3)]
        fallback.remember("key", ranking, now=0.0)
        recalled = fallback.recall("key", now=10.0)  # confidence 0.5
        assert [target for target, _ in recalled] == ["svc-a", "svc-b"]
        assert recalled[0][1] == pytest.approx(0.7)
        assert recalled[1][1] == pytest.approx(0.4)

    def test_recall_preserves_ranking_order(self):
        fallback = StaleRankingFallback()
        ranking = [(f"s{i}", 1.0 - i * 0.1) for i in range(5)]
        fallback.remember("k", ranking, now=0.0)
        recalled = fallback.recall("k", now=30.0)
        scores = [score for _, score in recalled]
        assert scores == sorted(scores, reverse=True)

    def test_recall_missing_key(self):
        assert StaleRankingFallback().recall("nope", now=0.0) is None
