"""Tests for consumers: preferences and rating behaviour."""

import copy
import math
import random

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.records import Interaction
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
    honest_rating_strategy,
    quality_scores,
)
from repro.services.qos import DEFAULT_METRICS


def make_interaction(success=True, observations=None, time=1.0):
    if observations is None and success:
        observations = {
            "response_time": 0.2,  # quality ~0.9 (lower better, 0.01-2)
            "availability": 0.95,
        }
    return Interaction(
        consumer="c0",
        service="s0",
        provider="p0",
        time=time,
        success=success,
        observations=observations or {},
    )


class TestPreferenceProfile:
    def test_weights_normalized(self):
        profile = PreferenceProfile({"a": 2.0, "b": 2.0})
        assert profile.weight("a") == 0.5

    def test_overall_weighted(self):
        profile = PreferenceProfile({"a": 3.0, "b": 1.0})
        assert profile.overall({"a": 1.0, "b": 0.0}) == 0.75

    def test_overall_missing_facets_renormalized(self):
        profile = PreferenceProfile({"a": 1.0, "b": 1.0, "c": 2.0})
        # Only "a" present: it carries all the weight.
        assert profile.overall({"a": 0.8}) == 0.8

    def test_overall_no_overlap_falls_back_to_mean(self):
        profile = PreferenceProfile({"a": 1.0})
        assert profile.overall({"x": 0.2, "y": 0.4}) == pytest.approx(0.3)

    def test_overall_empty_scores(self):
        assert PreferenceProfile({"a": 1.0}).overall({}) == 0.0

    def test_uniform_constructor(self):
        profile = PreferenceProfile.uniform(["a", "b"], segment=2)
        assert profile.weight("a") == 0.5
        assert profile.segment == 2

    @staticmethod
    def _overall_by_intersection(profile, facet_scores):
        """``overall`` before its fast path, kept verbatim as the oracle."""
        common = {
            m: w for m, w in profile.weights.items() if m in facet_scores
        }
        total = sum(common.values())
        if total <= 0:
            if not facet_scores:
                return 0.0
            return sum(facet_scores.values()) / len(facet_scores)
        return sum(facet_scores[m] * w for m, w in common.items()) / total

    def test_overall_fast_path_is_the_intersection_path_bitwise(self):
        """Every weighted metric filed (the fast path) or not: full facet
        dicts in either order, partial ones (an attack strategy that
        files only ``overall``, or some facets), extra facets, weights
        listed in another order than the taxonomy, and all-zero or no
        weights."""
        rng = random.Random(7)
        metrics = list(DEFAULT_METRICS)
        for trial in range(300):
            order = rng.sample(metrics, len(metrics))
            if trial % 10 == 0:
                weights = {m: 0.0 for m in order}
            elif trial % 10 == 1:
                weights = {}
            else:
                weights = {
                    m: rng.choice([0.0, rng.random(), rng.randint(1, 9)])
                    for m in order
                }
            profile = PreferenceProfile(weights, segment=trial % 3)
            scores = {m: rng.random() for m in metrics}
            filings = [
                scores,
                dict(reversed(list(scores.items()))),
                {m: scores[m] for m in rng.sample(metrics, 2)},
                {"overall": 1.0},
                {**scores, "overall": 0.25},
                {},
            ]
            for filed in filings:
                got = profile.overall(filed)
                expected = self._overall_by_intersection(profile, filed)
                assert got.hex() == float(expected).hex(), (weights, filed)

    def test_taste_key_is_the_truth_table_key(self):
        from repro.services.provider import TruthTable

        profile = PreferenceProfile({"b": 1.0, "a": 3.0}, segment=2)
        assert profile.taste_key == TruthTable.taste_key(
            profile.weights, profile.segment
        )
        assert profile.taste_key != PreferenceProfile(
            {"b": 1.0, "a": 3.0}, segment=1
        ).taste_key


def _clamp_as_conditionals(x):
    """The clamp as ``quality_scores``, ``rate`` and ``QoSProfile.sample``
    write it."""
    return (x if x > 0.0 else 0.0) if x < 1.0 else 1.0


class TestClamp:
    TINY = 5e-324

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 1.0, math.nan, -math.nan, math.inf, -math.inf,
        -TINY, TINY, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
        -1.0, 0.5, 2.0,
    ])
    def test_conditionals_equal_max_min(self, x):
        """Same float, sign of zero included, for every edge value."""
        expected = max(0.0, min(1.0, x))
        got = _clamp_as_conditionals(x)
        assert got.hex() == expected.hex()
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("success", [True, False])
    @pytest.mark.parametrize("x", [
        -0.0, math.nan, math.inf, -math.inf, -TINY,
        math.nextafter(1.0, 2.0), 2.0,
    ])
    def test_rate_clamps_filings_like_max_min(self, x, success):
        """Whatever a strategy files, ``rate`` clamps it to the float
        ``max(0.0, min(1.0, x))`` gives, on both branches."""
        consumer = Consumer(
            "c0", PreferenceProfile({"availability": 1.0}),
            rating_strategy=lambda c, i, scores: {"availability": x},
        )
        feedback = consumer.rate(make_interaction(success), DEFAULT_METRICS)
        expected = max(0.0, min(1.0, x))
        assert feedback.facet_ratings["availability"].hex() == expected.hex()
        assert feedback.rating.hex() == expected.hex()


class TestHonestFiling:
    """An honest ``rate`` files its scores with no copy and no second
    clamp: it must file what the copy-and-clamp path (any other
    strategy's) files, bit for bit, signed zeros included."""

    @staticmethod
    def _edges(low, span):
        """A metric's observation edges: its scale's ends and their
        neighbours, signed zeros, NaN and both infinities."""
        high = low + span
        return [
            low, high, math.nextafter(low, -math.inf),
            math.nextafter(low, math.inf), math.nextafter(high, math.inf),
            -0.0, 0.0, math.nan, math.inf, -math.inf, low + span / 2,
        ]

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("zero_span", [False, True], ids=["span", "zero"])
    def test_honest_filing_equals_copy_and_clamp(self, noise, zero_span):
        taxonomy = copy.copy(DEFAULT_METRICS)
        if zero_span:
            # a scale of zero width: float64 division by it gives +-inf
            # or NaN, which quality_scores' clamp must still bound
            taxonomy.scales = {
                name: (low, 0.0, lower)
                for name, (low, _, lower) in DEFAULT_METRICS.scales.items()
            }
        edges = {
            name: self._edges(low, span)
            for name, (low, span, _) in DEFAULT_METRICS.scales.items()
        }
        profile = PreferenceProfile({"availability": 2.0, "cost": 1.0})
        copying = lambda c, i, scores: honest_rating_strategy(c, i, scores)  # noqa: E731
        for turn in range(40):
            # float64 observations divide by a zero span without raising
            observations = {
                name: np.float64(values[(turn * 7 + j) % len(values)])
                for j, (name, values) in enumerate(edges.items())
            }
            interaction = make_interaction(observations=observations)
            with np.errstate(divide="ignore", invalid="ignore"):
                fast, slow = (
                    Consumer("c0", profile, strategy, noise, rng=turn).rate(
                        interaction, taxonomy
                    )
                    for strategy in (honest_rating_strategy, copying)
                )
            assert list(fast.facet_ratings) == list(slow.facet_ratings)
            for name, value in fast.facet_ratings.items():
                want = slow.facet_ratings[name]
                assert float(value).hex() == float(want).hex(), (turn, name)
            assert fast.rating.hex() == slow.rating.hex(), turn


class TestQualityScores:
    def test_normalizes_via_taxonomy(self):
        scores = quality_scores(make_interaction(), DEFAULT_METRICS)
        assert scores["availability"] == pytest.approx(0.95)
        assert scores["response_time"] > 0.85  # fast response = good

    def test_ignores_unknown_metrics(self):
        inter = make_interaction(observations={"weird_metric": 1.0})
        assert quality_scores(inter, DEFAULT_METRICS) == {}


class TestConsumer:
    def test_honest_rating_reflects_quality(self):
        consumer = Consumer("c0", rating_noise=0.0, rng=0)
        fb = consumer.rate(make_interaction(), DEFAULT_METRICS)
        assert fb.rater == "c0"
        assert fb.target == "s0"
        assert fb.rating > 0.8
        assert "availability" in fb.facet_ratings

    def test_failed_invocation_rated_zero(self):
        consumer = Consumer("c0", rating_noise=0.0, rng=0)
        fb = consumer.rate(make_interaction(success=False), DEFAULT_METRICS)
        assert fb.rating == 0.0
        assert fb.facet_ratings == {}

    def test_rating_noise_is_bounded(self):
        consumer = Consumer("c0", rating_noise=0.5, rng=1)
        for _ in range(20):
            fb = consumer.rate(make_interaction(), DEFAULT_METRICS)
            assert 0.0 <= fb.rating <= 1.0
            for v in fb.facet_ratings.values():
                assert 0.0 <= v <= 1.0

    def test_preferences_shape_overall(self):
        fast_lover = Consumer(
            "c0",
            preferences=PreferenceProfile({"response_time": 1.0}),
            rating_noise=0.0,
            rng=0,
        )
        avail_lover = Consumer(
            "c1",
            preferences=PreferenceProfile({"availability": 1.0}),
            rating_noise=0.0,
            rng=0,
        )
        inter = make_interaction(
            observations={"response_time": 0.05, "availability": 0.5}
        )
        fast_fb = fast_lover.rate(inter, DEFAULT_METRICS)
        avail_fb = avail_lover.rate(inter, DEFAULT_METRICS)
        assert fast_fb.rating > avail_fb.rating

    def test_dishonest_strategy_plugs_in(self):
        def liar(consumer, interaction, facet_scores):
            return {f: 0.0 for f in facet_scores}

        consumer = Consumer("c0", rating_strategy=liar, rating_noise=0.0,
                            rng=0)
        fb = consumer.rate(make_interaction(), DEFAULT_METRICS)
        assert fb.rating == 0.0

    @pytest.mark.parametrize("success", [True, False])
    def test_out_of_range_filing_clamped_on_both_branches(self, success):
        # A failed invocation used to skip the clamp and crash in Feedback.
        def overshoot(consumer, interaction, facet_scores):
            return {"overall": 1.5, "cost": -0.5}

        consumer = Consumer("c0", rating_strategy=overshoot, rng=0)
        fb = consumer.rate(make_interaction(success=success), DEFAULT_METRICS)
        assert fb.facet_ratings == {"overall": 1.0, "cost": 0.0}
        assert 0.0 <= fb.rating <= 1.0

    def test_rate_provider_retargets(self):
        consumer = Consumer("c0", rating_noise=0.0, rng=0)
        fb = consumer.rate(make_interaction(), DEFAULT_METRICS)
        pfb = consumer.rate_provider(fb, "p0")
        assert pfb.target == "p0"
        assert pfb.rating == fb.rating

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            Consumer("c0", rating_noise=-0.1)

    def test_feedback_carries_interaction(self):
        consumer = Consumer("c0", rating_noise=0.0, rng=0)
        inter = make_interaction()
        fb = consumer.rate(inter, DEFAULT_METRICS)
        assert fb.interaction is inter

    def test_lazy_stream_is_the_eager_stream(self):
        """The generator is made on the first rate, and draws what the
        same source would have drawn had it been made up front."""
        def ratings(consumer):
            return [
                consumer.rate(make_interaction(), DEFAULT_METRICS).rating
                for _ in range(3)
            ]

        lazy = Consumer("c0", rating_noise=0.3, rng=12)
        assert "_rng" not in vars(lazy)
        eager = Consumer(
            "c0", rating_noise=0.3, rng=np.random.default_rng(12)
        )
        assert ratings(lazy) == ratings(eager)
        shared = np.random.default_rng(4)
        assert Consumer("c1", rng=shared)._rng is shared
        fresh = Consumer("c2", rating_noise=0.3)
        assert "_rng" not in vars(fresh)
        ratings(fresh)
        assert isinstance(vars(fresh)["_rng"], np.random.Generator)
