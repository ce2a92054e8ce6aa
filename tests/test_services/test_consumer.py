"""Tests for consumers: preferences and rating behaviour."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.records import Interaction
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
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
