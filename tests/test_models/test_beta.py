"""Tests for the Beta reputation baseline."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.records import Feedback
from repro.models.beta import BetaReputation

from tests.conftest import feedback, feedback_series


class TestBetaReputation:
    def test_no_evidence_is_prior(self):
        assert BetaReputation().score("unknown") == 0.5

    def test_positive_evidence_raises_score(self):
        model = BetaReputation()
        model.record_many(feedback_series("svc", [0.9] * 5))
        assert model.score("svc") > 0.7

    def test_negative_evidence_lowers_score(self):
        model = BetaReputation()
        model.record_many(feedback_series("svc", [0.1] * 5))
        assert model.score("svc") < 0.3

    def test_score_converges_to_mean_rating(self):
        model = BetaReputation()
        model.record_many(feedback_series("svc", [0.7] * 200))
        assert model.score("svc") == pytest.approx(0.7, abs=0.01)

    def test_forgetting_factor_prefers_recent(self):
        forgetful = BetaReputation(lam=0.5)
        # Old bad history followed by recent good.
        forgetful.record_many(
            feedback_series("svc", [0.1] * 10 + [0.9] * 5)
        )
        eternal = BetaReputation(lam=1.0)
        eternal.record_many(
            feedback_series("svc", [0.1] * 10 + [0.9] * 5)
        )
        assert forgetful.score("svc") > eternal.score("svc")

    def test_confidence_grows_with_evidence(self):
        model = BetaReputation()
        assert model.confidence("svc") == 0.0
        model.record(feedback(target="svc"))
        low = model.confidence("svc")
        model.record_many(feedback_series("svc", [0.8] * 10))
        assert model.confidence("svc") > low

    def test_evidence_accessor(self):
        model = BetaReputation()
        model.record(feedback(target="svc", rating=1.0))
        alpha, beta = model.evidence("svc")
        assert alpha == 1.0 and beta == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BetaReputation(prior_alpha=0.0)
        with pytest.raises(ConfigurationError):
            BetaReputation(lam=0.0)
        with pytest.raises(ConfigurationError):
            BetaReputation(lam=1.5)

    @given(st.lists(st.floats(0.0, 1.0), max_size=50))
    def test_property_score_bounded(self, ratings):
        model = BetaReputation()
        for i, r in enumerate(ratings):
            model.record(Feedback(rater=f"c{i}", target="svc",
                                  time=float(i), rating=r))
        assert 0.0 <= model.score("svc") <= 1.0

    def test_rank_orders_by_score(self):
        model = BetaReputation()
        model.record_many(feedback_series("good", [0.9] * 5))
        model.record_many(feedback_series("bad", [0.1] * 5))
        ranking = model.rank(["bad", "good", "unknown"])
        assert [target for target, _ in ranking] == ["good", "unknown", "bad"]

    def test_best(self):
        model = BetaReputation()
        model.record_many(feedback_series("good", [0.9] * 5))
        assert model.best(["good", "unknown"]) == "good"
        assert model.best([]) is None
