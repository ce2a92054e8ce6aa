"""Tests for the selection engine and policies."""

import pytest

from repro.common.errors import ConfigurationError
from repro.core.selection import (
    EpsilonGreedyPolicy,
    GreedyPolicy,
    SelectionEngine,
    SoftmaxPolicy,
)
from repro.models.beta import BetaReputation
from repro.registry.uddi import UDDIRegistry
from repro.services.description import ServiceDescription

from tests.conftest import feedback_series


RANKING = [("best", 0.9), ("mid", 0.5), ("worst", 0.1)]


class TestGreedyPolicy:
    def test_picks_top(self):
        assert GreedyPolicy().choose(RANKING) == "best"

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            GreedyPolicy().choose([])


class TestEpsilonGreedyPolicy:
    def test_zero_epsilon_is_greedy(self):
        policy = EpsilonGreedyPolicy(epsilon=0.0, rng=0)
        assert all(policy.choose(RANKING) == "best" for _ in range(20))

    def test_full_epsilon_explores(self):
        policy = EpsilonGreedyPolicy(epsilon=1.0, rng=0)
        chosen = {policy.choose(RANKING) for _ in range(50)}
        assert chosen == {"best", "mid", "worst"}

    def test_tied_top_randomized(self):
        tied = [("a", 0.5), ("b", 0.5)]
        policy = EpsilonGreedyPolicy(epsilon=0.0, rng=0)
        chosen = {policy.choose(tied) for _ in range(50)}
        assert chosen == {"a", "b"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EpsilonGreedyPolicy(epsilon=1.5)


class TestSoftmaxPolicy:
    def test_low_temperature_concentrates(self):
        policy = SoftmaxPolicy(temperature=0.01, rng=0)
        picks = [policy.choose(RANKING) for _ in range(50)]
        assert picks.count("best") > 45

    def test_high_temperature_spreads(self):
        policy = SoftmaxPolicy(temperature=100.0, rng=0)
        picks = {policy.choose(RANKING) for _ in range(100)}
        assert picks == {"best", "mid", "worst"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SoftmaxPolicy(temperature=0.0)


class TestSelectionEngine:
    def build(self):
        registry = UDDIRegistry()
        for svc in ["good-svc", "bad-svc"]:
            registry.publish(ServiceDescription(
                service=svc, provider="p0", category="weather"
            ))
        registry.publish(ServiceDescription(
            service="other", provider="p0", category="flights"
        ))
        model = BetaReputation()
        model.record_many(feedback_series("good-svc", [0.9] * 5))
        model.record_many(feedback_series("bad-svc", [0.1] * 5))
        return SelectionEngine(registry, model)

    def test_candidates_filtered_by_category(self):
        engine = self.build()
        assert sorted(engine.candidates("weather")) == ["bad-svc", "good-svc"]

    def test_select_best(self):
        engine = self.build()
        assert engine.select("weather") == "good-svc"
        assert engine.selections_made == 1

    def test_select_empty_category(self):
        engine = self.build()
        assert engine.select("nonexistent") is None
        assert engine.selections_made == 0

    def test_rank_exposes_scores(self):
        engine = self.build()
        ranking = engine.rank("weather")
        assert ranking[0][0] == "good-svc"
        assert ranking[0][1] > ranking[1][1]


# ---------------------------------------------------------------------------
# Graceful degradation: stale-ranking fallback
# ---------------------------------------------------------------------------

from repro.common.errors import RegistryError  # noqa: E402
from repro.faults.degradation import StaleRankingFallback  # noqa: E402
from repro.models.base import ReputationModel  # noqa: E402


class FlickeringModel(ReputationModel):
    """Scores 0.9/0.1 while up; raises RegistryError while down."""

    name = "flickering"

    def __init__(self):
        self.up = True

    def record(self, feedback):
        pass

    def score(self, target, perspective=None, now=None):
        if not self.up:
            raise RegistryError("backend down")
        return 0.9 if target == "good" else 0.1


def degradable_engine(fallback=None):
    registry = UDDIRegistry()
    for svc in ("good", "bad"):
        registry.publish(
            ServiceDescription(service=svc, provider="p", category="cat")
        )
    model = FlickeringModel()
    return SelectionEngine(registry, model, fallback=fallback), model


class TestSelectionFallback:
    def test_no_fallback_propagates_failure(self):
        engine, model = degradable_engine()
        model.up = False
        with pytest.raises(RegistryError):
            engine.select("cat", now=0.0)
        assert engine.degraded_selections == 0

    def test_degrades_to_cached_ranking(self):
        engine, model = degradable_engine(StaleRankingFallback())
        assert engine.select("cat", now=0.0) == "good"
        model.up = False
        assert engine.select("cat", now=1.0) == "good"
        assert engine.degraded_selections == 1
        assert engine.selections_made == 2

    def test_cold_cache_failure_returns_none(self):
        engine, model = degradable_engine(StaleRankingFallback())
        model.up = False
        assert engine.select("cat", now=0.0) is None
        assert engine.failed_selections == 1
        assert engine.degraded_selections == 0

    def test_fallback_is_per_category_and_perspective(self):
        engine, model = degradable_engine(StaleRankingFallback())
        engine.select("cat", perspective="c0", now=0.0)
        model.up = False
        # same category, different perspective: cold key
        assert engine.select("cat", perspective="c1", now=1.0) is None
        assert engine.select("cat", perspective="c0", now=1.0) == "good"

    def test_recovery_resumes_fresh_path(self):
        engine, model = degradable_engine(StaleRankingFallback())
        engine.select("cat", now=0.0)
        model.up = False
        engine.select("cat", now=1.0)
        model.up = True
        engine.select("cat", now=2.0)
        assert engine.degraded_selections == 1
        assert engine.failed_selections == 0
