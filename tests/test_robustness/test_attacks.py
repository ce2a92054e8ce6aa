"""Tests for attack strategies."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.records import Interaction
from repro.robustness.attacks import (
    AttackPlan,
    badmouth_strategy,
    ballot_stuffing_strategy,
    collusion_strategy,
    complementary_liar_strategy,
    random_liar_strategy,
)
from repro.services.consumer import Consumer


def interaction(service="svc", success=True):
    return Interaction(
        consumer="c0", service=service, provider="p0", time=0.0,
        success=success, observations={"speed": 0.8} if success else {},
    )


HONEST = {"speed": 0.8, "cost": 0.6}


class TestBadmouth:
    def test_victims_trashed(self):
        strategy = badmouth_strategy(victims=["victim"], low=0.05)
        consumer = Consumer("liar", rating_strategy=strategy, rng=0)
        out = strategy(consumer, interaction("victim"), dict(HONEST))
        assert all(v == 0.05 for v in out.values())

    def test_non_victims_honest(self):
        strategy = badmouth_strategy(victims=["victim"])
        out = strategy(None, interaction("innocent"), dict(HONEST))
        assert out == HONEST

    def test_default_trashes_everyone(self):
        strategy = badmouth_strategy()
        out = strategy(None, interaction("anything"), dict(HONEST))
        assert all(v == 0.05 for v in out.values())


class TestBallotStuffing:
    def test_allies_praised(self):
        strategy = ballot_stuffing_strategy(allies=["ally"], high=0.95)
        out = strategy(None, interaction("ally"), dict(HONEST))
        assert all(v == 0.95 for v in out.values())

    def test_failed_ally_invocation_still_praised(self):
        strategy = ballot_stuffing_strategy(allies=["ally"])
        out = strategy(None, interaction("ally", success=False), {})
        assert out == {"overall": 0.95}

    def test_others_honest(self):
        strategy = ballot_stuffing_strategy(allies=["ally"])
        out = strategy(None, interaction("other"), dict(HONEST))
        assert out == HONEST

    def test_needs_allies(self):
        with pytest.raises(ConfigurationError):
            ballot_stuffing_strategy(allies=[])


class TestCollusion:
    def test_allies_up_others_down(self):
        strategy = collusion_strategy(allies=["ally"])
        up = strategy(None, interaction("ally"), dict(HONEST))
        down = strategy(None, interaction("rival"), dict(HONEST))
        assert all(v == 0.95 for v in up.values())
        assert all(v == 0.05 for v in down.values())


@pytest.mark.parametrize(
    "factory, kwargs, name",
    [
        (badmouth_strategy, {"low": -0.1}, "low"),
        (badmouth_strategy, {"low": 1.2}, "low"),
        (ballot_stuffing_strategy, {"allies": ["s1"], "high": 1.5}, "high"),
        (ballot_stuffing_strategy, {"allies": ["s1"], "high": -0.5}, "high"),
        (collusion_strategy, {"allies": ["s1"], "high": 1.5}, "high"),
        (collusion_strategy, {"allies": ["s1"], "low": -0.01}, "low"),
    ],
)
def test_out_of_range_level_rejected(factory, kwargs, name):
    with pytest.raises(ConfigurationError, match=rf"^{name} must be in \[0, 1\]"):
        factory(**kwargs)


class TestComplementaryLiar:
    def test_inverts(self):
        strategy = complementary_liar_strategy()
        out = strategy(None, interaction(), {"speed": 0.8})
        assert out == {"speed": pytest.approx(0.2)}


class TestRandomLiar:
    def test_zero_probability_is_honest(self):
        strategy = random_liar_strategy(lie_probability=0.0, rng=0)
        assert strategy(None, interaction(), dict(HONEST)) == HONEST

    def test_certain_liar_randomizes(self):
        strategy = random_liar_strategy(lie_probability=1.0, rng=0)
        out = strategy(None, interaction(), dict(HONEST))
        assert set(out) == set(HONEST)
        assert out != HONEST

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            random_liar_strategy(lie_probability=1.5)


class TestAttackPlan:
    def test_liar_fraction_selects_deterministically(self):
        consumers = [Consumer(f"c{i}", rng=0) for i in range(10)]
        plan = AttackPlan(
            liar_fraction=0.3,
            strategy_factory=lambda: badmouth_strategy(),
        )
        liars = plan.apply(consumers)
        assert [c.consumer_id for c in liars] == ["c0", "c1", "c2"]

    def test_no_strategy_no_liars(self):
        consumers = [Consumer(f"c{i}", rng=0) for i in range(5)]
        assert AttackPlan(liar_fraction=0.5).apply(consumers) == []

    def test_sybil_minting(self):
        plan = AttackPlan(sybil_count=3)
        ids = plan.mint_sybils()
        assert ids == ["sybil-000", "sybil-001", "sybil-002"]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AttackPlan(liar_fraction=1.5)
        with pytest.raises(ConfigurationError):
            AttackPlan(sybil_count=-1)
