"""Tests for providers, services and quality behaviours."""

import pytest

from repro.common.errors import ConfigurationError
from repro.services.description import ServiceDescription
from repro.services.provider import (
    DegradingBehavior,
    ExaggerationPolicy,
    ImprovingBehavior,
    OscillatingBehavior,
    Provider,
    Service,
    StaticBehavior,
    TruthTable,
)
from repro.services.qos import QoSProfile


def make_service(service_id="s0", provider_id="p0", quality=0.7,
                 behavior=None):
    return Service(
        description=ServiceDescription(
            service=service_id, provider=provider_id, category="cat"
        ),
        profile=QoSProfile(quality={"a": quality, "b": quality}, noise=0.0),
        behavior=behavior or StaticBehavior(),
    )


class TestBehaviors:
    def test_static_is_constant(self):
        svc = make_service()
        assert svc.profile_at(0.0).quality == svc.profile_at(1000.0).quality

    def test_improving_starts_low_and_recovers(self):
        svc = make_service(
            behavior=ImprovingBehavior(initial_deficit=0.4, ramp_duration=100)
        )
        assert svc.profile_at(0.0).quality["a"] == pytest.approx(0.3)
        assert svc.profile_at(50.0).quality["a"] == pytest.approx(0.5)
        assert svc.profile_at(100.0).quality["a"] == pytest.approx(0.7)
        assert svc.profile_at(500.0).quality["a"] == pytest.approx(0.7)

    def test_degrading_drops_at_onset(self):
        svc = make_service(behavior=DegradingBehavior(drop=0.4, onset=50))
        assert svc.profile_at(49.9).quality["a"] == pytest.approx(0.7)
        assert svc.profile_at(50.0).quality["a"] == pytest.approx(0.3)

    def test_oscillating_phases(self):
        svc = make_service(
            behavior=OscillatingBehavior(drop=0.4, good_duration=10,
                                         bad_duration=10)
        )
        assert svc.profile_at(5.0).quality["a"] == pytest.approx(0.7)
        assert svc.profile_at(15.0).quality["a"] == pytest.approx(0.3)
        assert svc.profile_at(25.0).quality["a"] == pytest.approx(0.7)

    def test_behavior_validation(self):
        with pytest.raises(ConfigurationError):
            ImprovingBehavior(ramp_duration=0)
        with pytest.raises(ConfigurationError):
            OscillatingBehavior(good_duration=0)
        with pytest.raises(ConfigurationError):
            DegradingBehavior(drop=-1)


class TestExaggerationPolicy:
    def test_honest_advertises_truth(self):
        policy = ExaggerationPolicy(inflation=0.0)
        ad = policy.advertise("s0", {"a": 0.6})
        assert ad.claimed["a"] == 0.6
        assert ad.exaggeration({"a": 0.6}) == 0.0

    def test_inflated_claims(self):
        policy = ExaggerationPolicy(inflation=0.3)
        ad = policy.advertise("s0", {"a": 0.6, "b": 0.9})
        assert ad.claimed["a"] == pytest.approx(0.9)
        assert ad.claimed["b"] == 1.0  # clamped
        assert ad.exaggeration({"a": 0.6, "b": 0.9}) > 0


class TestProvider:
    def test_add_and_lookup(self):
        provider = Provider("p0")
        svc = make_service()
        provider.add_service(svc)
        assert provider.service("s0") is svc
        assert provider.services == [svc]

    def test_wrong_provider_rejected(self):
        provider = Provider("p1")
        with pytest.raises(ConfigurationError):
            provider.add_service(make_service(provider_id="p0"))

    def test_duplicate_service_rejected(self):
        provider = Provider("p0")
        provider.add_service(make_service())
        with pytest.raises(ConfigurationError):
            provider.add_service(make_service())

    def test_advertisement_uses_base_profile(self):
        provider = Provider("p0", ExaggerationPolicy(inflation=0.1))
        provider.add_service(
            make_service(behavior=DegradingBehavior(drop=0.5, onset=0))
        )
        ad = provider.advertisement_for("s0", time=100.0)
        # Advertises intent (0.7 + 0.1), not the degraded truth.
        assert ad.claimed["a"] == pytest.approx(0.8)

    def test_quality_tendency_validated(self):
        with pytest.raises(ConfigurationError):
            Provider("p0", quality_tendency=1.5)

    def test_remove_service(self):
        provider = Provider("p0")
        provider.add_service(make_service())
        provider.remove_service("s0")
        assert provider.services == []


def skewed_service(service_id, a, b, offset=0.0, behavior=None):
    return Service(
        description=ServiceDescription(
            service=service_id, provider="p0", category="cat"
        ),
        profile=QoSProfile(
            quality={"a": a, "b": b},
            noise=0.0,
            segment_offsets={"b": {1: offset}},
        ),
        behavior=behavior or StaticBehavior(),
    )


class TestTruthTable:
    SERVICES = [
        skewed_service("s0", 0.9, 0.2),
        skewed_service("s1", 0.3, 0.8, offset=-0.5),
        skewed_service("s2", 0.6, 0.6, behavior=DegradingBehavior(0.3, 50.0)),
    ]

    @pytest.mark.parametrize("time", [0.0, 60.0])
    @pytest.mark.parametrize(
        "weights, segment",
        [
            ({"a": 1.0}, 0),
            ({"b": 1.0}, 0),
            ({"b": 1.0}, 1),
            ({"a": 0.5, "b": 0.5}, None),
        ],
    )
    def test_rows_are_true_overall_per_taste(self, time, weights, segment):
        table = TruthTable(self.SERVICES)
        # fill other tastes first: a row must never answer for another
        for w, seg in [({"a": 1.0}, 0), ({"b": 1.0}, 1)]:
            table.row(time, w, seg)
        best, quals = table.row(time, weights, segment)
        assert quals == [
            s.true_overall(time, weights, segment) for s in self.SERVICES
        ]
        ids = [s.service_id for s in self.SERVICES]
        truth = dict(zip(ids, quals))
        assert ids[best] == max(ids, key=lambda sid: (truth[sid], sid))

    def test_time_change_drops_rows(self):
        table = TruthTable(self.SERVICES)
        before = table.row(0.0, {"a": 1.0}, 0)
        after = table.row(60.0, {"a": 1.0}, 0)
        assert before[1][2] != after[1][2]  # s2 degraded at t=50

    def test_ties_break_on_larger_id(self):
        twins = [make_service("s0"), make_service("s1")]
        best, _ = TruthTable(twins).row(0.0, {"a": 1.0}, 0)
        assert best == 1
