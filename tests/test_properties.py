"""Cross-model property-based tests.

Invariants every reputation mechanism in the registry must satisfy,
checked with hypothesis-generated feedback streams:

* scores stay on [0, 1] for any input;
* scoring is read-only (two consecutive queries agree);
* rank() is consistent with score();
* models are deterministic given the same feedback sequence;
* unanimous strong evidence orders a clearly-good target above a
  clearly-bad one.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.records import Feedback
from repro.core.registry import default_registry

REGISTRY = default_registry(rng_seed=0)
#: Models whose scoring involves a seeded-but-stateful substrate
#: (referral network adaptation mutates weights on query).
QUERY_MUTATING = {"yolum_singh"}

MODEL_NAMES = REGISTRY.names()


@st.composite
def feedback_streams(draw) -> List[Feedback]:
    n = draw(st.integers(0, 30))
    raters = [f"r{i}" for i in range(6)]
    targets = ["svc-a", "svc-b", "svc-c"]
    stream = []
    for i in range(n):
        stream.append(
            Feedback(
                rater=draw(st.sampled_from(raters)),
                target=draw(st.sampled_from(targets)),
                time=float(i),
                rating=draw(
                    st.floats(0.0, 1.0, allow_nan=False)
                ),
            )
        )
    return stream


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=feedback_streams())
def test_property_scores_bounded(name, stream):
    model = REGISTRY.create(name)
    model.record_many(stream)
    for target in ["svc-a", "svc-b", "svc-c", "never-seen"]:
        score = model.score(target, perspective="r0")
        assert 0.0 - 1e-9 <= score <= 1.0 + 1e-9


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=feedback_streams())
def test_property_scoring_is_repeatable(name, stream):
    if name in QUERY_MUTATING:
        pytest.skip("query-time adaptation is part of this model's design")
    model = REGISTRY.create(name)
    model.record_many(stream)
    first = model.score("svc-a", perspective="r0")
    second = model.score("svc-a", perspective="r0")
    assert first == pytest.approx(second)


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(stream=feedback_streams())
def test_property_rank_consistent_with_score(name, stream):
    if name in QUERY_MUTATING:
        pytest.skip("query-time adaptation reorders between calls")
    if name == "liu_ngu_zeng":
        pytest.skip("rank() is candidate-set-relative by design")
    model = REGISTRY.create(name)
    model.record_many(stream)
    candidates = ["svc-a", "svc-b", "svc-c"]
    ranking = model.rank(candidates, perspective="r0")
    scores = [score for _, score in ranking]
    assert scores == sorted(scores, reverse=True)
    for target, score in ranking:
        assert score == pytest.approx(
            model.score(target, perspective="r0"), abs=1e-6
        )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_property_deterministic_across_instances(name):
    stream = [
        Feedback(rater=f"r{i % 4}", target=["svc-a", "svc-b"][i % 2],
                 time=float(i), rating=(i % 10) / 10.0)
        for i in range(25)
    ]
    a = REGISTRY.create(name)
    b = REGISTRY.create(name)
    a.record_many(stream)
    b.record_many(stream)
    assert a.score("svc-a", perspective="r0") == pytest.approx(
        b.score("svc-a", perspective="r0")
    )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_property_unanimous_evidence_orders_targets(name):
    model = REGISTRY.create(name)
    stream = []
    t = 0.0
    for i in range(8):
        for rater in ["r0", "r1", "r2", "r3"]:
            stream.append(Feedback(rater=rater, target="svc-good",
                                   time=t, rating=0.95))
            t += 1.0
            stream.append(Feedback(rater=rater, target="svc-bad",
                                   time=t, rating=0.05))
            t += 1.0
    model.record_many(stream)
    good = model.score("svc-good", perspective="r0")
    bad = model.score("svc-bad", perspective="r0")
    assert good > bad, f"{name}: {good} <= {bad}"


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_property_empty_model_is_safe(name):
    model = REGISTRY.create(name)
    score = model.score("anything")
    assert 0.0 <= score <= 1.0
    assert model.rank([]) == []
    assert model.best([]) is None


# ---------------------------------------------------------------------------
# Fault-injection and resilience invariants
# ---------------------------------------------------------------------------

from repro.common.errors import RegistryError
from repro.common.randomness import SeedSequenceFactory
from repro.faults.degradation import discounted_score
from repro.faults.plan import ChurnSchedule, MessageFaultInjector
from repro.faults.resilience import BreakerState, CircuitBreaker, RetryPolicy


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    n_nodes=st.integers(1, 12),
    horizon=st.floats(1.0, 200.0, allow_nan=False),
)
def test_property_churn_schedule_is_seed_deterministic(seed, n_nodes, horizon):
    nodes = [f"n{i}" for i in range(n_nodes)]
    a = ChurnSchedule.generate(
        nodes, horizon, rng=SeedSequenceFactory(seed).rng("churn")
    )
    b = ChurnSchedule.generate(
        list(reversed(nodes)), horizon,
        rng=SeedSequenceFactory(seed).rng("churn"),
    )
    assert a == b
    for node in a.nodes():
        windows = a.windows_for(node)
        for w in windows:
            assert 0.0 <= w.start < horizon
            assert w.end >= w.start
        # windows are chronological and non-overlapping
        for earlier, later in zip(windows, windows[1:]):
            assert earlier.end <= later.start


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    drop=st.floats(0.0, 1.0, allow_nan=False),
    dup=st.floats(0.0, 1.0, allow_nan=False),
    delay=st.floats(0.0, 1.0, allow_nan=False),
)
def test_property_fault_injector_replays_identically(seed, drop, dup, delay):
    def injector():
        return MessageFaultInjector(
            drop_rate=drop, duplicate_rate=dup, delay_rate=delay,
            rng=SeedSequenceFactory(seed).rng("msg"),
        )

    a, b = injector(), injector()
    decisions_a = [a.perturb("m") for _ in range(60)]
    decisions_b = [b.perturb("m") for _ in range(60)]
    assert decisions_a == decisions_b
    assert a.dropped == b.dropped
    for decision in decisions_a:
        assert decision.extra_delay >= 0.0
        assert decision.duplicates >= 0
        if decision.drop:  # dropped messages carry no other perturbation
            assert decision.extra_delay == 0.0
            assert decision.duplicates == 0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2 ** 16),
    attempts=st.integers(1, 6),
    failures_before_success=st.integers(0, 8),
)
def test_property_retry_never_exceeds_budget(
    seed, attempts, failures_before_success
):
    policy = RetryPolicy(
        max_attempts=attempts, rng=SeedSequenceFactory(seed).rng("r")
    )
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] <= failures_before_success:
            raise RegistryError("transient")
        return "ok"

    outcome = policy.call(flaky, retry_on=(RegistryError,))
    assert calls["n"] == outcome.attempts <= attempts
    assert outcome.backoff_delay >= 0.0
    assert outcome.succeeded == (failures_before_success < attempts)


@settings(max_examples=25, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), min_size=0, max_size=60),
    threshold=st.floats(0.1, 1.0, allow_nan=False),
)
def test_property_breaker_state_machine_is_sound(outcomes, threshold):
    breaker = CircuitBreaker(
        failure_rate_threshold=threshold, window=8, min_calls=3,
        recovery_timeout=2.0,
    )
    now = 0.0
    for ok in outcomes:
        if breaker.allow(now):
            if ok:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
        now += 1.0
    # 1. transitions chain: each starts where the previous ended
    previous = BreakerState.CLOSED
    for _, frm, to in breaker.transitions:
        assert frm is previous
        assert frm is not to
        previous = to
    assert previous is breaker.state
    # 2. the machine only ever takes legal edges
    legal = {
        (BreakerState.CLOSED, BreakerState.OPEN),
        (BreakerState.OPEN, BreakerState.HALF_OPEN),
        (BreakerState.HALF_OPEN, BreakerState.OPEN),
        (BreakerState.HALF_OPEN, BreakerState.CLOSED),
    }
    for _, frm, to in breaker.transitions:
        assert (frm, to) in legal
    assert 0.0 <= breaker.failure_rate <= 1.0


@settings(max_examples=50, deadline=None)
@given(
    score=st.floats(0.0, 1.0, allow_nan=False),
    confidence=st.floats(0.0, 1.0, allow_nan=False),
)
def test_property_discounting_contracts_toward_prior(score, confidence):
    discounted = discounted_score(score, confidence)
    assert 0.0 <= discounted <= 1.0
    assert abs(discounted - 0.5) <= abs(score - 0.5) + 1e-12
    if score >= 0.5:
        assert discounted >= 0.5 - 1e-12  # never crosses the prior
    else:
        assert discounted <= 0.5 + 1e-12
