"""Exactness of the batched observation path against the scalar oracle.

``QoSProfile.sample`` and ``Consumer.rate`` draw each invocation's noise
in one vector call and inline the per-metric arithmetic.  The contract
(DESIGN.md, "Batched QoS draws") is that outputs *and* the generator
state afterwards are bit-identical to the one-draw-per-metric loop kept
in :mod:`tests.test_services.scalar_oracle`: comparisons here are
``==``, never approximate.  The 23-metric W3C taxonomy matters: below
eight terms numpy's pairwise sum happens to add left to right, so only
the long vectors catch a sum routed through numpy.
"""

from typing import Dict, List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.records import Interaction
from repro.faults.plan import FaultPlan, OutageWindow
from repro.faults.resilience import Timeout
from repro.robustness.attacks import (
    badmouth_strategy,
    ballot_stuffing_strategy,
    collusion_strategy,
    complementary_liar_strategy,
    random_liar_strategy,
)
from repro.services.consumer import (
    Consumer,
    PreferenceProfile,
    honest_rating_strategy,
    quality_scores,
    rate_many,
)
from repro.services.description import ServiceDescription
from repro.services.invocation import InvocationEngine
from repro.services.provider import Service
from repro.services.qos import (
    QoSProfile,
    QoSTaxonomy,
    default_metrics,
    random_profile,
    sample_many,
    w3c_taxonomy,
)
from tests.test_services import scalar_oracle

TAXONOMIES = {"default": default_metrics(), "w3c": w3c_taxonomy()}

seeds = st.integers(0, 2**32 - 1)
segments = st.none() | st.integers(0, 3)
noises = st.sampled_from([0.0, 0.05, 0.3]) | st.floats(0.0, 1.0)
taxonomies = st.sampled_from(sorted(TAXONOMIES)).map(TAXONOMIES.__getitem__)


@st.composite
def profiles(draw, taxonomy: QoSTaxonomy) -> QoSProfile:
    base = random_profile(
        taxonomy,
        rng=draw(seeds),
        noise=draw(noises),
        n_segments=draw(st.integers(0, 3)),
        segment_spread=0.5,
    )
    return QoSProfile(
        quality=base.quality,
        noise=base.noise,
        segment_offsets=base.segment_offsets,
        success_rate=draw(st.floats(0.0, 1.0)),
    )


def weight_maps(taxonomy: QoSTaxonomy):
    return st.dictionaries(
        st.sampled_from(taxonomy.names()), st.floats(0.0, 5.0)
    )


def _rng_state(gen: np.random.Generator):
    return gen.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(data=st.data(), taxonomy=taxonomies, seed=seeds, segment=segments)
def test_sample_equals_scalar_draws(data, taxonomy, seed, segment):
    profile = data.draw(profiles(taxonomy))
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    got = profile.sample(taxonomy, batched, segment=segment)
    want = scalar_oracle.sample(profile, taxonomy, scalar, segment=segment)
    assert list(got.items()) == list(want.items())
    assert _rng_state(batched) == _rng_state(scalar)
    assert batched.random() == scalar.random()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), taxonomy=taxonomies, segment=segments)
def test_overall_equals_scalar_sum(data, taxonomy, segment):
    profile = data.draw(profiles(taxonomy))
    weights = data.draw(st.none() | weight_maps(taxonomy))
    # twice: the second call reads the cached truth vector
    for _ in range(2):
        got = profile.overall(weights, segment)
        assert got == scalar_oracle.overall(profile, weights, segment)


@settings(max_examples=200, deadline=None)
@given(
    taxonomy=taxonomies,
    observations=st.dictionaries(
        st.sampled_from(w3c_taxonomy().names() + ["unknown_metric"]),
        st.floats(-50.0, 1500.0),
    ),
)
def test_quality_scores_equal_scalar_normalize(taxonomy, observations):
    interaction = Interaction(
        consumer="c0", service="s0", provider="p0", time=0.0,
        success=True, observations=observations,
    )
    got = quality_scores(interaction, taxonomy)
    want = scalar_oracle.quality_scores(interaction, taxonomy)
    assert list(got.items()) == list(want.items())


#: rating strategies, built fresh per run (random_liar owns a generator)
STRATEGIES = {
    "honest": lambda: honest_rating_strategy,
    "badmouth": lambda: badmouth_strategy(["s0"], low=0.1),
    "ballot_stuffing": lambda: ballot_stuffing_strategy(["s0"], high=0.9),
    "collusion": lambda: collusion_strategy(["other"]),
    "complementary": complementary_liar_strategy,
    "random_liar": lambda: random_liar_strategy(0.5, rng=7),
}


def _pipeline(
    taxonomy: QoSTaxonomy,
    profile: QoSProfile,
    weights: Dict[str, float],
    strategy: str,
    rating_noise: float,
    seed: int,
    slowdown: float,
    budget: Optional[float],
    times: List[float],
):
    """invoke -> rate over *times*; outcomes plus both generators' states."""
    service = Service(
        description=ServiceDescription(
            service="s0", provider="p0", category="cat"
        ),
        profile=profile,
    )
    engine = InvocationEngine(
        taxonomy,
        rng=seed,
        fault_plan=FaultPlan(
            slow_services={"s0": [OutageWindow(0.0, 5.0)]},
            slowdown_factor=slowdown,
        ),
        timeout=None if budget is None else Timeout(budget),
    )
    consumer = Consumer(
        "c0",
        preferences=PreferenceProfile(weights, segment=1),
        rating_strategy=STRATEGIES[strategy](),
        rating_noise=rating_noise,
        rng=seed + 1,
    )
    feedback = [
        consumer.rate(engine.invoke(consumer, service, t), taxonomy)
        for t in times
    ]
    return (
        feedback,
        engine.timeout_count,
        _rng_state(engine._rng),
        _rng_state(consumer._rng),
    )


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    taxonomy=taxonomies,
    strategy=st.sampled_from(sorted(STRATEGIES)),
    rating_noise=noises,
    seed=st.integers(0, 2**31),
    slowdown=st.floats(1.0, 20.0),
    budget=st.none() | st.floats(0.05, 3.0),
    times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6),
)
def test_invoke_and_rate_equal_scalar_path(
    data, taxonomy, strategy, rating_noise, seed, slowdown, budget, times
):
    profile = data.draw(profiles(taxonomy))
    weights = data.draw(weight_maps(taxonomy))
    args = (taxonomy, profile, weights, strategy, rating_noise, seed,
            slowdown, budget, times)
    got = _pipeline(*args)
    with scalar_oracle.installed():
        want = _pipeline(*args)
    assert got == want
    # dict equality ignores key order; the filed facets' order must hold too
    assert repr(got) == repr(want)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    taxonomy=taxonomies,
    seed=seeds,
    segment=st.integers(0, 3),
    rating_noise=noises,
)
def test_vector_rows_equal_sample_and_rate(
    data, taxonomy, seed, segment, rating_noise
):
    """``sample_many`` / ``rate_many`` (the shard runtime's vector
    rounds) equal ``QoSProfile.sample`` / ``Consumer.rate`` fed the same
    standard normals, bit for bit, successful call or failed."""
    profile = data.draw(profiles(taxonomy))
    names = taxonomy.names()
    weights = {m: data.draw(st.floats(0.0, 5.0)) for m in names}
    m = len(names)
    qos_z = np.random.default_rng(seed).standard_normal(m)
    rating_z = np.random.default_rng(seed + 1).standard_normal(m)
    observed = profile.sample(
        taxonomy, np.random.default_rng(seed), segment=segment
    )
    row = sample_many(
        np.array([profile._truth_vector(segment)]),
        np.array([profile.noise]),
        qos_z[None, :],
        taxonomy,
    )
    assert row[0].tolist() == list(observed.values())
    consumer = Consumer(
        "c0",
        preferences=PreferenceProfile(weights, segment=segment),
        rating_noise=rating_noise,
        rng=seed + 1,
    )
    # a failed call draws nothing, so the successful one that follows
    # reads the first normals of the consumer's stream
    for success in (False, True):
        interaction = Interaction(
            consumer="c0", service="s0", provider="p0", time=0.0,
            success=success, observations=observed if success else {},
        )
        want = consumer.rate(interaction, taxonomy).rating
        got = rate_many(
            row,
            np.array([success]),
            rating_z[None, :],
            np.array([rating_noise]),
            np.array([consumer.preferences.weight_vector(names)]),
            taxonomy,
        )
        assert got.tolist() == [want]
