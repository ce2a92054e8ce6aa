"""Tests for workload generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.randomness import SeedSequenceFactory
from repro.common.records import Interaction
from repro.experiments.workloads import (
    make_consumers,
    make_shard_consumers,
    make_shard_world,
    make_world,
    shard_consumer_id,
)
from repro.services.provider import OscillatingBehavior
from repro.services.qos import DEFAULT_METRICS


class TestMakeWorld:
    def test_deterministic(self):
        a = make_world(seed=3)
        b = make_world(seed=3)
        assert a.true_quality == b.true_quality
        assert [c.consumer_id for c in a.consumers] == [
            c.consumer_id for c in b.consumers
        ]

    def test_different_seeds_differ(self):
        assert make_world(seed=1).true_quality != make_world(seed=2).true_quality

    def test_population_sizes(self):
        world = make_world(n_providers=3, services_per_provider=2,
                           n_consumers=7, seed=0)
        assert len(world.providers) == 3
        assert len(world.services) == 6
        assert len(world.consumers) == 7

    def test_quality_spread_orders_providers(self):
        world = make_world(n_providers=5, services_per_provider=1,
                           quality_spread=0.3, seed=0)
        tendencies = [p.quality_tendency for p in world.providers]
        assert tendencies == sorted(tendencies)
        assert max(tendencies) - min(tendencies) > 0.4

    def test_exaggerations_cycle(self):
        world = make_world(n_providers=4, exaggerations=[0.0, 0.3], seed=0)
        inflations = [p.exaggeration.inflation for p in world.providers]
        assert inflations == [0.0, 0.3, 0.0, 0.3]

    def test_behaviors_applied_by_index(self):
        behavior = OscillatingBehavior()
        world = make_world(n_providers=2, services_per_provider=1,
                           behaviors={1: behavior}, seed=0)
        assert world.services[1].behavior is behavior
        assert world.services[0].behavior is not behavior

    def test_best_service_matches_truth(self):
        world = make_world(seed=4)
        best = world.best_service()
        assert world.true_quality[best] == max(world.true_quality.values())

    def test_service_lookup(self):
        world = make_world(seed=4)
        svc = world.services[0]
        assert world.service(svc.service_id) is svc
        with pytest.raises(KeyError):
            world.service("nope")


class TestMakeConsumers:
    def test_segments_round_robin(self):
        seeds = SeedSequenceFactory(0)
        consumers = make_consumers(6, DEFAULT_METRICS, seeds, n_segments=3)
        assert [c.segment for c in consumers] == [0, 1, 2, 0, 1, 2]

    def test_homogeneous_preferences(self):
        seeds = SeedSequenceFactory(0)
        consumers = make_consumers(4, DEFAULT_METRICS, seeds,
                                   preference_heterogeneity=0.0)
        weights = [tuple(sorted(c.preferences.weights.items()))
                   for c in consumers]
        assert len(set(weights)) == 1

    def test_heterogeneous_preferences(self):
        seeds = SeedSequenceFactory(0)
        consumers = make_consumers(4, DEFAULT_METRICS, seeds,
                                   preference_heterogeneity=1.0)
        weights = [tuple(sorted(c.preferences.weights.items()))
                   for c in consumers]
        assert len(set(weights)) == 4


def _rated(consumer, taxonomy):
    """One scalar ``rate`` of a fixed interaction: a draw of its stream."""
    interaction = Interaction(
        consumer=consumer.consumer_id,
        service="svc",
        provider="provider",
        time=1.0,
        success=True,
        observations={
            m: taxonomy.get(m).denormalize(0.6) for m in taxonomy.names()
        },
    )
    return consumer.rate(interaction, taxonomy).facet_ratings


class TestShardWorlds:
    def test_subset_build_is_partition_invariant(self):
        full = make_shard_world(
            n_consumers=10, seed=3, preference_heterogeneity=0.5,
            n_segments=2,
        )
        subset = make_shard_world(
            n_consumers=10, seed=3, preference_heterogeneity=0.5,
            n_segments=2, consumer_indices=[2, 5, 9],
        )
        by_id = {c.consumer_id: c for c in full.consumers}
        assert [c.consumer_id for c in subset.consumers] == [
            shard_consumer_id(i) for i in (2, 5, 9)
        ]
        for consumer in subset.consumers:
            twin = by_id[consumer.consumer_id]
            assert consumer.preferences.weights == twin.preferences.weights
            assert consumer.segment == twin.segment
            # private rating streams too: identical noisy ratings
            assert _rated(consumer, subset.taxonomy) == _rated(
                twin, full.taxonomy
            )

    @settings(max_examples=25, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 24),
        heterogeneity=st.sampled_from([0.0, 0.3, 1.0]),
        segments=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_any_subset_builds_the_full_worlds_consumers(
        self, data, n, heterogeneity, segments, seed
    ):
        params = dict(
            n_consumers=n, seed=seed, n_segments=segments,
            preference_heterogeneity=heterogeneity,
        )
        indices = data.draw(
            st.lists(st.integers(0, n - 1), unique=True, max_size=n)
        )
        full = make_shard_world(**params)
        subset = make_shard_world(consumer_indices=indices, **params)
        assert len(subset.consumers) == len(indices)
        for i, consumer in zip(indices, subset.consumers):
            twin = full.consumers[i]
            assert consumer.consumer_id == twin.consumer_id
            assert consumer.preferences == twin.preferences
            assert _rated(consumer, subset.taxonomy) == _rated(
                twin, full.taxonomy
            )

    def test_no_generator_until_rate(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        make_shard_world(n_consumers=40, seed=5, consumer_indices=[])
        catalog_only = len(made)
        world = make_shard_world(
            n_consumers=40, seed=5, preference_heterogeneity=0.4
        )
        assert len(made) == 2 * catalog_only
        _rated(world.consumers[7], world.taxonomy)
        assert len(made) == 2 * catalog_only + 1

    def test_homogeneous_consumers_share_one_profile_per_segment(self):
        world = make_shard_world(n_consumers=30, seed=2, n_segments=3)
        profiles = {id(c.preferences): c.preferences for c in world.consumers}
        assert sorted(p.segment for p in profiles.values()) == [0, 1, 2]

    def test_catalog_identical_across_subsets(self):
        a = make_shard_world(n_consumers=6, seed=11, consumer_indices=[0])
        b = make_shard_world(n_consumers=6, seed=11, consumer_indices=[3, 4])
        assert [s.service_id for s in a.services] == [
            s.service_id for s in b.services
        ]
        assert a.true_quality == b.true_quality

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="consumer_indices"):
            make_shard_consumers(
                3, DEFAULT_METRICS, SeedSequenceFactory(0), indices=[3]
            )
