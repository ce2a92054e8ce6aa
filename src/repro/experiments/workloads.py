"""Workload generators: provider/service/consumer populations.

Every experiment builds its world through :func:`make_world` so that
populations are comparable across benchmarks and fully determined by a
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId, IdFactory
from repro.common.randomness import (
    SeedSequenceFactory,
    keyed_uniforms,
    keyed_words,
)
from repro.services.consumer import Consumer, PreferenceProfile
from repro.services.description import ServiceDescription
from repro.services.provider import (
    ExaggerationPolicy,
    Provider,
    QualityBehavior,
    Service,
    StaticBehavior,
)
from repro.services.qos import (
    DEFAULT_METRICS,
    QoSProfile,
    QoSTaxonomy,
    random_profile,
)


def uniform_preferences(taxonomy: QoSTaxonomy, segment: int = 0) -> PreferenceProfile:
    """Equal weight on every metric of *taxonomy*."""
    return PreferenceProfile.uniform(taxonomy.names(), segment=segment)


@dataclass
class World:
    """One generated experiment world."""

    taxonomy: QoSTaxonomy
    providers: List[Provider]
    services: List[Service]
    consumers: List[Consumer]
    category: str
    seeds: SeedSequenceFactory
    #: ground-truth base quality per service (uniform weights, segment 0)
    true_quality: Dict[EntityId, float] = field(default_factory=dict)

    def best_service(self) -> EntityId:
        return max(self.true_quality, key=lambda s: (self.true_quality[s], s))

    def service(self, service_id: EntityId) -> Service:
        for svc in self.services:
            if svc.service_id == service_id:
                return svc
        raise KeyError(service_id)


def make_consumers(
    count: int,
    taxonomy: QoSTaxonomy,
    seeds: SeedSequenceFactory,
    n_segments: int = 1,
    preference_heterogeneity: float = 0.0,
    rating_noise: float = 0.02,
    id_prefix: str = "consumer",
) -> List[Consumer]:
    """A consumer population.

    Args:
        n_segments: taste segments, assigned round-robin.
        preference_heterogeneity: 0 gives everyone uniform weights; 1
            gives fully random per-consumer weights (mixing linearly in
            between).
    """
    rng = seeds.rng("consumers")
    metrics = taxonomy.names()
    consumers: List[Consumer] = []
    for i in range(count):
        segment = i % max(1, n_segments)
        if preference_heterogeneity <= 0:
            weights = {m: 1.0 for m in metrics}
        else:
            base = 1.0 - preference_heterogeneity
            weights = {
                m: base + preference_heterogeneity * float(rng.random())
                for m in metrics
            }
        consumers.append(
            Consumer(
                consumer_id=f"{id_prefix}-{i:04d}",
                preferences=PreferenceProfile(weights, segment=segment),
                rating_noise=rating_noise,
                rng=seeds.rng(f"consumer-{i}"),
            )
        )
    return consumers


def _make_catalog(
    n_providers: int,
    services_per_provider: int,
    seeds: SeedSequenceFactory,
    taxonomy: QoSTaxonomy,
    category: str,
    n_segments: int,
    segment_spread: float,
    exaggerations: Optional[Sequence[float]],
    behaviors: Optional[Dict[int, QualityBehavior]],
    quality_spread: float,
    noise: float,
) -> "tuple[List[Provider], List[Service], Dict[EntityId, float]]":
    """The provider/service side of a world (shared by both builders)."""
    ids = IdFactory()
    rng = seeds.rng("world")
    providers: List[Provider] = []
    services: List[Service] = []
    true_quality: Dict[EntityId, float] = {}
    behaviors = behaviors or {}
    service_index = 0
    for p in range(n_providers):
        tendency = 0.5 + quality_spread * (
            2.0 * (p / max(1, n_providers - 1)) - 1.0
        ) if n_providers > 1 else 0.5
        tendency = min(0.95, max(0.05, tendency))
        inflation = 0.0
        if exaggerations:
            inflation = exaggerations[p % len(exaggerations)]
        provider = Provider(
            provider_id=ids.next("provider"),
            exaggeration=ExaggerationPolicy(inflation=inflation),
            quality_tendency=tendency,
        )
        for _ in range(services_per_provider):
            service_id = ids.next("svc")
            profile = random_profile(
                taxonomy,
                rng=rng,
                mean_quality=tendency,
                spread=0.08,
                noise=noise,
                n_segments=n_segments if segment_spread > 0 else 0,
                segment_spread=segment_spread,
            )
            behavior = behaviors.get(service_index, StaticBehavior())
            service = Service(
                description=ServiceDescription(
                    service=service_id,
                    provider=provider.provider_id,
                    category=category,
                ),
                profile=profile,
                behavior=behavior,
            )
            provider.add_service(service)
            services.append(service)
            true_quality[service_id] = profile.overall()
            service_index += 1
        providers.append(provider)
    return providers, services, true_quality


def make_world(
    n_providers: int = 5,
    services_per_provider: int = 2,
    n_consumers: int = 20,
    seed: int = 0,
    taxonomy: Optional[QoSTaxonomy] = None,
    category: str = "weather_report",
    n_segments: int = 1,
    preference_heterogeneity: float = 0.0,
    segment_spread: float = 0.0,
    exaggerations: Optional[Sequence[float]] = None,
    behaviors: Optional[Dict[int, QualityBehavior]] = None,
    quality_spread: float = 0.25,
    noise: float = 0.05,
) -> World:
    """Generate a fully-seeded experiment world.

    Args:
        exaggerations: per-provider advertisement inflation (cycled).
        behaviors: map from service index (in creation order) to a
            quality behaviour; others stay static.
        quality_spread: how far provider quality tendencies span around
            0.5 (larger = easier discrimination task).
        segment_spread: per-segment offsets on subjective metrics
            (needed for personalization experiments).
    """
    taxonomy = taxonomy or DEFAULT_METRICS
    seeds = SeedSequenceFactory(seed)
    providers, services, true_quality = _make_catalog(
        n_providers,
        services_per_provider,
        seeds,
        taxonomy,
        category,
        n_segments,
        segment_spread,
        exaggerations,
        behaviors,
        quality_spread,
        noise,
    )
    consumers = make_consumers(
        n_consumers,
        taxonomy,
        seeds,
        n_segments=n_segments,
        preference_heterogeneity=preference_heterogeneity,
    )
    return World(
        taxonomy=taxonomy,
        providers=providers,
        services=services,
        consumers=consumers,
        category=category,
        seeds=seeds,
        true_quality=true_quality,
    )


def shard_consumer_id(index: int, id_prefix: str = "consumer") -> str:
    """Consumer id as a pure function of the global consumer index.

    Whichever shard builds consumer *i* names it alike; seven digits
    leave room for the 10^6-agent local target without changing widths.
    The sharded runner homes a consumer by a keyed Philox word of its
    index, never by this id, so placing consumers formats no ids.
    """
    return f"{id_prefix}-{index:07d}"


#: Counter purposes of a shard world's keyed draws, all under one key
#: per world (:func:`shard_draw_key`).  Per consumer and round, the
#: runtime draws the explore/choice/success uniforms and the
#: QoS-then-rating normals; per consumer, once, the builder draws the
#: preference weights and the seed of the scalar rating stream.
SELECT_DRAWS = 1
NOISE_DRAWS = 2
WEIGHT_DRAWS = 3
RATING_SEED = 4


def shard_draw_key(seeds: SeedSequenceFactory) -> int:
    """The one Philox key of a shard world's keyed draws."""
    return seeds.spawn("shard-draws")


def shard_consumer_streams(
    key: int, indices: np.ndarray, n_weights: int
) -> Tuple[np.ndarray, List[int]]:
    """The builder's keyed draws for every consumer in *indices*.

    Row ``r`` belongs to global consumer ``indices[r]``: its
    *n_weights* preference-weight uniforms (:data:`WEIGHT_DRAWS`; no
    columns when 0) and the 64-bit seed of its scalar rating stream
    (:data:`RATING_SEED`).  Both are pure functions of (world key,
    global index), so any shard builds any consumer without replaying
    anyone else's draws, and the whole shard is one vector call.
    """
    weights = (
        keyed_uniforms(key, indices, WEIGHT_DRAWS, 0, n_weights)
        if n_weights
        else np.empty((len(indices), 0))
    )
    return weights, keyed_words(key, indices, RATING_SEED, 0).tolist()


def make_shard_consumers(
    count: int,
    taxonomy: QoSTaxonomy,
    seeds: SeedSequenceFactory,
    n_segments: int = 1,
    preference_heterogeneity: float = 0.0,
    rating_noise: float = 0.02,
    id_prefix: str = "consumer",
    indices: Optional[Sequence[int]] = None,
) -> List[Consumer]:
    """A partition-independent consumer population.

    :func:`make_consumers` draws heterogeneous weights from one shared
    stream, so consumer *i*'s identity depends on consumers ``0..i-1``
    having been built first — building a shard's subset would change
    everyone's draws.  Here every consumer is built from keyed draws of
    its own global index (:func:`shard_consumer_streams`), so building
    ``indices`` (default: everyone) yields identical consumers no
    matter which subset any other process builds.  Rating streams are
    seeded, not built: a :class:`Consumer` makes its generator on its
    first scalar ``rate``.  Homogeneous consumers of one segment share
    one :class:`PreferenceProfile`.
    """
    metrics = taxonomy.names()
    selected = (
        np.arange(count, dtype=np.int64)
        if indices is None
        else np.asarray(indices, dtype=np.int64).reshape(-1)
    )
    outside = (selected < 0) | (selected >= count)
    if outside.any():
        raise ConfigurationError(
            f"consumer_indices: index {selected[outside][0]} outside "
            f"[0, {count})"
        )
    heterogeneous = preference_heterogeneity > 0
    draws, rating_seeds = shard_consumer_streams(
        shard_draw_key(seeds), selected, len(metrics) if heterogeneous else 0
    )
    base = 1.0 - preference_heterogeneity
    weight_rows = (base + preference_heterogeneity * draws).tolist()
    segments = max(1, n_segments)
    shared: Dict[int, PreferenceProfile] = {}
    consumers: List[Consumer] = []
    for i, weights, seed in zip(selected.tolist(), weight_rows, rating_seeds):
        segment = i % segments
        if heterogeneous:
            profile = PreferenceProfile(dict(zip(metrics, weights)), segment)
        elif segment in shared:
            profile = shared[segment]
        else:
            profile = shared[segment] = PreferenceProfile.uniform(
                metrics, segment
            )
        consumers.append(
            Consumer(
                consumer_id=shard_consumer_id(i, id_prefix),
                preferences=profile,
                rating_noise=rating_noise,
                rng=seed,
            )
        )
    return consumers


def make_shard_world(
    n_providers: int = 5,
    services_per_provider: int = 2,
    n_consumers: int = 20,
    seed: int = 0,
    taxonomy: Optional[QoSTaxonomy] = None,
    category: str = "weather_report",
    n_segments: int = 1,
    preference_heterogeneity: float = 0.0,
    segment_spread: float = 0.0,
    exaggerations: Optional[Sequence[float]] = None,
    behaviors: Optional[Dict[int, QualityBehavior]] = None,
    quality_spread: float = 0.25,
    noise: float = 0.05,
    consumer_indices: Optional[Sequence[int]] = None,
) -> World:
    """A :func:`make_world`-shaped world safe to build per shard.

    The provider/service catalog is identical on every shard (same
    ``seeds.rng("world")`` draws); consumers come from
    :func:`make_shard_consumers`, restricted to *consumer_indices* when
    given, so N processes each build only their own slice of one and
    the same world.
    """
    taxonomy = taxonomy or DEFAULT_METRICS
    seeds = SeedSequenceFactory(seed)
    providers, services, true_quality = _make_catalog(
        n_providers,
        services_per_provider,
        seeds,
        taxonomy,
        category,
        n_segments,
        segment_spread,
        exaggerations,
        behaviors,
        quality_spread,
        noise,
    )
    consumers = make_shard_consumers(
        n_consumers,
        taxonomy,
        seeds,
        n_segments=n_segments,
        preference_heterogeneity=preference_heterogeneity,
        indices=consumer_indices,
    )
    return World(
        taxonomy=taxonomy,
        providers=providers,
        services=services,
        consumers=consumers,
        category=category,
        seeds=seeds,
        true_quality=true_quality,
    )
