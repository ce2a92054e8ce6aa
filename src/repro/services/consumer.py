"""Consumers: preference profiles and rating behaviour.

A :class:`Consumer` invokes services and turns the objective
:class:`~repro.common.records.Interaction` into a subjective
:class:`~repro.common.records.Feedback` through its
:class:`RatingStrategy`.  Honest consumers rate what they observed,
weighted by their :class:`PreferenceProfile`; dishonest strategies (in
:mod:`repro.robustness.attacks`) plug in the same interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import normalize_weights
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback, Interaction
from repro.services.qos import QoSTaxonomy


@dataclass(frozen=True)
class PreferenceProfile:
    """How much a consumer cares about each QoS metric.

    Attributes:
        weights: non-negative importance per metric name; normalized on
            construction so they sum to one.
        segment: the consumer's taste segment — consumers in the same
            segment genuinely experience subjective facets the same way.
    """

    weights: Mapping[str, float] = field(default_factory=dict)
    segment: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", normalize_weights(dict(self.weights)))

    def weight(self, metric: str) -> float:
        return self.weights.get(metric, 0.0)

    def overall(self, facet_scores: Mapping[str, float]) -> float:
        """Preference-weighted aggregate of per-facet scores.

        Metrics missing from *facet_scores* are skipped and the
        remaining weights are renormalized; an empty intersection yields
        the plain mean of *facet_scores* (or 0 when that is empty too).
        """
        common = {m: w for m, w in self.weights.items() if m in facet_scores}
        total = sum(common.values())
        if total <= 0:
            if not facet_scores:
                return 0.0
            return sum(facet_scores.values()) / len(facet_scores)
        return sum(facet_scores[m] * w for m, w in common.items()) / total

    def weight_vector(self, metrics: Sequence[str]) -> List[float]:
        """:meth:`overall`'s weights over *metrics*, for :func:`rate_many`.

        An unweighted metric gets 0; when none of *metrics* is weighted,
        every one gets 1, which is :meth:`overall`'s plain-mean fallback.
        """
        weights = [self.weights.get(m, 0.0) for m in metrics]
        return weights if sum(weights) > 0 else [1.0] * len(metrics)

    @staticmethod
    def uniform(metrics: "list[str]", segment: int = 0) -> "PreferenceProfile":
        return PreferenceProfile({m: 1.0 for m in metrics}, segment=segment)


def quality_scores(
    interaction: Interaction, taxonomy: QoSTaxonomy
) -> Dict[str, float]:
    """Normalize an interaction's raw observations into quality space.

    :meth:`~repro.services.qos.MetricDef.normalize` inlined over the
    taxonomy's per-metric constants; metrics outside *taxonomy* are
    skipped.
    """
    scales = taxonomy.scales
    scores: Dict[str, float] = {}
    for name, raw in interaction.observations.items():
        scale = scales.get(name)
        if scale is not None:
            low, span, lower = scale
            frac = max(0.0, min(1.0, (raw - low) / span))
            scores[name] = 1.0 - frac if lower else frac
    return scores


def rate_many(
    observations: np.ndarray,
    success: np.ndarray,
    normals: np.ndarray,
    rating_noise: np.ndarray,
    weights: np.ndarray,
    taxonomy: QoSTaxonomy,
) -> np.ndarray:
    """Many honest consumers' overall ratings: :meth:`Consumer.rate` on arrays.

    Row ``i`` is one invocation: its raw ``observations`` over every
    metric of *taxonomy* in its order (as :func:`~repro.services.qos.
    sample_many` returns them), whether it ``success``-ed, one standard
    normal per metric, the consumer's ``rating_noise`` and its
    :meth:`PreferenceProfile.weight_vector`.  The arithmetic is the
    scalar path's in the same order — :func:`quality_scores`, noise,
    clamp, the weighted mean accumulated metric by metric (never a
    numpy sum), clamp — and a failed call rates 0.  A row equals
    ``rate`` of an honest consumer fed the same normals, up to the
    summation order when the consumer's weights list the metrics in
    another order than *taxonomy*.
    """
    lows, spans, lower = taxonomy.scale_columns
    frac = np.clip((observations - lows) / spans, 0.0, 1.0)
    honest = np.where(lower, 1.0 - frac, frac)
    filed = np.clip(honest + rating_noise[:, None] * normals, 0.0, 1.0)
    weighted = filed[:, 0] * weights[:, 0]
    total = weights[:, 0].copy()
    for m in range(1, filed.shape[1]):
        weighted += filed[:, m] * weights[:, m]
        total += weights[:, m]
    overall = np.clip(weighted / total, 0.0, 1.0)
    return np.where(success, overall, 0.0)


#: A rating strategy maps (consumer, interaction, honest per-facet scores)
#: to the facet ratings actually filed.  Honest consumers return them
#: unchanged; attack strategies distort them.
RatingStrategy = Callable[
    ["Consumer", Interaction, Dict[str, float]], Dict[str, float]
]


def honest_rating_strategy(
    consumer: "Consumer",
    interaction: Interaction,
    facet_scores: Dict[str, float],
) -> Dict[str, float]:
    """Report exactly what was experienced."""
    return facet_scores


class Consumer:
    """A service consumer agent.

    Args:
        consumer_id: unique id.
        preferences: the consumer's :class:`PreferenceProfile`.
        rating_strategy: how observed quality becomes filed ratings
            (honest by default; see :mod:`repro.robustness.attacks`).
        rating_noise: std-dev of subjective noise added to each honest
            facet score before the strategy sees it — even honest humans
            don't rate with perfect precision.
        rng: randomness source for the rating noise.
    """

    def __init__(
        self,
        consumer_id: EntityId,
        preferences: Optional[PreferenceProfile] = None,
        rating_strategy: RatingStrategy = honest_rating_strategy,
        rating_noise: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        if rating_noise < 0:
            raise ConfigurationError("rating_noise must be non-negative")
        self.consumer_id = consumer_id
        self.preferences = preferences or PreferenceProfile()
        self.rating_strategy = rating_strategy
        self.rating_noise = rating_noise
        self._rng = make_rng(rng)

    @property
    def segment(self) -> int:
        return self.preferences.segment

    def rate(self, interaction: Interaction, taxonomy: QoSTaxonomy) -> Feedback:
        """Turn an interaction into the feedback this consumer files.

        A failed invocation is rated 0 overall with no facet detail —
        there is nothing to differentiate when the call never returned.
        Whatever the strategy files, on either branch, is clamped to
        ``[0, 1]``.  The rating noise is one vector draw, which consumes
        the stream exactly as one scalar draw per facet would.
        """
        honest: Dict[str, float] = (
            quality_scores(interaction, taxonomy) if interaction.success else {}
        )
        if honest and self.rating_noise > 0:
            noise = self._rng.normal(0.0, self.rating_noise, len(honest))
            honest = {
                m: max(0.0, min(1.0, s + e))
                for (m, s), e in zip(honest.items(), noise.tolist())
            }
        filed = self.rating_strategy(self, interaction, dict(honest))
        filed = {m: max(0.0, min(1.0, v)) for m, v in filed.items()}
        overall = self.preferences.overall(filed)
        return Feedback(
            rater=self.consumer_id,
            target=interaction.service,
            time=interaction.time,
            rating=max(0.0, min(1.0, overall)),
            facet_ratings=filed,
            interaction=interaction,
        )

    def rate_provider(self, feedback: Feedback, provider: EntityId) -> Feedback:
        """Re-target a service feedback at the service's provider.

        Provider-level reputation (research direction 2 in the paper)
        aggregates the same experiences under the provider's id.
        """
        return Feedback(
            rater=feedback.rater,
            target=provider,
            time=feedback.time,
            rating=feedback.rating,
            facet_ratings=dict(feedback.facet_ratings),
            interaction=feedback.interaction,
        )
