"""Memory-based collaborative filtering (Breese, Heckerman & Kadie).

Centralized / resource / personalized — the recommender-technology
branch of Figure 4, also covering the two CF-for-web-services systems
the survey cites: Manikrao & Prabhakar's recommendation-based dynamic
selection and Karta's investigation (whose headline question — Pearson
correlation vs. Vector Similarity — is the :class:`Similarity` switch).

Prediction for user *u* on item *i* (Breese et al., eq. 1):

.. math::

    \\hat r_{u,i} = \\bar r_u + \\kappa \\sum_v w(u, v) (r_{v,i} - \\bar r_v)

with weights from Pearson correlation over co-rated items or cosine
(vector) similarity, optional *significance weighting* (devaluing
similarities computed from few co-rated items), and a neighbourhood
size cap.
"""

from __future__ import annotations

import enum
import operator
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import (
    clamp,
    cosine_similarity,
    pearson_correlation,
    safe_mean,
)
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel

_USER = operator.itemgetter(0)
_SIM = operator.itemgetter(1)


class Similarity(enum.Enum):
    """Karta's comparison: which user-user similarity to use."""

    PEARSON = "pearson"
    COSINE = "cosine"


class CollaborativeFilteringModel(ReputationModel):
    """User-based CF over the feedback matrix.

    Args:
        similarity: Pearson correlation or vector (cosine) similarity.
        neighbourhood: max neighbours contributing to a prediction.
        significance_threshold: co-rating count below which similarity
            is linearly devalued (Herlocker's n/50 rule); 0 disables.
        min_overlap: minimum co-rated items for a similarity at all.
        default_vote: Breese et al.'s *default voting* extension — when
            set, similarities are computed over the union of the two
            users' rated items, substituting this value for the missing
            ratings.  Helps sparse matrices where true overlaps are
            rare; None (default) uses plain co-rated intersection.
    """

    name = "collaborative_filtering"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[3, 13, 17]"

    def __init__(
        self,
        similarity: Similarity = Similarity.PEARSON,
        neighbourhood: int = 20,
        significance_threshold: int = 5,
        min_overlap: int = 2,
        default_vote: Optional[float] = None,
    ) -> None:
        if neighbourhood < 1:
            raise ConfigurationError("neighbourhood must be >= 1")
        if min_overlap < 1:
            raise ConfigurationError("min_overlap must be >= 1")
        if significance_threshold < 0:
            raise ConfigurationError("significance_threshold must be >= 0")
        if default_vote is not None and not 0.0 <= default_vote <= 1.0:
            raise ConfigurationError("default_vote must be in [0, 1]")
        self.similarity = similarity
        self.neighbourhood = neighbourhood
        self.significance_threshold = significance_threshold
        self.min_overlap = min_overlap
        self.default_vote = default_vote
        #: user -> item -> (time, rating); latest rating wins
        self._ratings: Dict[EntityId, Dict[EntityId, Tuple[float, float]]] = {}
        #: item -> the users who rated it (an index; order is not used)
        self._raters: Dict[EntityId, Dict[EntityId, None]] = {}
        #: item -> its batch mean, dropped when a rating of it changes
        self._means: Dict[EntityId, float] = {}

    # -- data ------------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        row = self._ratings.setdefault(feedback.rater, {})
        existing = row.get(feedback.target)
        if existing is None or feedback.time >= existing[0]:
            row[feedback.target] = (feedback.time, feedback.rating)
            self._raters.setdefault(feedback.target, {})[feedback.rater] = None
            self._means.pop(feedback.target, None)

    def rating(self, user: EntityId, item: EntityId) -> Optional[float]:
        entry = self._ratings.get(user, {}).get(item)
        return entry[1] if entry else None

    def user_mean(self, user: EntityId) -> float:
        row = self._ratings.get(user, {})
        return safe_mean((r for _, r in row.values()), default=0.5)

    def item_mean(self, item: EntityId) -> float:
        ratings = [
            entry[1]
            for row in self._ratings.values()
            for tgt, entry in row.items()
            if tgt == item
        ]
        return safe_mean(ratings, default=0.5)

    # -- similarity --------------------------------------------------------
    def user_similarity(
        self, user_a: EntityId, user_b: EntityId
    ) -> Optional[float]:
        """Similarity of two users over co-rated items (None if < overlap).

        With ``default_vote`` set, the item set is the union of both
        users' rated items and missing ratings take the default value.
        """
        row_a = self._ratings.get(user_a, {})
        return self._similarity(row_a, set(row_a), user_b)

    def _similarity(
        self,
        row_a: Dict[EntityId, Tuple[float, float]],
        keys_a: Set[EntityId],
        user_b: EntityId,
    ) -> Optional[float]:
        """:meth:`user_similarity` with the first user's row and its key
        set given, so a batch builds them once."""
        row_b = self._ratings.get(user_b, {})
        common = sorted(keys_a & row_b.keys())
        if len(common) < self.min_overlap:
            return None
        if self.default_vote is not None:
            items = sorted(keys_a | row_b.keys())
            d = self.default_vote
            xs = [row_a[i][1] if i in row_a else d for i in items]
            ys = [row_b[i][1] if i in row_b else d for i in items]
        else:
            xs = [row_a[i][1] for i in common]
            ys = [row_b[i][1] for i in common]
        if self.similarity is Similarity.PEARSON:
            sim = pearson_correlation(xs, ys)
        else:
            sim = cosine_similarity(xs, ys)
        if sim is None:
            return None
        if self.significance_threshold > 0:
            sim *= min(1.0, len(common) / self.significance_threshold)
        return sim

    def _neighbours(
        self, user: EntityId, item: EntityId
    ) -> List[Tuple[EntityId, float]]:
        """(neighbour, similarity) pairs who rated *item*, best first."""
        candidates: List[Tuple[EntityId, float]] = []
        for other, row in self._ratings.items():
            if other == user or item not in row:
                continue
            sim = self.user_similarity(user, other)
            if sim is None or sim <= 0:
                continue
            candidates.append((other, sim))
        candidates.sort(key=lambda pair: (-pair[1], pair[0]))
        return candidates[: self.neighbourhood]

    # -- prediction ----------------------------------------------------------
    def predict(self, user: EntityId, item: EntityId) -> float:
        """Predicted rating of *item* for *user* on ``[0, 1]``.

        Falls back to the item mean (then 0.5) when the user is unknown
        or no positively-similar neighbour rated the item.
        """
        own = self.rating(user, item)
        if own is not None:
            return own
        if user not in self._ratings:
            return self.item_mean(item)
        neighbours = self._neighbours(user, item)
        if not neighbours:
            return self.item_mean(item)
        base = self.user_mean(user)
        numerator = 0.0
        denominator = 0.0
        for other, sim in neighbours:
            deviation = self._ratings[other][item][1] - self.user_mean(other)
            numerator += sim * deviation
            denominator += abs(sim)
        if denominator <= 0:
            return self.item_mean(item)
        return clamp(base + numerator / denominator, 0.0, 1.0)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        if perspective is None:
            return self.item_mean(target)
        return self.predict(perspective, target)

    # -- batch prediction --------------------------------------------------
    def _item_means(self, items: Sequence[EntityId]) -> Dict[EntityId, float]:
        """Means for several items, each summed over the users in order.
        A mean is kept until a rating of its item changes."""
        means: Dict[EntityId, float] = {}
        for item in items:
            kept = self._means.get(item)
            if kept is None:
                total = 0.0
                count = 0
                for row in self._ratings.values():
                    entry = row.get(item)
                    if entry is not None:
                        total = total + entry[1]
                        count += 1
                kept = total / count if count else 0.5
                self._means[item] = kept
            means[item] = kept
        return means

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch predictions with shared similarity/mean caches.

        User-user similarity is item-independent, so one cache entry per
        neighbour serves the whole candidate set — the per-candidate
        loop recomputes every similarity for every item, which is the
        dominant cost of memory-based CF.
        """
        if not targets:
            return []
        item_means = self._item_means(targets)
        if perspective is None or perspective not in self._ratings:
            # No perspective, or an unknown user: item-mean fallback.
            return [item_means[t] for t in targets]
        user = perspective
        row_user = self._ratings[user]
        keys_user = set(row_user)
        sim_cache: Dict[EntityId, Optional[float]] = {}
        mean_cache: Dict[EntityId, float] = {}

        def mean_of(member: EntityId) -> float:
            cached = mean_cache.get(member)
            if cached is None:
                cached = self.user_mean(member)
                mean_cache[member] = cached
            return cached

        def similarity_to(other: EntityId) -> Optional[float]:
            if other in sim_cache:
                return sim_cache[other]
            sim = self._similarity(row_user, keys_user, other)
            sim_cache[other] = sim
            return sim

        results: List[float] = []
        for item in targets:
            own = row_user.get(item)
            if own is not None:
                results.append(own[1])
                continue
            # The raters of item, not every user: the sort below is by
            # (-sim, id), so the order they come in does not matter.
            candidates: List[Tuple[EntityId, float]] = []
            for other in self._raters.get(item, ()):
                if other == user:
                    continue
                sim = similarity_to(other)
                if sim is None or sim <= 0:
                    continue
                candidates.append((other, sim))
            # Two stable sorts, by id and then by similarity descending:
            # the order of sorting by (-sim, id), with no key tuple.
            candidates.sort(key=_USER)
            candidates.sort(key=_SIM, reverse=True)
            neighbours = candidates[: self.neighbourhood]
            if not neighbours:
                results.append(item_means[item])
                continue
            base = mean_of(user)
            numerator = 0.0
            denominator = 0.0
            for other, sim in neighbours:
                deviation = self._ratings[other][item][1] - mean_of(other)
                numerator += sim * deviation
                denominator += abs(sim)
            if denominator <= 0:
                results.append(item_means[item])
            else:
                results.append(clamp(base + numerator / denominator, 0.0, 1.0))
        return results
