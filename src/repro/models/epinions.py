"""Epinions web-of-trust — centralized / resource / personalized.

Epinions lets each member maintain a *trust list* (reviewers whose
opinions they value) and a *block list* (reviewers to ignore).  A
product's rating shown to member *p* weights each review by the
reviewer's standing in *p*'s web of trust:

* directly trusted reviewer: full weight,
* trusted at distance *d* through the trust graph: weight
  ``trust_decay ** d``,
* blocked reviewer (at any distance): zero weight,
* stranger: a small residual weight, so lurkers still see scores.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Set

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel


class EpinionsModel(ReputationModel):
    """Review aggregation weighted by a personal web of trust.

    Args:
        trust_decay: per-hop attenuation of transitive trust.
        stranger_weight: weight of reviews from members outside the
            perspective's web of trust.
        max_depth: trust-graph traversal bound.
    """

    name = "epinions"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[8]"

    def __init__(
        self,
        trust_decay: float = 0.5,
        stranger_weight: float = 0.1,
        max_depth: int = 3,
    ) -> None:
        if not 0.0 < trust_decay <= 1.0:
            raise ConfigurationError("trust_decay must be in (0, 1]")
        if not 0.0 <= stranger_weight <= 1.0:
            raise ConfigurationError("stranger_weight must be in [0, 1]")
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        self.trust_decay = trust_decay
        self.stranger_weight = stranger_weight
        self.max_depth = max_depth
        self._reviews: Dict[EntityId, List[Feedback]] = {}
        self._trusts: Dict[EntityId, Set[EntityId]] = {}
        self._blocks: Dict[EntityId, Set[EntityId]] = {}

    # -- web of trust ------------------------------------------------------
    def trust(self, member: EntityId, reviewer: EntityId) -> None:
        """Add *reviewer* to *member*'s trust list."""
        if member == reviewer:
            return
        self._trusts.setdefault(member, set()).add(reviewer)
        self._blocks.get(member, set()).discard(reviewer)

    def block(self, member: EntityId, reviewer: EntityId) -> None:
        """Add *reviewer* to *member*'s block list."""
        if member == reviewer:
            return
        self._blocks.setdefault(member, set()).add(reviewer)
        self._trusts.get(member, set()).discard(reviewer)

    def trust_distance(
        self, member: EntityId, reviewer: EntityId
    ) -> Optional[int]:
        """Hops from *member* to *reviewer* through trust lists.

        Returns None when unreachable within ``max_depth`` or blocked.
        """
        if reviewer in self._blocks.get(member, ()):
            return None
        if reviewer in self._trusts.get(member, ()):
            return 1
        visited = {member}
        queue = deque([(member, 0)])
        while queue:
            current, depth = queue.popleft()
            if depth >= self.max_depth:
                continue
            for trusted in sorted(self._trusts.get(current, ())):
                if trusted in visited:
                    continue
                if trusted in self._blocks.get(member, ()):
                    continue
                if trusted == reviewer:
                    return depth + 1
                visited.add(trusted)
                queue.append((trusted, depth + 1))
        return None

    def _weight(self, member: Optional[EntityId], reviewer: EntityId) -> float:
        if member is None or member == reviewer:
            return 1.0
        if reviewer in self._blocks.get(member, ()):
            return 0.0
        distance = self.trust_distance(member, reviewer)
        if distance is None:
            return self.stranger_weight
        return self.trust_decay ** (distance - 1)

    # -- reviews -------------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        self._reviews.setdefault(feedback.target, []).append(feedback)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return self._score(target, perspective, {})

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The :meth:`score` loop with each reviewer's weight (one trust
        graph search) computed once per call rather than once per
        review."""
        weights: Dict[EntityId, float] = {}
        return [self._score(t, perspective, weights) for t in targets]

    def _score(
        self,
        target: EntityId,
        perspective: Optional[EntityId],
        weights: Dict[EntityId, float],
    ) -> float:
        """*target*'s score, each reviewer's weight memoised in
        *weights*, which must not outlive a change to the trust or
        block lists."""
        reviews = self._reviews.get(target)
        if not reviews:
            return 0.5
        total = 0.0
        weight_sum = 0.0
        for review in reviews:
            weight = weights.get(review.rater)
            if weight is None:
                weight = self._weight(perspective, review.rater)
                weights[review.rater] = weight
            total += weight * review.rating
            weight_sum += weight
        if weight_sum <= 0:
            return 0.5
        return total / weight_sum
