"""XRep (Damiani et al.) — decentralized / resource / global.

A polling protocol for P2P networks: before using a resource, a servent
broadcasts a poll; peers respond with votes on the resource (and on the
servent offering it).  Two XRep defenses are reproduced:

* **vote clustering** — votes arriving from the same "network locality"
  (here: a rater's declared cluster key, the IP-prefix analogue) are
  collapsed toward a single effective vote, deflating ballot-stuffing
  from one locality, and
* **combined resource + servent reputation** — a resource vouched for
  by ill-reputed servents is suspect even with good resource votes.

Runs standalone on recorded feedback, or live over an
:class:`~repro.p2p.unstructured.UnstructuredOverlay` via :meth:`poll`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.p2p.unstructured import UnstructuredOverlay


class XRepModel(ReputationModel):
    """Poll-based resource reputation with vote clustering.

    Args:
        cluster_weight: effective weight of *k* same-cluster votes is
            ``1 + cluster_weight * (k - 1)`` — 0 collapses a cluster to
            one vote, 1 disables clustering.
        servent_blend: share of the final score taken from the offering
            servents' own reputation (0 scores resources alone).
        positive_threshold: rating above this counts as a positive vote.
    """

    name = "xrep"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.RESOURCE, Scope.GLOBAL
    )
    paper_ref = "[4]"

    def __init__(
        self,
        cluster_weight: float = 0.2,
        servent_blend: float = 0.3,
        positive_threshold: float = 0.5,
    ) -> None:
        if not 0.0 <= cluster_weight <= 1.0:
            raise ConfigurationError("cluster_weight must be in [0, 1]")
        if not 0.0 <= servent_blend <= 1.0:
            raise ConfigurationError("servent_blend must be in [0, 1]")
        self.cluster_weight = cluster_weight
        self.servent_blend = servent_blend
        self.positive_threshold = positive_threshold
        #: target -> list of (rater, rating)
        self._votes: Dict[EntityId, List[Tuple[EntityId, float]]] = {}
        #: rater -> declared cluster key (defaults to the rater itself)
        self._clusters: Dict[EntityId, str] = {}
        #: resource -> servents offering it
        self._offered_by: Dict[EntityId, List[EntityId]] = {}
        #: target -> (votes read, the threshold they were read at,
        #: cluster -> [votes, positive votes]); exact counts in the
        #: clusters' first-appearance order, dropped when a cluster moves
        self._tallies: Dict[
            EntityId, Tuple[int, float, Dict[str, List[int]]]
        ] = {}

    # -- wiring ------------------------------------------------------------
    def assign_cluster(self, rater: EntityId, cluster: str) -> None:
        """Declare *rater*'s network locality (IP-prefix analogue)."""
        self._clusters[rater] = cluster
        self._tallies.clear()

    def register_offer(self, resource: EntityId, servent: EntityId) -> None:
        """Record that *servent* offers *resource*."""
        offered = self._offered_by.setdefault(resource, [])
        if servent not in offered:
            offered.append(servent)

    def record(self, feedback: Feedback) -> None:
        self._votes.setdefault(feedback.target, []).append(
            (feedback.rater, feedback.rating)
        )

    # -- scoring -------------------------------------------------------------
    def _clustered_tally(
        self, target: EntityId, votes: "list[tuple[EntityId, float]]"
    ) -> Tuple[float, float]:
        """(positive_weight, negative_weight) after cluster deflation."""
        threshold = self.positive_threshold
        read, kept_at, by_cluster = self._tallies.get(
            target, (0, threshold, {})
        )
        if kept_at != threshold:
            read, by_cluster = 0, {}
        for rater, rating in votes[read:]:
            cluster = self._clusters.get(rater, rater)
            tally = by_cluster.setdefault(cluster, [0, 0])
            tally[0] += 1
            tally[1] += rating > threshold
        self._tallies[target] = (len(votes), threshold, by_cluster)
        positive = 0.0
        negative = 0.0
        for k, positives in by_cluster.values():
            weight = 1.0 + self.cluster_weight * (k - 1)
            pos_share = positives / k
            positive += weight * pos_share
            negative += weight * (1.0 - pos_share)
        return positive, negative

    def resource_reputation(self, resource: EntityId) -> float:
        votes = self._votes.get(resource, [])
        if not votes:
            return 0.5
        positive, negative = self._clustered_tally(resource, votes)
        return (positive + 1.0) / (positive + negative + 2.0)

    def servent_reputation(self, servent: EntityId) -> float:
        """A servent's standing: votes on it directly (as a target)."""
        return self.resource_reputation(servent)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        resource_rep = self.resource_reputation(target)
        servents = self._offered_by.get(target)
        if not servents or self.servent_blend <= 0:
            return resource_rep
        servent_rep = sum(
            self.servent_reputation(s) for s in servents
        ) / len(servents)
        return (
            (1.0 - self.servent_blend) * resource_rep
            + self.servent_blend * servent_rep
        )

    # -- live polling ------------------------------------------------------------
    def poll(
        self,
        overlay: UnstructuredOverlay,
        origin: EntityId,
        resource: EntityId,
        ttl: int = 3,
    ) -> Tuple[float, int]:
        """Run an XRep poll over *overlay* and score from the responses.

        Returns ``(score, messages)``.  Collected opinions are recorded
        into this model (polls accumulate knowledge, as in XRep).
        """
        opinions, messages = overlay.poll_opinions(origin, resource, ttl=ttl)
        for fb in opinions:
            if (fb.rater, fb.rating) not in self._votes.get(fb.target, []):
                self.record(fb)
        return self.score(resource), messages
