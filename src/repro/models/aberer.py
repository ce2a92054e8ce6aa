"""Aberer & Despotovic's complaint-based trust — decentralized /
person-agent / global.

"Managing trust in a peer-to-peer information system": the *only*
behavioural data is **complaints** — after a bad interaction, the
wronged peer files a complaint about the other.  An agent's
(dis)trustworthiness is assessed from complaints it *received* (cr) and
complaints it *filed* (cf); the decision statistic is their product

.. math::  T(p) = cr(p) \\cdot cf(p)

because a malicious peer both misbehaves (collecting cr) and covers
itself by complaining about honest partners (inflating cf).  A peer is
judged untrustworthy when ``T(p)`` exceeds the population average by a
tolerance factor.  Complaint records live on a P-Grid in the original;
:meth:`store_on_pgrid` / :meth:`assess_via_pgrid` reproduce that
deployment, while the model also runs standalone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.p2p.pgrid import PGrid


class AbererDespotovicModel(ReputationModel):
    """Complaint-based binary trust with a graded score.

    Args:
        complaint_threshold: rating below this files a complaint.
        tolerance: multiple of the average complaint statistic above
            which a peer is judged untrustworthy.
    """

    name = "aberer_despotovic"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[1]"

    def __init__(
        self,
        complaint_threshold: float = 0.5,
        tolerance: float = 2.0,
    ) -> None:
        if not 0.0 <= complaint_threshold <= 1.0:
            raise ConfigurationError("complaint_threshold must be in [0, 1]")
        if tolerance <= 0:
            raise ConfigurationError("tolerance must be positive")
        self.complaint_threshold = complaint_threshold
        self.tolerance = tolerance
        self._received: Dict[EntityId, int] = {}
        self._filed: Dict[EntityId, int] = {}
        self._interactions: Dict[EntityId, int] = {}

    # -- evidence -------------------------------------------------------
    def file_complaint(self, complainant: EntityId, about: EntityId) -> None:
        self._received[about] = self._received.get(about, 0) + 1
        self._filed[complainant] = self._filed.get(complainant, 0) + 1

    def record(self, feedback: Feedback) -> None:
        self._interactions[feedback.target] = (
            self._interactions.get(feedback.target, 0) + 1
        )
        self._interactions.setdefault(feedback.rater, 0)
        if feedback.rating < self.complaint_threshold:
            self.file_complaint(feedback.rater, feedback.target)
        else:
            self._received.setdefault(feedback.target, 0)
            self._filed.setdefault(feedback.rater, 0)

    def complaints(self, peer: EntityId) -> Tuple[int, int]:
        """(received, filed) complaint counts for *peer*."""
        return self._received.get(peer, 0), self._filed.get(peer, 0)

    # -- assessment ------------------------------------------------------
    def statistic(self, peer: EntityId) -> float:
        """The decision statistic cr(p) * cf(p), smoothed by +1."""
        cr, cf = self.complaints(peer)
        return float((cr + 1) * (cf + 1))

    def _population_average(self) -> float:
        peers = (
            set(self._received) | set(self._filed) | set(self._interactions)
        )
        if not peers:
            return 1.0
        return sum(self.statistic(p) for p in sorted(peers)) / len(peers)

    def is_trustworthy(self, peer: EntityId) -> bool:
        """Aberer & Despotovic's binary decision."""
        return self.statistic(peer) <= self.tolerance * self._population_average()

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        """Graded score: average statistic maps to 0.5, higher is worse."""
        return self._graded(target, self._population_average())

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The :meth:`score` loop with the population average computed
        once per call rather than once per target."""
        average = self._population_average()
        return [self._graded(target, average) for target in targets]

    def _graded(self, target: EntityId, average: float) -> float:
        ratio = self.statistic(target) / average if average > 0 else 1.0
        return 1.0 / (1.0 + ratio)  # ratio 1 -> 0.5, clean peer -> ~1

    # -- P-Grid deployment --------------------------------------------------
    def store_on_pgrid(
        self,
        pgrid: PGrid,
        origin: EntityId,
        complainant: EntityId,
        about: EntityId,
        time: float = 0.0,
    ) -> int:
        """File a complaint as a P-Grid record under the subject's key.

        Returns messages used.  Complaints are encoded as rating-0
        feedback so P-Grid peers can store them natively.
        """
        record = Feedback(
            rater=complainant, target=about, time=time, rating=0.0
        )
        return pgrid.insert(origin, about, record)

    def assess_via_pgrid(
        self, pgrid: PGrid, origin: EntityId, peer: EntityId
    ) -> Tuple[int, int]:
        """Fetch *peer*'s complaint count from the overlay.

        Returns ``(complaints_received, messages)``.
        """
        records, messages = pgrid.lookup(origin, peer, peer)
        complaints = sum(1 for fb in records if fb.rating <= 0.0)
        return complaints, messages
