"""Subjective-logic reputation — Jøsang's algebra as a mechanism.

Not a Figure 4 leaf (the survey cites Jøsang [10] for the *theory* of
transitive trust), but the natural "what if we ran it" companion: each
rater's experience with a target becomes an evidence-based
:class:`~repro.trustnet.opinion.Opinion`, and

* the **global** reputation of a target is the consensus fusion of all
  raters' opinions (evidence pooling);
* the **personalized** trust adds a discounting step: the asking
  consumer trusts each rater as a *referrer* according to how well that
  rater's past opinions matched the consumer's own first-hand
  experience (agreement evidence), and rater opinions are discounted
  through that referral trust before fusion — a direct TNA-SL
  evaluation with the asker as root.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.trustnet.opinion import Opinion, consensus, discount


class SubjectiveLogicModel(ReputationModel):
    """Opinion-algebra reputation with optional personalization.

    Args:
        agreement_tolerance: |rater rating − own rating| within which
            two ratings of the same target count as agreement (the
            evidence for referral trust).
        base_rate: prior probability used in expectations.
    """

    name = "subjective_logic"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.PERSONALIZED
    )
    paper_ref = "[10]"

    def __init__(
        self,
        agreement_tolerance: float = 0.2,
        base_rate: float = 0.5,
    ) -> None:
        if not 0.0 < agreement_tolerance <= 1.0:
            raise ConfigurationError(
                "agreement_tolerance must be in (0, 1]"
            )
        if not 0.0 <= base_rate <= 1.0:
            raise ConfigurationError("base_rate must be in [0, 1]")
        self.agreement_tolerance = agreement_tolerance
        self.base_rate = base_rate
        #: (rater, target) -> (positive evidence, negative evidence)
        self._evidence: Dict[Tuple[EntityId, EntityId], Tuple[float, float]] = {}
        #: rater -> target -> latest rating (for agreement bookkeeping)
        self._latest: Dict[EntityId, Dict[EntityId, float]] = {}
        #: target -> raters with evidence about it
        self._raters: Dict[EntityId, Set[EntityId]] = {}

    # -- evidence -------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        key = (feedback.rater, feedback.target)
        r, s = self._evidence.get(key, (0.0, 0.0))
        self._evidence[key] = (r + feedback.rating,
                               s + (1.0 - feedback.rating))
        self._latest.setdefault(feedback.rater, {})[feedback.target] = (
            feedback.rating
        )
        self._raters.setdefault(feedback.target, set()).add(feedback.rater)

    def functional_opinion(
        self, rater: EntityId, target: EntityId
    ) -> Opinion:
        """The opinion *rater*'s own evidence about *target* induces."""
        r, s = self._evidence.get((rater, target), (0.0, 0.0))
        return Opinion.from_evidence(r, s, base_rate=self.base_rate)

    def referral_opinion(
        self, perspective: EntityId, rater: EntityId
    ) -> Opinion:
        """*perspective*'s trust in *rater* as a referrer.

        Agreement evidence: over targets both have rated, how often the
        rater's rating landed within tolerance of the perspective's.
        """
        own = self._latest.get(perspective, {})
        theirs = self._latest.get(rater, {})
        agree = 0.0
        disagree = 0.0
        for target in sorted(set(own) & set(theirs)):
            if abs(own[target] - theirs[target]) <= self.agreement_tolerance:
                agree += 1.0
            else:
                disagree += 1.0
        return Opinion.from_evidence(agree, disagree,
                                     base_rate=self.base_rate)

    # -- scoring -----------------------------------------------------------
    def derived_opinion(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
    ) -> Opinion:
        """The fused opinion about *target* (personalized when asked)."""
        return self._fused(target, perspective, {})

    def _fused(
        self,
        target: EntityId,
        perspective: Optional[EntityId],
        trust: Dict[EntityId, Opinion],
    ) -> Opinion:
        """Consensus over *target*'s raters in sorted order, each
        discounted through *perspective*'s referral opinion of it
        (memoised in *trust*) when personalized."""
        fused: Optional[Opinion] = None
        for rater in sorted(self._raters.get(target, ())):
            opinion = self.functional_opinion(rater, target)
            if perspective is not None and rater != perspective:
                if rater not in trust:
                    trust[rater] = self.referral_opinion(perspective, rater)
                opinion = discount(trust[rater], opinion)
            fused = opinion if fused is None else consensus(fused, opinion)
        return fused if fused is not None else Opinion.vacuous(
            self.base_rate
        )

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return self.derived_opinion(target, perspective).expectation

    def uncertainty(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
    ) -> float:
        """How much of the derived opinion is uncommitted mass."""
        return self.derived_opinion(target, perspective).uncertainty

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """The :meth:`score` loop with each rater's referral opinion
        computed once per call rather than once per (target, rater)."""
        trust: Dict[EntityId, Opinion] = {}
        return [
            self._fused(target, perspective, trust).expectation
            for target in targets
        ]
