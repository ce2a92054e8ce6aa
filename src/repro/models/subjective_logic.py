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

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.trustnet.opinion import _EPS, _HIGH, Opinion

_NO_EVIDENCE = (0.0, 0.0)
#: an opinion's (belief, disbelief, uncertainty, base rate)
_Masses = Tuple[float, float, float, float]
#: a rater and the masses of its functional opinion of one target
_Rated = Tuple[EntityId, float, float, float, float]


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
        #: target -> raters with evidence about it, in first-rating order
        self._raters: Dict[EntityId, Dict[EntityId, None]] = {}
        #: (perspective, rater) -> (agreements, disagreements) over the
        #: targets both rated, kept by ``record``; both orders of a pair
        #: map to one tuple.  The counts are integer-valued floats, so
        #: they equal a recount over the rating intersection bit for bit.
        self._agreement: Dict[Tuple[EntityId, EntityId], Tuple[float, float]] = {}
        #: (rater, target) -> (the evidence tuple it was derived from, the
        #: functional opinion); ``record`` stores a new tuple, so an
        #: identity check tells whether the opinion is still current
        self._functional: Dict[
            Tuple[EntityId, EntityId], Tuple[Tuple[float, float], Opinion]
        ] = {}
        #: (perspective, rater) -> (agreement tuple, referral opinion),
        #: current while ``_agreement`` holds that very tuple
        self._referral: Dict[
            Tuple[EntityId, EntityId], Tuple[Tuple[float, float], Opinion]
        ] = {}
        #: target -> (rater, b, d, u, a) of each rater's functional
        #: opinion, in sorted rater order; ``record`` drops its target's
        self._opinions: Dict[EntityId, List[_Rated]] = {}

    # -- evidence -------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        rater, target, rating = feedback.rater, feedback.target, feedback.rating
        key = (rater, target)
        r, s = self._evidence.get(key, (0.0, 0.0))
        self._evidence[key] = (r + rating, s + (1.0 - rating))
        self._opinions.pop(target, None)
        latest = self._latest.setdefault(rater, {})
        old = latest.get(target)
        latest[target] = rating
        raters = self._raters.setdefault(target, {})
        raters[rater] = None
        tolerance = self.agreement_tolerance
        for other in raters:
            if other == rater:
                continue
            theirs = self._latest[other][target]
            agree, disagree = self._agreement.get((rater, other), _NO_EVIDENCE)
            if old is not None:  # a re-rate: take back the old comparison
                if abs(old - theirs) <= tolerance:
                    agree -= 1.0
                else:
                    disagree -= 1.0
            if abs(rating - theirs) <= tolerance:
                agree += 1.0
            else:
                disagree += 1.0
            counts = (agree, disagree)
            self._agreement[(rater, other)] = counts
            self._agreement[(other, rater)] = counts

    def functional_opinion(
        self, rater: EntityId, target: EntityId
    ) -> Opinion:
        """The opinion *rater*'s own evidence about *target* induces."""
        key = (rater, target)
        evidence = self._evidence.get(key, _NO_EVIDENCE)
        hit = self._functional.get(key)
        if hit is not None and hit[0] is evidence:
            return hit[1]
        opinion = Opinion.from_evidence(*evidence, base_rate=self.base_rate)
        self._functional[key] = (evidence, opinion)
        return opinion

    def referral_opinion(
        self, perspective: EntityId, rater: EntityId
    ) -> Opinion:
        """*perspective*'s trust in *rater* as a referrer.

        Agreement evidence: over targets both have rated, how often the
        rater's rating landed within tolerance of the perspective's.
        """
        if perspective == rater:  # every own rating agrees with itself
            return Opinion.from_evidence(
                float(len(self._latest.get(rater, {}))), 0.0,
                base_rate=self.base_rate,
            )
        key = (perspective, rater)
        counts = self._agreement.get(key, _NO_EVIDENCE)
        hit = self._referral.get(key)
        if hit is not None and hit[0] is counts:
            return hit[1]
        opinion = Opinion.from_evidence(*counts, base_rate=self.base_rate)
        self._referral[key] = (counts, opinion)
        return opinion

    def _target_opinions(
        self, target: EntityId
    ) -> Sequence[_Rated]:
        """``(rater, b, d, u, a)`` of every rater's functional opinion of
        *target*, in sorted rater order; kept until *target*'s next
        record."""
        kept = self._opinions.get(target)
        if kept is None:
            if target not in self._raters:
                return ()
            kept = []
            for rater in sorted(self._raters[target]):
                o = self.functional_opinion(rater, target)
                kept.append((rater, o.belief, o.disbelief, o.uncertainty,
                             o.base_rate))
            self._opinions[target] = kept
        return kept

    # -- scoring -----------------------------------------------------------
    def derived_opinion(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
    ) -> Opinion:
        """The fused opinion about *target* (personalized when asked)."""
        return Opinion(*self._fused(target, perspective, {}))

    def _fused(
        self,
        target: EntityId,
        perspective: Optional[EntityId],
        trust: Dict[EntityId, float],
    ) -> _Masses:
        """Consensus over *target*'s raters in sorted order, each
        discounted through *perspective*'s referral opinion of it
        (its belief memoised in *trust*) when personalized.

        :func:`~repro.trustnet.opinion.discount` and
        :func:`~repro.trustnet.opinion.consensus` run over ``(b, d, u,
        a)`` tuples with the same expressions in the same order.  Each
        intermediate gets :class:`Opinion`'s range and sum checks inline;
        one that fails is built as an ``Opinion``, which raises its
        error.
        """
        opinions = self._target_opinions(target)
        if not opinions:
            return (0.0, 0.0, 1.0, self.base_rate)
        low, high = -_EPS, _HIGH
        personal = perspective is not None
        fb = fd = fu = fa = math.nan  # the fused opinion: the first rater sets it
        for i, (rater, b, d, u, a) in enumerate(opinions):
            if personal and rater != perspective:
                belief = trust.get(rater)
                if belief is None:
                    belief = self.referral_opinion(perspective, rater).belief
                    trust[rater] = belief
                b = belief * b
                d = belief * d
                u = 1.0 - b - d
                if not (low <= b <= high and low <= d <= high
                        and low <= u <= high and low <= a <= high
                        and abs(b + d + u - 1.0) <= 1e-6):
                    Opinion(b, d, u, a)
            if not i:
                fb, fd, fu, fa = b, d, u, a
                continue
            kappa = fu + u - fu * u
            if kappa < _EPS:  # dogmatic limit: average the committed masses
                fb = (fb + b) / 2.0
                fd = (fd + d) / 2.0
                fu = max(0.0, 1.0 - fb - fd)
            else:
                b = (fb * u + b * fu) / kappa
                d = (fd * u + d * fu) / kappa
                u = (fu * u) / kappa
                total = b + d + u
                fb, fd, fu = b / total, d / total, u / total
            if not (low <= fb <= high and low <= fd <= high
                    and low <= fu <= high and low <= fa <= high
                    and abs(fb + fd + fu - 1.0) <= 1e-6):
                Opinion(fb, fd, fu, fa)
        return (fb, fd, fu, fa)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        b, _, u, a = self._fused(target, perspective, {})
        return b + a * u

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
        """The :meth:`score` loop with each rater's referral belief read
        once per call rather than once per (target, rater)."""
        trust: Dict[EntityId, float] = {}
        scores = []
        for target in targets:
            b, _, u, a = self._fused(target, perspective, trust)
            scores.append(b + a * u)
        return scores
