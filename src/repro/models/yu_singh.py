"""Yu & Singh's distributed belief model — decentralized / person-agent /
personalized.

Each agent derives a *belief function* about a target from its own
recent ratings: mass on ``{trustworthy}`` for ratings above an upper
threshold, on ``{not trustworthy}`` below a lower threshold, and the
remainder on the frame ``{T, ¬T}`` (uncertainty).  Testimonies from
witnesses are *discounted* by referral-chain length and fused with
**Dempster's rule of combination**.  An agent with enough first-hand
history trusts its own evidence and skips witnesses entirely.

The model runs standalone (every rater of the target is a witness) or
against a :class:`~repro.p2p.referral.ReferralNetwork`, whose chains
supply the per-witness discount exactly as in the original papers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel

#: A belief mass assignment over {T}, {not T}, {T, not T}.
BeliefMass = Tuple[float, float, float]

_VACUOUS: BeliefMass = (0.0, 0.0, 1.0)


def _validate_mass(m: BeliefMass) -> None:
    bt, bn, u = m
    if min(bt, bn, u) < -1e-9 or abs(bt + bn + u - 1.0) > 1e-6:
        raise ConfigurationError(f"invalid belief mass: {m}")


def dempster_combine(m1: BeliefMass, m2: BeliefMass) -> BeliefMass:
    """Dempster's rule for the simple frame {T, ¬T}.

    Raises :class:`ConfigurationError` on total conflict (one source
    fully certain of T, the other fully certain of ¬T).
    """
    _validate_mass(m1)
    _validate_mass(m2)
    bt1, bn1, u1 = m1
    bt2, bn2, u2 = m2
    conflict = bt1 * bn2 + bn1 * bt2
    k = 1.0 - conflict
    if k <= 1e-12:
        raise ConfigurationError("total conflict between belief sources")
    bt = (bt1 * bt2 + bt1 * u2 + u1 * bt2) / k
    bn = (bn1 * bn2 + bn1 * u2 + u1 * bn2) / k
    u = (u1 * u2) / k
    return (bt, bn, u)


def discount(m: BeliefMass, factor: float) -> BeliefMass:
    """Shafer discounting: scale committed mass by *factor* into doubt."""
    if not 0.0 <= factor <= 1.0:
        raise ConfigurationError("discount factor must be in [0, 1]")
    bt, bn, u = m
    return (bt * factor, bn * factor, 1.0 - factor * (bt + bn))


@dataclass(frozen=True)
class Testimony:
    """A witness's discounted belief about a target."""

    __test__ = False  # keep pytest from collecting this as a test class

    witness: EntityId
    mass: BeliefMass
    chain_length: int = 0


class YuSinghModel(ReputationModel):
    """Belief-based trust with witness testimony combination.

    Args:
        upper / lower: rating thresholds splitting evidence into
            trustworthy / untrustworthy / uncertain mass.
        history: number of most recent local ratings considered.
        min_local: first-hand count above which witnesses are ignored.
        referral_discount: per-hop testimony discount (γ).
    """

    name = "yu_singh"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.PERSONALIZED
    )
    paper_ref = "[35, 36]"

    def __init__(
        self,
        upper: float = 0.7,
        lower: float = 0.3,
        history: int = 10,
        min_local: int = 5,
        referral_discount: float = 0.8,
    ) -> None:
        if not 0.0 <= lower < upper <= 1.0:
            raise ConfigurationError("need 0 <= lower < upper <= 1")
        if history < 1 or min_local < 1:
            raise ConfigurationError("history and min_local must be >= 1")
        if not 0.0 < referral_discount <= 1.0:
            raise ConfigurationError("referral_discount must be in (0, 1]")
        self.upper = upper
        self.lower = lower
        self.history = history
        self.min_local = min_local
        self.referral_discount = referral_discount
        #: rater -> target -> list of (time, rating)
        self._local: Dict[EntityId, Dict[EntityId, List[Tuple[float, float]]]] = {}
        #: (agent, target) -> (history length, local mass): the histories
        #: only grow, so an unchanged length means an unchanged mass
        self._mass: Dict[Tuple[EntityId, EntityId], Tuple[int, BeliefMass]] = {}
        #: target -> every agent with a local history of it, in first
        #: rating order (``combine_testimonies`` sorts by witness)
        self._witnesses: Dict[EntityId, List[EntityId]] = {}

    def record(self, feedback: Feedback) -> None:
        targets = self._local.setdefault(feedback.rater, {})
        if feedback.target not in targets:
            self._witnesses.setdefault(feedback.target, []).append(
                feedback.rater
            )
        targets.setdefault(feedback.target, []).append(
            (feedback.time, feedback.rating)
        )

    def local_mass(self, agent: EntityId, target: EntityId) -> BeliefMass:
        """The belief function *agent*'s own experience induces."""
        entries = self._local.get(agent, {}).get(target, [])
        if not entries:
            return _VACUOUS
        key = (agent, target)
        hit = self._mass.get(key)
        if hit is not None and hit[0] == len(entries):
            return hit[1]
        recent = sorted(entries, key=lambda e: e[0])[-self.history:]
        n = len(recent)
        pos = sum(1 for _, r in recent if r >= self.upper)
        neg = sum(1 for _, r in recent if r <= self.lower)
        mass = (pos / n, neg / n, (n - pos - neg) / n)
        self._mass[key] = (len(entries), mass)
        return mass

    def local_count(self, agent: EntityId, target: EntityId) -> int:
        return len(self._local.get(agent, {}).get(target, []))

    @staticmethod
    def degree_of_trust(mass: BeliefMass) -> float:
        """Scalar trust from a belief mass: belief + half the doubt."""
        bt, _, u = mass
        return bt + 0.5 * u

    def combine_testimonies(
        self,
        own: BeliefMass,
        testimonies: "list[Testimony]",
    ) -> BeliefMass:
        """Fuse own evidence with chain-discounted witness testimony."""
        combined = own
        for testimony in sorted(testimonies, key=lambda t: t.witness):
            factor = self.referral_discount ** max(1, testimony.chain_length)
            discounted = discount(testimony.mass, factor)
            try:
                combined = dempster_combine(combined, discounted)
            except ConfigurationError:
                # Total conflict: the witness is ignored (Yu & Singh drop
                # fully conflicting testimony rather than failing).
                continue
        return combined

    def testimony_from(
        self, witness: EntityId, target: EntityId, chain_length: int = 1
    ) -> Testimony:
        return Testimony(
            witness=witness,
            mass=self.local_mass(witness, target),
            chain_length=chain_length,
        )

    def score_with_referrals(
        self,
        network,
        perspective: EntityId,
        target: EntityId,
        depth_limit: int = 3,
    ) -> Tuple[float, int]:
        """Score *target* using witnesses found through *network*.

        The full Yu & Singh pipeline: locate witnesses via the referral
        network (:class:`~repro.p2p.referral.ReferralNetwork`), build
        each witness's testimony from the evidence recorded in this
        model, discount by the *actual* chain length the query
        travelled, and combine with Dempster's rule (after the asker's
        own evidence).  Returns ``(trust, messages_used)``.
        """
        own = self.local_mass(perspective, target)
        if self.local_count(perspective, target) >= self.min_local:
            return self.degree_of_trust(own), 0
        responses, messages = network.query(
            perspective, target, depth_limit=depth_limit
        )
        testimonies = [
            self.testimony_from(
                response.witness, target,
                chain_length=max(1, response.chain_length),
            )
            for response in responses
        ]
        combined = self.combine_testimonies(own, testimonies)
        return self.degree_of_trust(combined), messages

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        if perspective is not None:
            own = self.local_mass(perspective, target)
            if self.local_count(perspective, target) >= self.min_local:
                return self.degree_of_trust(own)
        else:
            perspective = ""
            own = _VACUOUS
        # combine_testimonies over each witness's testimony at chain
        # length 1, with the discount inlined and no Testimony built
        factor = self.referral_discount ** 1
        combined = own
        for witness in sorted(self._witnesses.get(target, ())):
            if witness == perspective:
                continue
            bt, bn, _ = self.local_mass(witness, target)
            discounted = (bt * factor, bn * factor, 1.0 - factor * (bt + bn))
            try:
                combined = dempster_combine(combined, discounted)
            except ConfigurationError:
                continue  # total conflict: the witness is ignored
        return self.degree_of_trust(combined)
