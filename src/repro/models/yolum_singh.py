"""Yolum & Singh: locating trustworthy services through referrals —
decentralized / person-agent / personalized.

The contribution is less the trust arithmetic than the *search*: agents
hold acquaintances, queries travel as referrals, and agents adapt their
neighbour sets toward acquaintances who give useful answers.  The model
wraps a :class:`~repro.p2p.referral.ReferralNetwork`: scoring a target
issues a referral query from the perspective agent, combines the
witnesses' opinions discounted by chain length, and reinforces the
network toward useful witnesses.

Scoring is the base ``score()`` loop: the network itself memoises each
agent's neighbour ranking until reinforcement or a join moves it (see
:meth:`~repro.p2p.referral.ReferralNetwork.query`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.p2p.referral import ReferralNetwork


class YolumSinghModel(ReputationModel):
    """Referral-network service location.

    Args:
        network: the referral substrate (agents join it separately).
        depth_limit: referral chain bound per query.
        chain_discount: per-hop attenuation of witness opinions.
        adapt: whether to reinforce neighbour weights after queries.
    """

    name = "yolum_singh"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.PERSONALIZED
    )
    paper_ref = "[34]"

    def __init__(
        self,
        network: Optional[ReferralNetwork] = None,
        depth_limit: int = 3,
        chain_discount: float = 0.8,
        adapt: bool = True,
        rng=None,
    ) -> None:
        if depth_limit < 0:
            raise ConfigurationError("depth_limit must be >= 0")
        if not 0.0 < chain_discount <= 1.0:
            raise ConfigurationError("chain_discount must be in (0, 1]")
        self.network = network or ReferralNetwork(rng=rng)
        self.depth_limit = depth_limit
        self.chain_discount = chain_discount
        self.adapt = adapt
        self.queries_issued = 0
        self.messages_used = 0

    def ensure_agent(self, agent_id: EntityId) -> None:
        """Join *agent_id* to the referral network if not yet present."""
        if agent_id not in self.network:
            self.network.join(agent_id)

    def record(self, feedback: Feedback) -> None:
        self.ensure_agent(feedback.rater)
        self.network.record_experience(feedback.rater, feedback)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        if perspective is None:
            # Global view: average everyone's first-hand experience.
            ratings = [
                fb.rating
                for agent in self.network.agents()
                for fb in agent.store.for_target(target)
            ]
            return safe_mean(ratings, default=0.5)
        network = self.network
        if perspective not in network:
            network.join(perspective)
        own = [
            fb.rating
            for fb in network.agent(perspective).store.for_target(target)
        ]
        responses, messages = network.query(
            perspective, target, depth_limit=self.depth_limit
        )
        self.queries_issued += 1
        self.messages_used += messages
        # Witnesses are distinct, so these lists sum what the former
        # per-witness dicts summed, in the same order.
        weighted: List[float] = []
        weights: List[float] = []
        discount = self.chain_discount
        for response in responses:
            ratings = [fb.rating for fb in response.opinions]
            opinion = sum(ratings) / len(ratings) if ratings else 0.5
            weight = discount ** max(1, len(response.chain) - 1)
            weighted.append(opinion * weight)
            weights.append(weight)
            if self.adapt:
                # A useful witness is one that had a confident opinion
                # (clearly good or clearly bad).
                useful = abs(opinion - 0.5) > 0.2
                network.reinforce(perspective, response.witness, useful)
        total_weight = sum(weights) + (1.0 if own else 0.0) * len(own)
        if total_weight <= 0:
            return 0.5
        own_part = sum(own)  # weight 1 per first-hand experience
        witness_part = sum(weighted)
        return (own_part + witness_part) / total_weight
