"""Referral networks (Yu & Singh; Yolum & Singh).

Agents hold acquaintances; a query about a target either gets answered
with the agent's own *opinion* (when it has first-hand feedback) or with
*referrals* to neighbours it considers likely to know.  Queries expand
depth-first up to a depth limit, producing opinion/chain pairs that
trust models combine (Yu & Singh's belief combination discounts by chain
length).

Neighbour adaptation (Yolum & Singh): after each query, agents that
produced useful answers gain weight and may be promoted into the
querier's neighbour set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError, UnknownEntityError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback
from repro.p2p.node import Peer
from repro.sim.network import Network


@dataclass(frozen=True)
class Referral:
    """One hop in a referral chain."""

    referrer: EntityId
    referred: EntityId


@dataclass
class ReferralResponse:
    """An opinion found through a referral chain.

    ``chain`` is the sequence of agent ids the query travelled through,
    starting at (and including) the querier; its length determines the
    discount trust models apply.
    """

    witness: EntityId
    opinions: List[Feedback]
    chain: Tuple[EntityId, ...] = field(default_factory=tuple)

    @property
    def chain_length(self) -> int:
        return max(0, len(self.chain) - 1)


class ReferralNetwork:
    """Agents, acquaintance links, and depth-limited referral queries."""

    def __init__(
        self,
        degree: int = 4,
        branching: int = 2,
        network: Optional[Network] = None,
        rng: RngLike = None,
    ) -> None:
        if degree < 1 or branching < 1:
            raise ConfigurationError("degree and branching must be >= 1")
        self.degree = degree
        self.branching = branching
        self.network = network
        self._rng = make_rng(rng)
        self._agents: Dict[EntityId, Peer] = {}
        #: querier -> (neighbour -> usefulness weight)
        self._weights: Dict[EntityId, Dict[EntityId, float]] = {}

    # -- membership --------------------------------------------------------
    def join(self, agent_id: EntityId) -> Peer:
        if agent_id in self._agents:
            raise ConfigurationError(f"agent already joined: {agent_id!r}")
        agent = Peer(agent_id)
        existing = list(self._agents)
        self._agents[agent_id] = agent
        self._weights[agent_id] = {}
        if existing:
            k = min(self.degree, len(existing))
            picks = self._rng.choice(len(existing), size=k, replace=False)
            for index in picks:
                other = existing[int(index)]
                agent.add_neighbor(other)
                self._agents[other].add_neighbor(agent_id)
                self._weights[agent_id][other] = 0.5
                self._weights[other][agent_id] = 0.5
        return agent

    def agent(self, agent_id: EntityId) -> Peer:
        try:
            return self._agents[agent_id]
        except KeyError:
            raise UnknownEntityError(f"unknown agent: {agent_id!r}") from None

    def agents(self) -> List[Peer]:
        return list(self._agents.values())

    def __len__(self) -> int:
        return len(self._agents)

    def __contains__(self, agent_id: object) -> bool:
        return agent_id in self._agents

    def record_experience(self, agent_id: EntityId, feedback: Feedback) -> None:
        """Store a first-hand experience at *agent_id*."""
        self.agent(agent_id).store.add(feedback)

    # -- querying -----------------------------------------------------------
    def query(
        self,
        origin: EntityId,
        target: EntityId,
        depth_limit: int = 3,
        rankings: Optional[Dict[EntityId, List[EntityId]]] = None,
    ) -> Tuple[List[ReferralResponse], int]:
        """Find witnesses with opinions about *target*.

        Depth-limited expansion: each visited agent answers with its own
        feedback about *target* (if any) and refers the query onward to
        its ``branching`` highest-weight neighbours.  Returns
        ``(responses, messages)``.

        *rankings* memoises each visited agent's neighbours in referral
        order.  A caller issuing several queries from one *origin* may
        share one dict across them as long as only the origin's weights
        and neighbours change in between (as :meth:`reinforce` does);
        the origin's own ranking is never memoised.
        """
        if depth_limit < 0:
            raise ConfigurationError("depth_limit must be >= 0")
        self.agent(origin)  # validate
        if rankings is None:
            rankings = {}
        responses: List[ReferralResponse] = []
        messages = 0
        visited = {origin}
        frontier: List[Tuple[EntityId, Tuple[EntityId, ...]]] = [
            (origin, (origin,))
        ]
        depth = 0
        while frontier and depth <= depth_limit:
            next_frontier: List[Tuple[EntityId, Tuple[EntityId, ...]]] = []
            for agent_id, chain in frontier:
                agent = self._agents[agent_id]
                if not agent.online:
                    continue
                if agent_id != origin and agent.store.count_for(target):
                    messages += 1  # answer message back to origin
                    if self.network is not None:
                        self.network.send(agent_id, origin, kind="referral-answer")
                    responses.append(
                        ReferralResponse(
                            witness=agent_id,
                            opinions=agent.store.for_target(target),
                            chain=chain,
                        )
                    )
                    continue  # witnesses answer instead of referring
                if depth == depth_limit:
                    continue
                ranked = rankings.get(agent_id)
                if ranked is None:
                    weights = self._weights.get(agent_id, {})
                    ranked = sorted(
                        agent.neighbor_list(),
                        key=lambda n: (-weights.get(n, 0.5), n),
                    )
                    if agent_id != origin:  # reinforce moves the origin's
                        rankings[agent_id] = ranked
                referred = 0
                for neighbor_id in ranked:
                    if neighbor_id in visited:
                        continue
                    if referred >= self.branching:
                        break
                    visited.add(neighbor_id)
                    referred += 1
                    messages += 1
                    if self.network is not None:
                        delivered = self.network.send(
                            agent_id, neighbor_id, kind="referral-query"
                        )
                        if not delivered:
                            continue
                    next_frontier.append((neighbor_id, chain + (neighbor_id,)))
            frontier = next_frontier
            depth += 1
        return responses, messages

    # -- adaptation -----------------------------------------------------------
    def reinforce(
        self, origin: EntityId, witness: EntityId, useful: bool,
        rate: float = 0.2,
    ) -> None:
        """Adjust *origin*'s weight for *witness* after a query outcome.

        Yolum & Singh: agents learn which acquaintances give good
        answers.  A consistently useful non-neighbour is promoted into
        the neighbour set, evicting the lowest-weight neighbour.
        """
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError("rate must be in (0, 1]")
        weights = self._weights.setdefault(origin, {})
        current = weights.get(witness, 0.5)
        goal = 1.0 if useful else 0.0
        weights[witness] = current + rate * (goal - current)
        agent = self.agent(origin)
        if (
            useful
            and witness not in agent.neighbors
            and weights[witness] > 0.7
            and agent.neighbors
        ):
            worst = min(
                agent.neighbor_list(), key=lambda n: (weights.get(n, 0.5), n)
            )
            if weights.get(worst, 0.5) < weights[witness]:
                agent.remove_neighbor(worst)
                agent.add_neighbor(witness)

    def weight(self, origin: EntityId, other: EntityId) -> float:
        return self._weights.get(origin, {}).get(other, 0.5)
