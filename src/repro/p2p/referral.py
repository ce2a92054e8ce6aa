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

import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.common.errors import ConfigurationError, UnknownEntityError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback
from repro.p2p.node import Peer
from repro.sim.network import Network


_WEIGHT = operator.itemgetter(0)
_ID = operator.itemgetter(1)
_NO_WITNESSES: FrozenSet[EntityId] = frozenset()


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
        #: agent -> (the neighbour set it ranked, its referral ranking);
        #: see :meth:`_ranking`
        self._ranked: Dict[
            EntityId, Tuple[FrozenSet[EntityId], List[EntityId]]
        ] = {}
        #: target -> every agent that recorded it through
        #: :meth:`record_experience`: a superset of its witnesses
        self._witnesses: Dict[EntityId, Set[EntityId]] = {}

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
                self._ranked.pop(other, None)
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
        self._witnesses.setdefault(feedback.target, set()).add(agent_id)

    # -- querying -----------------------------------------------------------
    def _ranking(self, agent_id: EntityId, agent: Peer) -> List[EntityId]:
        """*agent*'s neighbours in referral order, weight descending and
        ties by id, memoised for :meth:`query`.

        Two stable sorts, by id and then by weight descending, give the
        order of sorting by ``(-weight, id)`` with no key tuple per
        neighbour.  The memo keeps a copy of the neighbour set it
        ranked, and :meth:`query` takes it only while the set is equal;
        a neighbour's weight moves only in :meth:`join` and
        :meth:`reinforce`, which drop the memo.
        """
        by_id = sorted(agent.neighbors)
        weights = map(self._weights.get(agent_id, {}).get, by_id, repeat(0.5))
        by_weight = sorted(zip(weights, by_id), key=_WEIGHT, reverse=True)
        ranked = list(map(_ID, by_weight))
        self._ranked[agent_id] = (frozenset(agent.neighbors), ranked)
        return ranked

    def query(
        self,
        origin: EntityId,
        target: EntityId,
        depth_limit: int = 3,
    ) -> Tuple[List[ReferralResponse], int]:
        """Find witnesses with opinions about *target*.

        Depth-limited expansion: each visited agent answers with its own
        feedback about *target* (if any) and refers the query onward to
        its ``branching`` highest-weight neighbours.  Returns
        ``(responses, messages)``.

        An agent at the depth limit can only answer, so a referral to
        one that never recorded *target* (through
        :meth:`record_experience`) is counted and marked visited but
        not queued.
        """
        if depth_limit < 0:
            raise ConfigurationError("depth_limit must be >= 0")
        agents = self._agents
        if origin not in agents:
            self.agent(origin)  # raises UnknownEntityError
        memo = self._ranked
        network = self.network
        branching = self.branching
        witnesses = self._witnesses.get(target, _NO_WITNESSES)
        responses: List[ReferralResponse] = []
        messages = 0
        visited = {origin}
        frontier: List[Tuple[EntityId, Tuple[EntityId, ...]]] = [
            (origin, (origin,))
        ]
        depth = 0
        while frontier and depth <= depth_limit:
            next_frontier: List[Tuple[EntityId, Tuple[EntityId, ...]]] = []
            last = depth + 1 == depth_limit
            for agent_id, chain in frontier:
                agent = agents[agent_id]
                if not agent.online:
                    continue
                if (
                    agent_id in witnesses
                    and agent_id != origin
                    and agent.store.count_for(target)
                ):
                    messages += 1  # answer message back to origin
                    if network is not None:
                        network.send(agent_id, origin, kind="referral-answer")
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
                hit = memo.get(agent_id)
                ranked = (
                    hit[1]
                    if hit is not None and hit[0] == agent.neighbors
                    else self._ranking(agent_id, agent)
                )
                referred = 0
                for neighbor_id in ranked:
                    if neighbor_id in visited:
                        continue
                    if referred >= branching:
                        break
                    visited.add(neighbor_id)
                    referred += 1
                    messages += 1
                    if network is not None:
                        delivered = network.send(
                            agent_id, neighbor_id, kind="referral-query"
                        )
                        if not delivered:
                            continue
                    if last and neighbor_id not in witnesses:
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
        the neighbour set, evicting the lowest-weight neighbour; only a
        joined agent is promoted, since :meth:`query` visits neighbours
        as agents.  A witness that never joined still has its weight
        learned.
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
            and witness in self._agents
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
        if witness in agent.neighbors:  # a ranked weight moved
            self._ranked.pop(origin, None)

    def weight(self, origin: EntityId, other: EntityId) -> float:
        return self._weights.get(origin, {}).get(other, 0.5)
