"""Reputation from social-network topology (Pujol, Sangüesa & Delgado)
— decentralized / person-agent / global.

NodeRanking's premise: reputation can be *extracted* from the structure
of the community graph alone — who is connected to whom — without
explicit ratings.  An agent pointed to by well-positioned agents is
well-positioned itself; authority propagates along edges like PageRank
but over the social graph, with each node ranked by its share of
incoming authority.

Edges come either from explicit :meth:`add_relation` calls or from
positive feedback (a positive rating is a social endorsement).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel


class SocialNetworkModel(ReputationModel):
    """NodeRanking-style authority propagation over the social graph.

    Args:
        damping: restart probability complement (as in PageRank; Pujol
            uses a similar jump factor).
        positive_threshold: feedback above this creates a social edge.
    """

    name = "social_network"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[24]"

    def __init__(
        self,
        damping: float = 0.85,
        positive_threshold: float = 0.5,
        tol: float = 1e-10,
        max_iter: int = 200,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        self.damping = damping
        self.positive_threshold = positive_threshold
        self.tol = tol
        self.max_iter = max_iter
        self._out: Dict[EntityId, Set[EntityId]] = {}
        self._nodes: Set[EntityId] = set()
        self._authority: Optional[Dict[EntityId, float]] = None

    def add_relation(self, source: EntityId, target: EntityId) -> None:
        """Add a directed social edge (acquaintance/endorsement).

        :meth:`compute` is a pure function of the nodes and edges, so
        the authority cache is dropped only when the edge is new."""
        if source == target:
            return
        targets = self._out.setdefault(source, set())
        if target not in targets:
            targets.add(target)
            self._nodes.update((source, target))
            self._authority = None

    def record(self, feedback: Feedback) -> None:
        known = len(self._nodes)
        self._nodes.update((feedback.rater, feedback.target))
        if len(self._nodes) != known:
            self._authority = None
        if feedback.rating > self.positive_threshold:
            self.add_relation(feedback.rater, feedback.target)

    def degree(self, node: EntityId) -> int:
        """In-degree of *node* (raw topological standing)."""
        return sum(1 for targets in self._out.values() if node in targets)

    def compute(self) -> Dict[EntityId, float]:
        """Authority per node via damped power iteration (sums to 1)."""
        nodes = sorted(self._nodes)
        n = len(nodes)
        if n == 0:
            self._authority = {}
            return {}
        index = {node: i for i, node in enumerate(nodes)}
        rank = [1.0 / n] * n
        for _ in range(self.max_iter):
            nxt = [(1.0 - self.damping) / n] * n
            dangling = sum(
                rank[index[node]]
                for node in nodes
                if not self._out.get(node)
            )
            spread = self.damping * dangling / n
            for i in range(n):
                nxt[i] += spread
            for node, targets in self._out.items():
                if not targets:
                    continue
                share = self.damping * rank[index[node]] / len(targets)
                for tgt in sorted(targets):
                    nxt[index[tgt]] += share
            delta = sum(abs(a - b) for a, b in zip(rank, nxt))
            rank = nxt
            if delta < self.tol:
                break
        self._authority = {node: rank[index[node]] for node in nodes}
        return dict(self._authority)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        if self._authority is None:
            self.compute()
        assert self._authority is not None
        if not self._authority:
            return 0.5
        top = max(self._authority.values())
        if top <= 0:
            return 0.5
        return self._authority.get(target, 0.0) / top
