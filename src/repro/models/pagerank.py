"""PageRank (Page, Brin, Motwani & Winograd) — centralized / resource /
global.

The survey places Google in the centralized-resource-global leaf: a
resource's standing derives from who endorses it.  Here the endorsement
graph is built from feedback — a positive rating creates (or refreshes)
an edge ``rater -> target`` — and reputation is the stationary
distribution of the damped random walk.

The stationary vector is the shared damped walk
(:func:`repro.models.walk.damped_walk`) with restart ``1 − damping``
onto the uniform vector.  Nodes keep the index of their first
appearance and edges accumulate as index pairs, so the graph is never
re-indexed.  :meth:`record` drops the cached vector only when the node
set grows or an edge is new, and :meth:`compute` re-converges from the
previous fixed point — the damped walk has a unique stationary
distribution, so the warm start lands on the same answer as a cold one
(to ``tol``).  :meth:`compute_naive` keeps the original pure-Python
iteration as the reference the property tests and the benchmark
baseline compare against.

Scores are normalized by the maximum rank so they land on ``[0, 1]``
like every other model; :meth:`raw_rank` exposes the probability mass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.models.walk import (
    cached_vector,
    check_walk_config,
    damped_walk,
    vector_scores,
)


class PageRankModel(ReputationModel):
    """PageRank over the positive-endorsement graph.

    Args:
        damping: probability of following an edge (0.85 in the paper).
        positive_threshold: ratings above this create an endorsement edge.
        tol / max_iter: power-iteration convergence controls.
    """

    name = "pagerank"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.GLOBAL
    )
    paper_ref = "[23]"

    def __init__(
        self,
        damping: float = 0.85,
        positive_threshold: float = 0.5,
        tol: float = 1e-12,
        max_iter: int = 200,
    ) -> None:
        if not 0.0 < damping < 1.0:
            raise ConfigurationError("damping must be in (0, 1)")
        check_walk_config(tol, max_iter)
        self.damping = damping
        self.positive_threshold = positive_threshold
        self.tol = tol
        self.max_iter = max_iter
        self._out: Dict[EntityId, Set[EntityId]] = {}
        #: node -> index, in order of first appearance
        self._nodes: Dict[EntityId, int] = {}
        #: edges as (source, target) index pairs, in insertion order
        self._edge_pairs: List[Tuple[int, int]] = []
        #: the same pairs as an array, extended at each compute
        self._edges = np.empty((0, 2), dtype=np.intp)
        #: cached stationary vector per node; None once the graph changed
        self._vector: Optional[Dict[EntityId, float]] = None
        #: previous fixed point, the warm start for the next compute
        self._warm: Optional[np.ndarray] = None
        self.iterations_last_run = 0

    def _node(self, node: EntityId) -> int:
        return self._nodes.setdefault(node, len(self._nodes))

    def add_edge(self, source: EntityId, target: EntityId) -> None:
        """Add an endorsement edge directly (citation-graph use).

        :meth:`compute` is a function of the nodes and the edge sets,
        so the cached vector is dropped only when the edge is new."""
        if source == target:
            return
        targets = self._out.setdefault(source, set())
        if target not in targets:
            targets.add(target)
            self._edge_pairs.append((self._node(source), self._node(target)))
            self._vector = None

    def record(self, feedback: Feedback) -> None:
        known = len(self._nodes)
        self._node(feedback.rater)
        self._node(feedback.target)
        if len(self._nodes) != known:
            self._vector = None
        if feedback.rating > self.positive_threshold:
            self.add_edge(feedback.rater, feedback.target)

    def compute(self) -> Dict[EntityId, float]:
        """Converge the rank vector; returns rank per node (sums to 1).

        The shared sparse walk, warm-started from the previous fixed
        point."""
        n = len(self._nodes)
        if n == 0:
            self._vector = {}
            return {}
        fresh = self._edge_pairs[len(self._edges):]
        if fresh:
            self._edges = np.concatenate(
                (self._edges, np.array(fresh, dtype=np.intp))
            )
        edges = self._edges
        rank, self.iterations_last_run = damped_walk(
            edges[:, 0], edges[:, 1], np.ones(len(edges)), n,
            np.full(n, 1.0 / n), 1.0 - self.damping, self.tol,
            self.max_iter, self._warm,
        )
        self._warm = rank
        self._vector = dict(zip(self._nodes, rank.tolist()))
        return dict(self._vector)
    def compute_naive(self) -> Dict[EntityId, float]:
        """The original pure-Python cold-start iteration — kept as the
        reference path the cached engine is benchmarked and verified
        against.  Does not touch the incremental cache."""
        nodes = sorted(self._nodes)
        n = len(nodes)
        if n == 0:
            return {}
        index = {node: i for i, node in enumerate(nodes)}
        rank = [1.0 / n] * n
        out_degree = [len(self._out.get(node, ())) for node in nodes]
        for iteration in range(self.max_iter):
            nxt = [(1.0 - self.damping) / n] * n
            dangling_mass = sum(
                rank[i] for i in range(n) if out_degree[i] == 0
            )
            spread = self.damping * dangling_mass / n
            for i in range(n):
                nxt[i] += spread
            for node, targets in self._out.items():
                i = index[node]
                if not targets:
                    continue
                share = self.damping * rank[i] / len(targets)
                for tgt in sorted(targets):
                    nxt[index[tgt]] += share
            delta = sum(abs(a - b) for a, b in zip(rank, nxt))
            rank = nxt
            if delta < self.tol:
                self.iterations_last_run = iteration + 1
                break
        else:
            self.iterations_last_run = self.max_iter
        return {node: rank[index[node]] for node in nodes}

    def raw_rank(self, target: EntityId) -> float:
        return cached_vector(self).get(target, 0.0)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return vector_scores(self, (target,))[0]

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch scores from one cached stationary vector."""
        return vector_scores(self, targets)
