"""Reputation from social-network topology (Pujol, Sangüesa & Delgado)
— decentralized / person-agent / global.

NodeRanking's premise: reputation can be *extracted* from the structure
of the community graph alone — who is connected to whom — without
explicit ratings.  An agent pointed to by well-positioned agents is
well-positioned itself; authority propagates along edges like PageRank
but over the social graph, with each node ranked by its share of
incoming authority.

Edges come either from explicit :meth:`add_relation` calls or from
positive feedback (a positive rating is a social endorsement).  The
authority vector is PageRank's damped walk over that graph, so the
model is a :class:`~repro.models.pagerank.PageRankModel` that differs
only in where the survey places it; :meth:`compute` is the shared
sparse walk and :meth:`compute_naive` the pure-Python reference.
"""

from __future__ import annotations

from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.pagerank import PageRankModel


class SocialNetworkModel(PageRankModel):
    """NodeRanking-style authority propagation over the social graph.

    Args (as :class:`~repro.models.pagerank.PageRankModel`):
        damping: restart probability complement (Pujol uses a similar
            jump factor).
        positive_threshold: feedback above this creates a social edge.
        tol / max_iter: power-iteration convergence controls.
    """

    name = "social_network"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[24]"

    #: add a directed social edge (acquaintance/endorsement)
    add_relation = PageRankModel.add_edge

    def degree(self, node: EntityId) -> int:
        """In-degree of *node* (raw topological standing)."""
        return sum(1 for targets in self._out.values() if node in targets)
