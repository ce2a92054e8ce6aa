"""EigenTrust (Kamvar, Schlosser & Garcia-Molina) — decentralized /
person-agent / global.

Local trust: peer *i*'s satisfaction balance with *j*,
``s_ij = sat(i,j) − unsat(i,j)``, clipped at zero and normalized into a
row-stochastic matrix *C*.  Global trust is the stationary vector of

.. math::  t^{(k+1)} = (1 - a)\\, C^T t^{(k)} + a\\, p

where *p* is the distribution over **pre-trusted peers** and *a* the
blend weight — the ingredient that makes EigenTrust resistant to
collusion rings (malicious cliques inflate each other but receive no
mass from the pre-trusted set).  A peer with no positive experience
uses *p* as its row.  This is the damped walk PageRank and the social
network model rank by too; all three run it through
:func:`repro.models.walk.damped_walk`.

Two deployments:

* :class:`EigenTrustModel` — the sparse iteration, run centrally.
* :class:`DistributedEigenTrust` — the secure distributed variant:
  each peer's trust value is computed by *score managers* located via a
  :class:`~repro.p2p.dht.ChordDHT`, with DHT messages counted so the
  overhead experiment can price decentralization.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

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
from repro.p2p.dht import ChordDHT


class EigenTrustModel(ReputationModel):
    """EigenTrust power iteration over local trust values.

    The stationary vector is *maintained*, not recomputed: the model
    keeps one ``(rater, target, sat − unsat)`` entry per rated pair,
    :meth:`record` patches that pair's entry in place, and
    :meth:`compute` runs the shared sparse walk
    (:func:`repro.models.walk.damped_walk`) with restart ``alpha``
    onto *p*, warm-started from the previous fixed point.  Memory is
    O(peers + rated pairs).  This mirrors how Kamvar et al. intend the
    vector to be kept (incrementally, by the score managers), rather
    than being an approximation: the damped iteration has a unique
    fixed point for ``alpha > 0``, so the warm start converges to the
    same answer as a cold one.  With ``alpha == 0`` it starts cold.

    Args:
        pre_trusted: ids of the pre-trusted peer set P (may be empty,
            in which case *p* is uniform over all known peers — the
            non-robust baseline variant).
        alpha: weight of the pre-trusted distribution (their *a*).
        positive_threshold: ratings above this count as satisfactory.
        tol / max_iter: iteration controls.
    """

    name = "eigentrust"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[11, 12]"

    def __init__(
        self,
        pre_trusted: Optional[Iterable[EntityId]] = None,
        alpha: float = 0.1,
        positive_threshold: float = 0.5,
        tol: float = 1e-12,
        max_iter: int = 500,
    ) -> None:
        if not 0.0 <= alpha <= 1.0:
            raise ConfigurationError("alpha must be in [0, 1]")
        check_walk_config(tol, max_iter)
        self.pre_trusted: Set[EntityId] = set(pre_trusted or ())
        self.alpha = alpha
        self.positive_threshold = positive_threshold
        self.tol = tol
        self.max_iter = max_iter
        #: peer -> index: the pre-trusted set first (sorted), then the
        #: order of first appearance
        self._peers: Dict[EntityId, int] = {
            p: i for i, p in enumerate(sorted(self.pre_trusted))
        }
        #: (rater, target) -> its entry in the three edge lists below
        self._pairs: Dict[Tuple[EntityId, EntityId], int] = {}
        self._src: List[int] = []
        self._dst: List[int] = []
        #: satisfactory minus unsatisfactory transactions, per pair
        self._net: List[int] = []
        #: cached global trust per peer; None once a record changed it
        self._vector: Optional[Dict[EntityId, float]] = None
        #: previous fixed point, the warm start for the next compute
        self._warm: Optional[np.ndarray] = None
        self.iterations_last_run = 0

    def _peer(self, peer: EntityId) -> int:
        return self._peers.setdefault(peer, len(self._peers))

    def record(self, feedback: Feedback) -> None:
        key = (feedback.rater, feedback.target)
        step = 1 if feedback.rating > self.positive_threshold else -1
        k = self._pairs.get(key)
        if k is None:
            self._pairs[key] = len(self._net)
            self._src.append(self._peer(feedback.rater))
            self._dst.append(self._peer(feedback.target))
            self._net.append(step)
        else:
            self._net[k] += step
        self._vector = None

    def local_trust(self, rater: EntityId, target: EntityId) -> float:
        """Normalized c_ij (row-normalized clipped satisfaction balance)."""
        row = self._local_rows([rater])[rater]
        return row.get(target, 0.0)

    def _local_rows(
        self, raters: Iterable[EntityId]
    ) -> Dict[EntityId, Dict[EntityId, float]]:
        """Each rater's normalized local-trust row, from one pass over
        the rated pairs: a row lists its targets in the order their
        pairs were first rated."""
        raw: Dict[EntityId, Dict[EntityId, int]] = {r: {} for r in raters}
        for (i, j), k in self._pairs.items():
            row = raw.get(i)
            if row is not None:
                row[j] = max(self._net[k], 0)
        # No positive experience: trust the pre-trusted set (their
        # fallback for undefined rows).
        prior = self._prior()
        rows: Dict[EntityId, Dict[EntityId, float]] = {}
        for rater, row in raw.items():
            total = sum(row.values())
            rows[rater] = (
                {j: v / total for j, v in row.items()} if total > 0 else prior
            )
        return rows

    def _prior(self) -> Dict[EntityId, float]:
        if self.pre_trusted:
            share = 1.0 / len(self.pre_trusted)
            return {p: share for p in sorted(self.pre_trusted)}
        n = len(self._peers)
        return {p: 1.0 / n for p in sorted(self._peers)} if n else {}

    def compute_naive(self) -> Dict[EntityId, float]:
        """The pure-Python damped power iteration, cold every call — the
        reference :meth:`compute` is verified and benchmarked against.
        Does not touch the cached vector.  Returns global trust (sums
        to 1)."""
        peers = sorted(self._peers)
        if not peers:
            return {}
        prior = self._prior()
        rows = self._local_rows(peers)
        trust = dict(prior) if prior else {p: 1.0 / len(peers) for p in peers}
        for p in peers:
            trust.setdefault(p, 0.0)
        for iteration in range(self.max_iter):
            nxt = {p: self.alpha * prior.get(p, 0.0) for p in peers}
            for i in peers:
                ti = trust.get(i, 0.0)
                if ti <= 0:
                    continue
                for j, c_ij in rows[i].items():
                    if j not in nxt:
                        continue
                    nxt[j] += (1.0 - self.alpha) * c_ij * ti
            delta = sum(abs(nxt[p] - trust.get(p, 0.0)) for p in peers)
            trust = nxt
            if delta < self.tol:
                self.iterations_last_run = iteration + 1
                break
        else:
            self.iterations_last_run = self.max_iter
        total = sum(trust.values())
        if total > 0:
            trust = {p: v / total for p, v in trust.items()}
        return trust

    def compute(self) -> Dict[EntityId, float]:
        """Global trust per peer (sums to 1) from the shared sparse walk:
        the engine behind :meth:`score` / :meth:`score_many`.  Same
        fixed point as :meth:`compute_naive`."""
        n = len(self._peers)
        if n == 0:
            self._vector = {}
            return {}
        prior = np.zeros(n)
        if self.pre_trusted:  # indices 0 .. |P| - 1
            prior[: len(self.pre_trusted)] = 1.0 / len(self.pre_trusted)
        else:
            prior.fill(1.0 / n)
        trust, self.iterations_last_run = damped_walk(
            self._src, self._dst, np.maximum(self._net, 0), n, prior,
            self.alpha, self.tol, self.max_iter,
            self._warm if self.alpha > 0 else None,
        )
        self._warm = trust
        self._vector = dict(zip(self._peers, trust.tolist()))
        return dict(self._vector)

    def global_trust(self, target: EntityId) -> float:
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


class DistributedEigenTrust:
    """Distributed EigenTrust over a Chord DHT.

    Each peer *i*'s trust value is maintained by score managers owning
    keys ``trust:i:<replica>``.  One round has every peer report its
    weighted local-trust contributions to the relevant score managers
    (DHT puts), and managers aggregate (DHT gets) — all message costs
    land in the DHT's network accounting.

    Args:
        n_managers: redundant score managers per peer (Kamvar's secure
            variant).  With several managers, :meth:`query_trust` takes
            the *median* of their answers, so a single compromised
            manager cannot move a peer's reported trust.
    """

    def __init__(
        self,
        model: EigenTrustModel,
        dht: ChordDHT,
        n_managers: int = 1,
    ) -> None:
        if n_managers < 1:
            raise ConfigurationError("n_managers must be >= 1")
        self.model = model
        self.dht = dht
        self.n_managers = n_managers
        self.rounds_run = 0
        self.messages_used = 0
        self._last_trust: Dict[EntityId, float] = {}

    def manager_keys(self, peer: EntityId) -> "list[str]":
        """The DHT keys of *peer*'s score managers."""
        if self.n_managers == 1:
            return [f"trust:{peer}"]
        return [f"trust:{peer}:{i}" for i in range(self.n_managers)]

    def run(self, rounds: int = 10) -> Dict[EntityId, float]:
        """Run *rounds* distributed iterations; returns global trust.

        The arithmetic matches :meth:`EigenTrustModel.compute_naive` (same
        fixed point); what differs is *where* values live and the
        message cost, which this method meters through the DHT.
        """
        peers = sorted(self.model._peers)
        if not peers:
            return {}
        # Clear any manager mailboxes left by a previous run (the final
        # published values would otherwise pollute round one).
        for j in peers:
            for key in self.manager_keys(j):
                owner = self.dht.responsible_node(key)
                self.dht.node(owner).store.pop(key, None)
        prior = self.model._prior()
        rows = self.model._local_rows(peers)
        trust = dict(prior) if prior else {p: 1.0 / len(peers) for p in peers}
        for p in peers:
            trust.setdefault(p, 0.0)
        for _ in range(rounds):
            # Phase 1: each peer i sends c_ij * t_i to j's score
            # managers (all replicas).
            for i in peers:
                ti = trust.get(i, 0.0)
                for j, c_ij in rows[i].items():
                    if j not in trust:
                        continue
                    for key in self.manager_keys(j):
                        hops = self.dht.put(i, key, c_ij * ti)
                        self.messages_used += hops
            # Phase 2: each peer's managers aggregate and damp; the
            # peer adopts the median of its managers' answers.
            nxt: Dict[EntityId, float] = {}
            for j in peers:
                answers = []
                for key in self.manager_keys(j):
                    contributions, hops = self.dht.get(j, key)
                    self.messages_used += hops
                    incoming = sum(contributions)
                    answers.append(
                        self.model.alpha * prior.get(j, 0.0)
                        + (1.0 - self.model.alpha) * incoming
                    )
                    owner = self.dht.responsible_node(key)
                    self.dht.node(owner).store[key] = []
                answers.sort()
                nxt[j] = answers[len(answers) // 2]
            total = sum(nxt.values())
            if total > 0:
                nxt = {p: v / total for p, v in nxt.items()}
            trust = nxt
            self.rounds_run += 1
        # Publish the final values so query_trust can fetch them.
        for j, value in trust.items():
            for key in self.manager_keys(j):
                hops = self.dht.put(j, key, value)
                self.messages_used += hops
        self._last_trust = dict(trust)
        return trust

    def query_trust(self, origin: EntityId, peer: EntityId) -> float:
        """Fetch *peer*'s trust from its managers; median of answers.

        A single lying manager (tampered store) cannot move the result
        when ``n_managers >= 3``.
        """
        answers = []
        for key in self.manager_keys(peer):
            values, hops = self.dht.get(origin, key)
            self.messages_used += hops
            if values:
                answers.append(values[-1])
        if not answers:
            return self._last_trust.get(peer, 0.0)
        answers.sort()
        return answers[len(answers) // 2]
