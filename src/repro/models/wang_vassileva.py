"""Wang & Vassileva's Bayesian-network trust — decentralized /
person-agent / personalized.

The authors' own P2P trust model (their [30, 31]): each agent maintains
a naive-Bayes model per partner, learning ``P(satisfying | facets)``
from its interaction history.  Trust is the posterior probability that
the next interaction will be satisfying, per QoS facet and overall, so
different agents (with different experiences and different facet
weightings) hold genuinely different trust in the same partner —
personalized by construction.

Two trust kinds, as in the original: trust in a partner as a *provider*
of service (competence) and trust as a *rater* (credibility of its
recommendations), the latter learned from how its recommendations
matched subsequent experience.

Feedback lives in the columnar :class:`~repro.store.EventStore` (one
overall row plus one row per facet rating); the per-agent partner
models are replayed lazily — the exact scalar reference.  The
recommendation channel has no feedback event behind it, so rater
evidence stays eager (pairs tracked in insertion order, with an epoch
counter restarting the kernel).  ``score_many`` keeps per-(rater,
target) satisfied/total counts over the ascending pair universe, folds
each query's new rows into them, derives the per-pair Laplace
posteriors and pools them once per perspective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel, sorted_union
from repro.store import EventStore, OVERALL_FACET

_EMPTY_I8 = np.zeros(0, dtype=np.int64)
_NO_COUNTS = np.zeros((0, 1))


@dataclass
class _FacetCounts:
    """Satisfied/unsatisfied counts for one facet of one partner."""

    satisfied: float = 0.0
    unsatisfied: float = 0.0

    def update(self, satisfying: bool, weight: float = 1.0) -> None:
        if satisfying:
            self.satisfied += weight
        else:
            self.unsatisfied += weight

    def probability(self, prior: float = 0.5, strength: float = 2.0) -> float:
        """Laplace-style posterior P(satisfying)."""
        total = self.satisfied + self.unsatisfied
        return (self.satisfied + prior * strength) / (total + strength)


@dataclass
class _PartnerModel:
    """One agent's learned model of one partner as a *provider*.

    Rater credibility lives in ``WangVassilevaModel._rater_cred``, not
    here: the recommendation channel is eager while provider evidence
    is replayed lazily, and keeping them separate lets the columnar
    kernel read credibility without forcing a replay.
    """

    overall: _FacetCounts = field(default_factory=_FacetCounts)
    facets: Dict[int, _FacetCounts] = field(default_factory=dict)


class WangVassilevaModel(StoreBackedModel):
    """Per-agent naive-Bayes trust with facet decomposition.

    Args:
        satisfaction_threshold: rating above which an interaction counts
            as satisfying.
        facet_weights: default facet importance for overall trust; when
            None, facets observed in feedback are weighted uniformly.
        recommendation_tolerance: how close a recommendation must be to
            the subsequent experience to count as credible.
    """

    name = "wang_vassileva"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.PERSONALIZED
    )
    paper_ref = "[30, 31]"

    def __init__(
        self,
        satisfaction_threshold: float = 0.5,
        facet_weights: Optional[Mapping[str, float]] = None,
        recommendation_tolerance: float = 0.2,
    ) -> None:
        if not 0.0 <= satisfaction_threshold <= 1.0:
            raise ConfigurationError(
                "satisfaction_threshold must be in [0, 1]"
            )
        if not 0.0 < recommendation_tolerance <= 1.0:
            raise ConfigurationError(
                "recommendation_tolerance must be in (0, 1]"
            )
        self.satisfaction_threshold = satisfaction_threshold
        self.facet_weights = dict(facet_weights) if facet_weights else None
        self.recommendation_tolerance = recommendation_tolerance
        self._store = EventStore()
        #: perspective agent code -> partner code -> learned model;
        #: replayed lazily from feedback rows, mutated eagerly by the
        #: recommendation channel
        self._models: Dict[int, Dict[int, _PartnerModel]] = {}
        #: recommendation-created (agent, recommender) code pairs in
        #: insertion order (a dict, not a set: iteration must be
        #: deterministic) + an epoch counter that restarts the kernel
        self._rec_pairs: Dict[Tuple[int, int], None] = {}
        self._rec_epoch = 0
        #: eager credibility evidence per (agent, recommender) pair —
        #: the recommendation channel has no store rows behind it
        self._rater_cred: Dict[Tuple[int, int], _FacetCounts] = {}
        #: columnar kernel state, kept by the _fold hook: the
        #: ascending (rater, target) pair keys of the store rows and, per
        #: pair, satisfied and total counts by facet column (0 is the
        #: overall rating, facet code f is column f + 1)
        self._pairs = _EMPTY_I8
        self._counts: Tuple[np.ndarray, ...] = (_NO_COUNTS, _NO_COUNTS)
        #: the pooled score arrays computed per perspective code from
        #: the kernel's pair arrays
        self._kernel_scores: Dict[Optional[int], np.ndarray] = {}

    def _model(self, agent: int, partner: int) -> _PartnerModel:
        return self._models.setdefault(agent, {}).setdefault(
            partner, _PartnerModel()
        )

    # -- learning ------------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        """The rater's own experience updates its model of the target:
        one overall store row plus one row per facet rating."""
        store = self._store
        store.append(
            feedback.rater, feedback.target, feedback.rating, feedback.time
        )
        for facet, rating in feedback.facet_ratings.items():
            store.append(
                feedback.rater, feedback.target, rating, feedback.time,
                facet=facet,
            )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        """A :meth:`record` loop: each report's facet rows follow its
        overall row, which a column extend cannot express."""
        for feedback in feedbacks:
            self.record(feedback)

    def _reset_replay(self) -> None:
        # Recommendation-created partner models outlive the replay.
        self._models = {}
        for pair in self._rec_pairs:
            self._model(*pair)

    def _advance(self) -> None:
        """Replay naive-Bayes count accumulation over unconsumed store
        rows — the exact scalar reference."""
        _start, rows = self._replay_rows()
        threshold = self.satisfaction_threshold
        for rater, target, facet, value, _time in rows:
            model = self._model(rater, target)
            if facet == OVERALL_FACET:
                model.overall.update(value > threshold)
            else:
                model.facets.setdefault(
                    facet, _FacetCounts()
                ).update(value > threshold)

    def record_recommendation(
        self,
        agent: EntityId,
        recommender: EntityId,
        recommended_rating: float,
        experienced_rating: float,
    ) -> None:
        """Update *agent*'s rater-trust in *recommender*.

        Credible when the recommendation landed within tolerance of what
        *agent* then experienced.
        """
        intern = self._store.entities.intern
        pair = (intern(agent), intern(recommender))
        credible = (
            abs(recommended_rating - experienced_rating)
            <= self.recommendation_tolerance
        )
        self._rater_cred.setdefault(pair, _FacetCounts()).update(credible)
        # Register the pair as an (empty) partner model so the scalar
        # paths pool over the same pair universe as the columnar kernel:
        # a recommendation-only pair contributes provider trust 0.5 with
        # zero own evidence.
        self._model(*pair)
        self._rec_pairs[pair] = None
        self._rec_epoch += 1

    def _rater_weight(self, agent: int, other: int) -> float:
        """How much *agent* trusts *other* as a rater (0.5 with no
        recommendation history)."""
        cred = self._rater_cred.get((agent, other))
        return cred.probability() if cred is not None else 0.5

    # -- queries (scalar reference) -------------------------------------------
    def _lookup(self, agent: EntityId, partner: EntityId) -> Optional[_PartnerModel]:
        self._advance()
        code = self._store.entities.code
        return self._models.get(code(agent), {}).get(code(partner))

    def _provider_trust(
        self,
        model: Optional[_PartnerModel],
        facet_weights: Optional[Mapping[str, float]] = None,
    ) -> float:
        if model is None:
            return 0.5
        weights = facet_weights or self.facet_weights
        if not model.facets or not weights:
            return model.overall.probability()
        facet_name = self._store.facets.value
        total = 0.0
        weight_sum = 0.0
        for facet, counts in model.facets.items():
            w = weights.get(facet_name(facet), 0.0)
            if w <= 0:
                continue
            total += w * counts.probability()
            weight_sum += w
        if weight_sum <= 0:
            return model.overall.probability()
        return total / weight_sum

    def provider_trust(
        self,
        agent: EntityId,
        partner: EntityId,
        facet_weights: Optional[Mapping[str, float]] = None,
    ) -> float:
        """P(next interaction satisfying), facet-weighted."""
        return self._provider_trust(
            self._lookup(agent, partner), facet_weights
        )

    def rater_trust(self, agent: EntityId, partner: EntityId) -> float:
        """Trust in *partner*'s recommendations (credibility)."""
        code = self._store.entities.code
        return self._rater_weight(code(agent), code(partner))

    def recommendation_weighted_reputation(
        self, agent: EntityId, target: EntityId
    ) -> Optional[float]:
        """Pool other agents' trust in *target*, weighted by how much
        *agent* trusts each of them as a rater."""
        self._advance()
        code = self._store.entities.code
        agent_code = code(agent)
        target_code = code(target)
        total = 0.0
        weight_sum = 0.0
        for other, partners in self._models.items():
            if other == agent_code or target_code not in partners:
                continue
            opinion = self._provider_trust(partners[target_code])
            weight = self._rater_weight(agent_code, other)
            total += weight * opinion
            weight_sum += weight
        if weight_sum <= 0:
            return None
        return total / weight_sum

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        self._advance()
        code = self._store.entities.code
        target_code = code(target)
        if perspective is None:
            # Global fallback: mean of all agents' provider trust.
            opinions = [
                self._provider_trust(partners[target_code])
                for partners in self._models.values()
                if target_code in partners
            ]
            if not opinions:
                return 0.5
            return sum(opinions) / len(opinions)
        model = self._models.get(code(perspective), {}).get(target_code)
        own = self._provider_trust(model)
        own_evidence = (
            model.overall.satisfied + model.overall.unsatisfied
            if model
            else 0.0
        )
        pooled = self.recommendation_weighted_reputation(perspective, target)
        if pooled is None:
            return own
        # Blend: own experience dominates as it accumulates.
        own_weight = own_evidence / (own_evidence + 2.0)
        return own_weight * own + (1.0 - own_weight) * pooled

    # -- columnar kernel -------------------------------------------------------
    def _fold(self, start: int, _rec_epoch: int) -> Dict[str, np.ndarray]:
        """Per-(rater, target) posteriors over the pair universe: the
        store pairs in ascending key order, then recommendation-created
        pairs without store rows in insertion order, with rows
        ``[start, n)`` folded in; a recommendation restarts the fold."""
        store = self._store
        delta = store.columns_from(start)
        if not start:
            self._pairs = _EMPTY_I8
            self._counts = (_NO_COUNTS, _NO_COUNTS)
        # Every report writes an overall row, so the pairs of all rows
        # are the pairs of the overall rows.
        keys = delta.pair_keys()
        self._pairs, counts, at = sorted_union(self._pairs, keys, self._counts)
        columns = len(store.facets) + 1
        grow = columns - counts[0].shape[1]
        if grow > 0:
            counts = tuple(
                np.concatenate((c, np.zeros((len(c), grow))), axis=1)
                for c in counts
            )
        sat, tot = self._counts = counts
        cells = at * columns + delta.facet + 1
        satisfying = delta.value > self.satisfaction_threshold
        np.add.at(sat.reshape(-1), cells, satisfying.astype(np.float64))
        np.add.at(tot.reshape(-1), cells, 1.0)
        trust = (sat[:, 0] + 1.0) / (tot[:, 0] + 2.0)
        if self.facet_weights:
            trust = self._facet_weighted(trust, self.facet_weights)
        pairs, own = self._pairs, tot[:, 0]
        # Recommendation-only pairs: a partner model with empty overall
        # counts — provider trust 0.5, zero own evidence.
        if self._rec_pairs:
            rec = np.fromiter(
                (
                    (np.int64(a) << 32) | np.int64(r)
                    for a, r in self._rec_pairs
                ),
                dtype=np.int64,
                count=len(self._rec_pairs),
            )
            fresh = rec[~np.isin(rec, pairs)]
            if len(fresh):
                pairs = np.concatenate([pairs, fresh])
                trust = np.concatenate([trust, np.full(len(fresh), 0.5)])
                own = np.concatenate([own, np.zeros(len(fresh))])
        self._kernel_scores = {}
        return {
            "pair_rater": pairs >> 32,
            "pair_target": pairs & 0xFFFFFFFF,
            "trust": trust,
            "tot": own,
        }

    def _facet_weighted(
        self, overall_trust: np.ndarray, weights: Mapping[str, float]
    ) -> np.ndarray:
        """Facet-weighted provider trust per pair, falling back to the
        overall posterior for pairs without (weighted) facet evidence."""
        sat, tot = (counts[:, 1:] for counts in self._counts)
        has_facet = (tot > 0).any(axis=1)
        wsum = np.zeros(len(tot))
        wtot = np.zeros(len(tot))
        code_of = self._store.facets.code
        for name, w in weights.items():
            facet = code_of(name)
            if w <= 0 or facet < 0:
                continue
            present = tot[:, facet] > 0
            prob = (sat[present, facet] + 1.0) / (tot[present, facet] + 2.0)
            wsum[present] += w
            wtot[present] += w * prob
        return np.where(
            has_facet & (wsum > 0), wtot / np.maximum(wsum, 1e-300),
            overall_trust,
        )

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch scores: pair-posterior reductions plus one pooling
        bincount per perspective, then a gather per candidate."""
        if not targets:
            return []
        store = self._store
        base = self._kernel(self._rec_epoch)
        persp = (
            None
            if perspective is None
            else store.entities.code(perspective)
        )
        scores = self._kernel_scores.get(persp)
        if scores is None:
            scores = self._pooled_scores(base, persp)
            self._kernel_scores[persp] = scores
        codes = store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        gathered = np.where(known, scores[safe], 0.5)
        result: List[float] = gathered.tolist()
        return result

    def _pooled_scores(
        self, base: Dict[str, np.ndarray], persp: Optional[int]
    ) -> np.ndarray:
        size = max(len(self._store.entities), 1)
        pair_rater = base["pair_rater"]
        pair_target = base["pair_target"]
        trust = base["trust"]
        if persp is None:
            # Global fallback: mean provider trust over rating agents.
            sums = np.bincount(
                pair_target, weights=trust, minlength=size
            )
            counts = np.bincount(pair_target, minlength=size)
            return np.where(
                counts > 0, sums / np.maximum(counts, 1), 0.5
            )
        others = np.unique(pair_rater)
        rater_weight = np.empty(len(others))
        for i, other in enumerate(others.tolist()):
            rater_weight[i] = self._rater_weight(persp, other)
        row_weight = rater_weight[np.searchsorted(others, pair_rater)]
        pooled_rows = pair_rater != persp
        pool_num = np.bincount(
            pair_target[pooled_rows],
            weights=(row_weight * trust)[pooled_rows],
            minlength=size,
        )
        pool_den = np.bincount(
            pair_target[pooled_rows],
            weights=row_weight[pooled_rows],
            minlength=size,
        )
        own_rows = ~pooled_rows
        own_trust = np.full(size, 0.5)
        own_trust[pair_target[own_rows]] = trust[own_rows]
        own_tot = np.zeros(size)
        own_tot[pair_target[own_rows]] = base["tot"][own_rows]
        own_weight = own_tot / (own_tot + 2.0)
        pooled = pool_num / np.maximum(pool_den, 1e-300)
        blended = own_weight * own_trust + (1.0 - own_weight) * pooled
        return np.where(pool_den > 0, blended, own_trust)
