"""Maximilien & Singh's agent-based service reputation — centralized /
resource / personalized.

Their conceptual model: reputation attaches to each **QoS facet** of a
service (the ontology's quality attributes), with an aggregate computed
against the *consumer's* preferences — so the same evidence yields
different selection scores for consumers who weigh facets differently.
Provider *advertisements* participate too: a facet's effective value
blends community reputation with the provider's claim, with the claim's
weight shrinking as evidence accumulates (and a persistent mismatch
between claims and reputation damping the provider's say further).

Explorer agents (their multiagent paper) integrate via
:class:`~repro.services.monitoring.ExplorerAgentPool`, which files
feedback straight into this model's :meth:`record`.

``record`` appends every report to a columnar
:class:`~repro.store.EventStore` — one overall row plus one row per
facet rating — and nothing else: the per-facet histories of the scalar
path are replayed lazily off those rows (claims and preferences arrive
out of band and are kept as given).  ``score_many`` replaces the
per-history scans with decay-weighted sums per service and per
(service, facet) group, which each query folds the new rows into (a
moved ``now`` refolds every row); the claim / preference blending stays
per-candidate Python over those sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.records import Feedback
from repro.core.decay import DecayPolicy, ExponentialDecay
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel
from repro.store import EventStore, OVERALL_FACET

_F64 = np.float64


@dataclass
class _FacetHistory:
    times: list = field(default_factory=list)
    ratings: list = field(default_factory=list)

    def add(self, time: float, rating: float) -> None:
        self.times.append(time)
        self.ratings.append(rating)

    def weighted_mean(
        self, decay: DecayPolicy, now: Optional[float]
    ) -> Optional[float]:
        if not self.ratings:
            return None
        if now is None:
            return safe_mean(self.ratings)
        ages = now - np.asarray(self.times, dtype=float)
        weights = decay.weights(np.maximum(ages, 0.0))
        weight_sum = float(weights.sum())
        if weight_sum <= 0:
            return safe_mean(self.ratings)
        return float(weights @ np.asarray(self.ratings, dtype=float)) / weight_sum

    def __len__(self) -> int:
        return len(self.ratings)


class MaximilienSinghModel(StoreBackedModel):
    """Per-facet reputation with advertisement blending.

    Args:
        decay: recency weighting of facet ratings.
        claim_evidence_scale: evidence count at which the provider's
            claim has lost half its weight in the blend.
    """

    name = "maximilien_singh"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[18-21]"

    def __init__(
        self,
        decay: Optional[DecayPolicy] = None,
        claim_evidence_scale: float = 5.0,
    ) -> None:
        if claim_evidence_scale <= 0:
            raise ConfigurationError("claim_evidence_scale must be positive")
        self.decay = decay or ExponentialDecay(half_life=100.0)
        self.claim_evidence_scale = claim_evidence_scale
        #: service code -> facet -> history, and service code -> overall
        #: history: the scalar path's state, replayed lazily off the store
        self._facets: Dict[int, Dict[str, _FacetHistory]] = {}
        self._overall: Dict[int, _FacetHistory] = {}
        #: service -> facet -> provider claim
        self._claims: Dict[EntityId, Dict[str, float]] = {}
        #: consumer -> facet preference weights
        self._preferences: Dict[EntityId, Dict[str, float]] = {}
        self._store = EventStore()

    # -- ontology inputs ------------------------------------------------
    def register_advertisement(
        self, service: EntityId, claims: Mapping[str, float]
    ) -> None:
        """Store the provider's per-facet QoS claims."""
        for facet, value in claims.items():
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"claim for {facet!r} must be in [0, 1]"
                )
        self._claims[service] = dict(claims)

    def set_preferences(
        self, consumer: EntityId, weights: Mapping[str, float]
    ) -> None:
        """A consumer expresses facet importance via the ontology."""
        self._preferences[consumer] = dict(weights)

    # -- evidence ------------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
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
        self._facets, self._overall = {}, {}

    def _advance(self) -> None:
        """Replay the per-facet histories over unconsumed store rows —
        the scalar reference's state."""
        _start, rows = self._replay_rows()
        facet_name = self._store.facets.value
        for _rater, target, facet, value, time in rows:
            if facet == OVERALL_FACET:
                history = self._overall.setdefault(target, _FacetHistory())
            else:
                history = self._facets.setdefault(target, {}).setdefault(
                    facet_name(facet), _FacetHistory()
                )
            history.add(time, value)

    # -- queries --------------------------------------------------------------
    def facet_reputation(
        self, service: EntityId, facet: str, now: Optional[float] = None
    ) -> float:
        """Community + claim blend for one facet of *service*."""
        self._advance()
        code = self._store.entities.code(service)
        history = self._facets.get(code, {}).get(facet)
        claim = self._claims.get(service, {}).get(facet)
        community = (
            history.weighted_mean(self.decay, now) if history else None
        )
        evidence = len(history) if history else 0
        if community is None and claim is None:
            return 0.5
        if community is None:
            assert claim is not None
            return claim
        if claim is None:
            return community
        claim_weight = self.claim_evidence_scale / (
            self.claim_evidence_scale + evidence
        )
        # Providers whose claims diverge from observed reality lose say.
        mismatch = abs(claim - community)
        claim_weight *= max(0.0, 1.0 - mismatch)
        return claim_weight * claim + (1.0 - claim_weight) * community

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        weights = (
            self._preferences.get(perspective) if perspective else None
        )
        self._advance()
        code = self._store.entities.code(target)
        facets = set(self._facets.get(code, {})) | set(
            self._claims.get(target, {})
        )
        if not facets:
            history = self._overall.get(code)
            if history is None:
                return 0.5
            value = history.weighted_mean(self.decay, now)
            return 0.5 if value is None else value
        if weights:
            total = 0.0
            weight_sum = 0.0
            for facet in sorted(facets):
                w = weights.get(facet, 0.0)
                if w <= 0:
                    continue
                total += w * self.facet_reputation(target, facet, now)
                weight_sum += w
            if weight_sum > 0:
                return total / weight_sum
        return safe_mean(
            (self.facet_reputation(target, f, now) for f in sorted(facets)),
            default=0.5,
        )

    # -- columnar kernel -----------------------------------------------
    def _fold(self, start: int, now: Optional[float]) -> "_KernelArrays":
        """Decay-weighted sums for every (service, facet) cell, overall
        rows in facet column 0, with rows ``[start, n)`` folded in.  A
        moved *now* reweighs every row, so it restarts the fold from row
        0.  The kept scores of the services these rows touch are
        dropped."""
        store = self._store
        delta = store.columns_from(start)
        arrays = self._kernel_state if start else _KernelArrays()
        if now is not None:
            weights = self.decay.weights(np.maximum(now - delta.time, 0.0))
        else:
            weights = np.ones(delta.n)
        sums = arrays.sums
        size, width = len(store.entities), len(store.facets) + 1
        if sums.shape[0] < size or sums.shape[1] < width:
            grown = np.zeros((size, width, 4))
            grown[: sums.shape[0], : sums.shape[1]] = sums
            sums = arrays.sums = grown
        value = delta.value
        # One unbuffered add of the four sums per row, in row order.
        np.add.at(
            sums,
            (delta.target, delta.facet + 1),
            np.array((weights * value, weights, value, np.ones(delta.n))).T,
        )
        if arrays.scores:
            for code in dict.fromkeys(delta.target.tolist()):
                arrays.scores.pop(code, None)
        return arrays

    def _facet_blend(
        self, sums: Optional[List[float]], claim: Optional[float]
    ) -> float:
        """:meth:`facet_reputation` over one cell's sums (a Python list,
        ``None`` without evidence).  A community-backed value comes back
        as a numpy float64, the type the array reads give it: Python
        3.12's ``sum`` compensates exact floats only, so a mean over
        these values rounds by their type."""
        if sums is None:
            community = None
            evidence = 0.0
        else:
            f_num, f_den, f_plain, evidence = sums
            if f_den > 0:
                community = f_num / f_den
            else:
                community = f_plain / evidence
        if community is None and claim is None:
            return 0.5
        if community is None:
            assert claim is not None
            return claim
        if claim is None:
            return _F64(community)
        claim_weight = self.claim_evidence_scale / (
            self.claim_evidence_scale + evidence
        )
        claim_weight *= max(0.0, 1.0 - abs(claim - community))
        return _F64(claim_weight * claim + (1.0 - claim_weight) * community)

    def _kernel_score(
        self,
        arrays: "_KernelArrays",
        target: EntityId,
        code: int,
        weights: Optional[Mapping[str, float]],
    ) -> float:
        """:meth:`score` of *target* over its folded cells, in its
        control flow (same facet iteration order)."""
        rows = (
            arrays.sums[code].tolist() if 0 <= code < len(arrays.sums) else []
        )
        facet_name = self._store.facets.value
        cells = {
            facet_name(column - 1): sums
            for column, sums in enumerate(rows)
            if column and sums[3] > 0
        }
        claims = self._claims.get(target, {})
        facets = set(cells) | set(claims)
        if not facets:
            if not rows or rows[0][3] == 0:
                return 0.5
            num, den, plain, count = rows[0]
            return num / den if den > 0 else plain / count
        if weights:
            total = 0.0
            weight_sum = 0.0
            for facet in sorted(facets):
                w = weights.get(facet, 0.0)
                if w <= 0:
                    continue
                total += w * self._facet_blend(
                    cells.get(facet), claims.get(facet)
                )
                weight_sum += w
            if weight_sum > 0:
                return float(total / weight_sum)
        return float(
            safe_mean(
                (
                    self._facet_blend(cells.get(f), claims.get(f))
                    for f in sorted(facets)
                ),
                default=0.5,
            )
        )

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch scores over the folded cell sums.

        The column pass replaces the per-history array building of
        :meth:`score`.  A score without preferences depends only on the
        service's cells and claims, so it is kept per service code until
        a fold touches the service or its claims object is replaced.
        """
        arrays = self._kernel(now)
        weights = (
            self._preferences.get(perspective) if perspective else None
        )
        kept = arrays.scores
        results: List[float] = []
        codes = self._store.entities.codes(targets).tolist()
        for target, code in zip(targets, codes):
            claims = self._claims.get(target)
            if not weights:
                hit = kept.get(code)
                if hit is not None and hit[0] is claims:
                    results.append(hit[1])
                    continue
            score = self._kernel_score(arrays, target, code, weights)
            if not weights:
                kept[code] = (claims, score)
            results.append(score)
        return results


@dataclass
class _KernelArrays:
    """Folded sums backing :meth:`MaximilienSinghModel.score_many`.

    ``sums[code, facet + 1]`` holds ``(weighted sum, weight sum, plain
    sum, count)`` of one service's rows of one facet; column 0 is the
    overall rows (facet code -1).  No float sum runs across cells, and
    the array grows with both interners.  ``scores`` keeps each service
    code's score without preferences, with the claims object it read.
    """

    sums: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 4)))
    scores: Dict[int, Tuple[Optional[Dict[str, float]], float]] = field(
        default_factory=dict
    )
