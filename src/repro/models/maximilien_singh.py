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
from repro.models.base import StoreBackedModel, fold_into
from repro.store import EventStore, OVERALL_FACET

_EMPTY = np.zeros(0)
_EMPTY_I8 = np.zeros(0, dtype=np.int64)
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
        """Decay-weighted sums for every service and every (service,
        facet) group, with rows ``[start, n)`` folded in.  A moved *now*
        reweighs every row, so it restarts the fold from row 0."""
        store = self._store
        delta = store.columns_from(start)
        arrays = self._kernel_state if start else _KernelArrays()
        if now is not None:
            weights = self.decay.weights(np.maximum(now - delta.time, 0.0))
        else:
            weights = np.ones(delta.n)
        overall = delta.facet == OVERALL_FACET
        o_value = delta.value[overall]
        o_weight = weights[overall]
        arrays.overall = fold_into(
            arrays.overall,
            len(store.entities) + 1,
            delta.target[overall],
            o_weight * o_value,
            o_weight,
            o_value,
            1,
        )
        facet_rows = ~overall
        groups, inverse = np.unique(
            delta.target_facet_keys()[facet_rows], return_inverse=True
        )
        slots = np.array(
            [arrays.slot(group, store) for group in groups.tolist()],
            dtype=np.int64,
        )
        f_value = delta.value[facet_rows]
        f_weight = weights[facet_rows]
        arrays.facet = fold_into(
            arrays.facet,
            len(arrays.slots),
            slots[inverse],
            f_weight * f_value,
            f_weight,
            f_value,
            1,
        )
        return arrays

    def _facet_blend(
        self,
        facet_sums: Tuple[list, ...],
        slot: Optional[int],
        claim: Optional[float],
    ) -> float:
        """:meth:`facet_reputation` over the precomputed group sums
        (*facet_sums* as Python lists).  A community-backed value comes
        back as a numpy float64, the type the array reads give it:
        Python 3.12's ``sum`` compensates exact floats only, so a mean
        over these values rounds by their type."""
        if slot is None:
            community = None
            evidence = 0
        else:
            f_num, f_den, f_plain, f_cnt = facet_sums
            evidence = f_cnt[slot]
            if f_den[slot] > 0:
                community = f_num[slot] / f_den[slot]
            else:
                community = f_plain[slot] / evidence
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

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch scores over precomputed per-(service, facet) means.

        The column pass replaces the per-history array building of
        :meth:`score`; the claim/preference blending mirrors the scalar
        control flow exactly (same facet iteration order), over the
        sums read into Python lists once per call.
        """
        arrays = self._kernel(now)
        weights = (
            self._preferences.get(perspective) if perspective else None
        )
        o_num, o_den, o_plain, o_cnt = (a.tolist() for a in arrays.overall)
        facet_sums = tuple(a.tolist() for a in arrays.facet)
        codes = self._store.entities.codes(targets)
        results: List[float] = []
        for target, code in zip(targets, codes.tolist()):
            slots = dict(arrays.facet_groups.get(code, ()))
            claims = self._claims.get(target, {})
            facets = set(slots) | set(claims)
            if not facets:
                if o_cnt[code] == 0:
                    results.append(0.5)
                elif o_den[code] > 0:
                    results.append(o_num[code] / o_den[code])
                else:
                    results.append(o_plain[code] / o_cnt[code])
                continue
            if weights:
                total = 0.0
                weight_sum = 0.0
                for facet in sorted(facets):
                    w = weights.get(facet, 0.0)
                    if w <= 0:
                        continue
                    total += w * self._facet_blend(
                        facet_sums, slots.get(facet), claims.get(facet)
                    )
                    weight_sum += w
                if weight_sum > 0:
                    results.append(float(total / weight_sum))
                    continue
            results.append(
                float(
                    safe_mean(
                        (
                            self._facet_blend(
                                facet_sums, slots.get(f), claims.get(f)
                            )
                            for f in sorted(facets)
                        ),
                        default=0.5,
                    )
                )
            )
        return results


_SUMS = (_EMPTY, _EMPTY, _EMPTY, _EMPTY_I8)


@dataclass
class _KernelArrays:
    """Folded sums backing :meth:`MaximilienSinghModel.score_many`:
    ``(weighted sum, weight sum, plain sum, count)``.

    ``overall`` is indexed by service entity code, with one spare zero
    slot that the code -1 of an unseen id reads; ``facet`` by the slot
    of each (service, facet) group, numbered in order of first
    appearance.  ``slots`` maps a group's target-facet key to its slot
    and ``facet_groups`` a service code to its ``(facet name, slot)``
    pairs.
    """

    overall: Tuple[np.ndarray, ...] = _SUMS
    facet: Tuple[np.ndarray, ...] = _SUMS
    slots: Dict[int, int] = field(default_factory=dict)
    facet_groups: Dict[int, List[Tuple[str, int]]] = field(
        default_factory=dict
    )

    def slot(self, group: int, store: EventStore) -> int:
        """The slot of target-facet key *group*, numbered on first sight."""
        slot = self.slots.get(group)
        if slot is None:
            slot = self.slots[group] = len(self.slots)
            self.facet_groups.setdefault(group >> 32, []).append(
                (store.facets.value((group & 0xFFFFFFFF) - 1), slot)
            )
        return slot
