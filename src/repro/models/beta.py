"""Beta-distribution reputation (Jøsang & Ismail's baseline family).

Not a Figure 4 leaf itself, but the primitive several surveyed systems
reduce to and the "simple global mechanism" the paper's Section 5 says
suffices for services that need no personalization (currency converters,
weather forecasts).  Evidence is accumulated as pseudo-counts
``(alpha, beta)``; the score is the expected value of the Beta posterior.

A *forgetting factor* ``lam`` (Jøsang's longevity) discounts old
evidence multiplicatively on every update, giving the model the
"dynamic" characteristic of Section 3 without storing histories.

Storage is the columnar :class:`~repro.store.EventStore`: ``record`` is
a single store append, the scalar path lazily replays the original
per-event recursion off the store rows (the exact reference), and
``score_many`` reduces the target column with ``np.bincount``.  For
``lam == 1`` the segment sum performs the same additions in the same
order as the recursion, so the two paths agree bitwise; for ``lam < 1``
the kernel evaluates the recursion's closed form.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel, check_unit_ratings
from repro.store import EventStore, group_counts, group_sums


class BetaReputation(ReputationModel):
    """Beta reputation with multiplicative forgetting.

    Args:
        prior_alpha / prior_beta: pseudo-counts of the uniform prior.
        lam: forgetting factor in ``(0, 1]``; 1.0 never forgets.
    """

    name = "beta"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.GLOBAL
    )
    paper_ref = "[11] (survey baseline)"

    def __init__(
        self,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
        lam: float = 1.0,
    ) -> None:
        if prior_alpha <= 0 or prior_beta <= 0:
            raise ConfigurationError("priors must be positive")
        if not 0.0 < lam <= 1.0:
            raise ConfigurationError("lam must be in (0, 1]")
        self.prior_alpha = prior_alpha
        self.prior_beta = prior_beta
        self.lam = lam
        self._store = EventStore()
        #: scalar reference state keyed by entity code, advanced lazily
        #: over store rows (`_replay_pos` = rows consumed so far)
        self._evidence: Dict[int, Tuple[float, float]] = {}
        self._replay_pos = 0
        #: columnar kernel cache: (store version, alpha, beta) arrays
        self._kernel: Optional[Tuple[int, np.ndarray, np.ndarray]] = None

    # -- evidence ------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        self._store.append(
            feedback.rater, feedback.target, feedback.rating, feedback.time
        )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        self._store.extend(*feedback_columns(feedbacks))

    def ingest_columns(
        self,
        names: Sequence[EntityId],
        raters: ArrayLike,
        targets: ArrayLike,
        ratings: ArrayLike,
        times: ArrayLike,
    ) -> None:
        check_unit_ratings(ratings)
        self._store.extend_coded(names, raters, targets, ratings, times)

    def _advance(self) -> None:
        """Replay the original per-event recursion over rows the scalar
        state has not consumed yet — the exact reference path."""
        store = self._store
        n = len(store)
        if self._replay_pos == n:
            return
        evidence = self._evidence
        lam = self.lam
        zero = (0.0, 0.0)
        # reprolint: disable=R007 — scalar reference is the per-row replay
        for _rater, target, _facet, value, _time in store.iter_rows(
            self._replay_pos
        ):
            alpha, beta = evidence.get(target, zero)
            evidence[target] = (
                lam * alpha + value,
                lam * beta + (1.0 - value),
            )
        self._replay_pos = n

    def _evidence_for(self, target: EntityId) -> Tuple[float, float]:
        self._advance()
        code = self._store.entities.code(target)
        if code < 0:
            return (0.0, 0.0)
        return self._evidence.get(code, (0.0, 0.0))

    # -- scalar reference ----------------------------------------------
    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        alpha, beta = self._evidence_for(target)
        a = alpha + self.prior_alpha
        b = beta + self.prior_beta
        return a / (a + b)

    # -- columnar kernel -----------------------------------------------
    def _kernel_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-code (alpha, beta) mass reduced from the store
        columns, cached per store version."""
        store = self._store
        version = store.version
        cached = self._kernel
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        columns = store.snapshot()
        size = max(len(store.entities), 1)
        if self.lam == 1.0:
            # bincount adds weights in row order — exactly the additions
            # the recursion performs when nothing is forgotten.
            alpha = group_sums(columns.target, size, columns.value)
            beta = (
                group_counts(columns.target, size).astype(np.float64) - alpha
            )
        else:
            # Closed form of the recursion: the k-th rating of a target
            # (0-based, n per group) carries weight lam**(n - 1 - k).
            index = store.by_target()
            sizes = index.group_sizes()
            per_row_size = np.repeat(sizes, sizes)
            exponents = per_row_size - 1 - index.ranks()
            weights = np.power(self.lam, exponents.astype(np.float64))
            rows = index.order
            targets = columns.target[rows]
            values = columns.value[rows]
            alpha = group_sums(targets, size, weights * values)
            beta = group_sums(targets, size, weights * (1.0 - values))
        self._kernel = (version, alpha, beta)
        return alpha, beta

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch posterior means: one segment reduction plus a gather."""
        alpha, beta = self._kernel_arrays()
        codes = self._store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        a = np.where(known, alpha[safe], 0.0) + self.prior_alpha
        b = np.where(known, beta[safe], 0.0) + self.prior_beta
        result: List[float] = (a / (a + b)).tolist()
        return result

    # -- accessors -----------------------------------------------------
    def evidence(self, target: EntityId) -> Tuple[float, float]:
        """Raw accumulated (positive, negative) evidence mass."""
        return self._evidence_for(target)

    def confidence(self, target: EntityId) -> float:
        """Evidence mass mapped to ``[0, 1)``: n / (n + 2)."""
        alpha, beta = self._evidence_for(target)
        n = alpha + beta
        return n / (n + 2.0)
