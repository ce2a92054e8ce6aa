"""Amazon-style review aggregation — centralized / resource / global.

A product page's standing is the mean star rating, with two published
refinements reproduced here: reviews with more *helpful votes* count
more, and recent reviews count more than stale ones.  Ratings on
``[0, 1]`` map to the 1-5 star scale for display.

A review is one row of a columnar :class:`~repro.store.EventStore`
(``record`` is a single append).  Helpful votes arrive later, out of
band, and weight only the reviews that existed when they were cast, so
they are kept beside the store keyed by row id rather than replayed
from it.  The scalar path reads a target's rows through the store's
``by_target`` index; ``score_many`` gathers from per-target weighted
sums that each query folds the new rows into.  The helpfulness ×
recency weights are fixed while ``now`` and the vote epoch (bumped
whenever helpful votes change) stay put; a change of either refolds
every row.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.decay import DecayPolicy, ExponentialDecay
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel, fold_into
from repro.store import EventStore

_EMPTY = np.zeros(0)
_EMPTY_I8 = np.zeros(0, dtype=np.int64)


class AmazonModel(StoreBackedModel):
    """Helpfulness- and recency-weighted mean rating.

    Args:
        decay: recency weighting of reviews (default: half-life 200).
        helpfulness_weight: extra weight per helpful vote; a review's
            weight is ``1 + helpfulness_weight * votes``.
    """

    name = "amazon"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.GLOBAL
    )
    paper_ref = "[2]"

    def __init__(
        self,
        decay: Optional[DecayPolicy] = None,
        helpfulness_weight: float = 0.25,
    ) -> None:
        if helpfulness_weight < 0:
            raise ConfigurationError("helpfulness_weight must be >= 0")
        self.decay = decay or ExponentialDecay(half_life=200.0)
        self.helpfulness_weight = helpfulness_weight
        self._store = EventStore()
        #: helpful votes per review, keyed by store row; unvoted rows
        #: are absent
        self._votes: Dict[int, int] = {}
        #: bumped whenever helpful votes change (restarts the kernel fold)
        self._votes_epoch = 0
        #: folded (num, den, count) arrays as of the "kernel" reader's
        #: last read
        self._kernel: Tuple[np.ndarray, ...] = (_EMPTY, _EMPTY, _EMPTY_I8)

    def _rows(self, target: EntityId) -> np.ndarray:
        """Store rows of *target*'s reviews, in append order."""
        code = self._store.entities.code(target)
        if code < 0:
            return np.empty(0, dtype=np.int64)
        return self._store.by_target().rows(code)

    def vote_helpful(
        self, target: EntityId, rater: EntityId, votes: int = 1
    ) -> None:
        """Add helpful votes to *rater*'s reviews of *target*."""
        if votes < 0:
            raise ConfigurationError("votes must be >= 0")
        rows = self._rows(target)
        if len(rows):
            by_rater = self._store.snapshot().rater[rows]
            mine = rows[by_rater == self._store.entities.code(rater)]
            for row in mine.tolist():
                self._votes[row] = self._votes.get(row, 0) + votes
        self._votes_epoch += 1

    def review_count(self, target: EntityId) -> int:
        return len(self._rows(target))

    def star_rating(
        self, target: EntityId, now: Optional[float] = None
    ) -> Optional[float]:
        """Display rating on the 1-5 star scale; None without reviews."""
        if not self.review_count(target):
            return None
        return 1.0 + 4.0 * self.score(target, now=now)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        rows = self._rows(target)
        if not len(rows):
            return 0.5
        columns = self._store.snapshot()
        votes = self._votes
        weights = 1.0 + self.helpfulness_weight * np.array(
            [votes.get(row, 0) for row in rows.tolist()], dtype=float
        )
        if now is not None:
            ages = now - columns.time[rows]
            weights = weights * self.decay.weights(np.maximum(ages, 0.0))
        ratings = columns.value[rows]
        weight_sum = float(weights.sum())
        if weight_sum <= 0:
            return 0.5
        return float(weights @ ratings) / weight_sum

    # -- columnar kernel -----------------------------------------------
    def _kernel_arrays(
        self, now: Optional[float]
    ) -> Tuple[np.ndarray, ...]:
        """Per-code (weighted sum, weight sum, review count) plus one
        spare zero slot, folded from the rows appended since the last
        call.  A moved *now* reweighs every row and a vote epoch change
        reweighs the voted ones, so either restarts the fold from row
        0; a vote reaches only rows that existed when it was cast, so
        rows folded at an unchanged epoch carry none."""
        start, stop = self._unread_rows("kernel", (now, self._votes_epoch))
        if start and start == stop:
            return self._kernel
        store = self._store
        delta = store.columns_from(start)
        votes = np.zeros(stop - start)
        if not start and self._votes:
            votes[list(self._votes)] = list(self._votes.values())
        weights = 1.0 + self.helpfulness_weight * votes
        if now is not None:
            ages = np.maximum(now - delta.time, 0.0)
            weights = weights * self.decay.weights(ages)
        self._kernel = fold_into(
            self._kernel if start else (_EMPTY, _EMPTY, _EMPTY_I8),
            len(store.entities) + 1,
            delta.target,
            weights * delta.value,
            weights,
            1,
        )
        return self._kernel

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch weighted means from one pass over the store columns."""
        num, den, count = self._kernel_arrays(now)
        codes = self._store.entities.codes(targets)
        cnt = count[codes]
        weight_sum = den[codes]
        usable = (cnt > 0) & (weight_sum > 0)
        scores = np.where(
            usable, num[codes] / np.where(usable, weight_sum, 1.0), 0.5
        )
        result: List[float] = scores.tolist()
        return result
