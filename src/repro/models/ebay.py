"""eBay's feedback forum — centralized / person-agent / global.

The canonical "simple and effective" global mechanism (paper Sections 4
and 5).  Buyers leave +1 / 0 / −1 feedback; the site shows a cumulative
feedback *score* (sum), a *positive percentage*, and recent-window
breakdowns.  :meth:`score` returns the Laplace-smoothed positive
fraction so the model is comparable to others on ``[0, 1]``.

Each report is a **single** append to the columnar
:class:`~repro.store.EventStore` (the former entry-list + running-totals
dual bookkeeping is gone): the scalar path replays signed counts lazily
off the store rows, recent-window summaries threshold the per-target
time column slice, and ``score_many`` gathers from per-code sign counts
that each query folds the new rows into — all counts are integers, so
every path is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel, fold_into
from repro.store import EventStore

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class FeedbackSummary:
    """What an eBay member page shows."""

    score: int
    positives: int
    neutrals: int
    negatives: int

    @property
    def positive_percentage(self) -> float:
        judged = self.positives + self.negatives
        if judged == 0:
            return 100.0
        return 100.0 * self.positives / judged


class EbayModel(StoreBackedModel):
    """eBay feedback: signed counts with recent-window views.

    Ratings on ``[0, 1]`` are ternarized: above ``positive_threshold``
    counts +1, below ``negative_threshold`` counts −1, else neutral.
    """

    name = "ebay"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[7]"

    def __init__(
        self,
        positive_threshold: float = 2.0 / 3.0,
        negative_threshold: float = 1.0 / 3.0,
    ) -> None:
        if not 0.0 <= negative_threshold < positive_threshold <= 1.0:
            raise ConfigurationError(
                "need 0 <= negative_threshold < positive_threshold <= 1"
            )
        self.positive_threshold = positive_threshold
        self.negative_threshold = negative_threshold
        self._store = EventStore()
        #: scalar reference state keyed by entity code:
        #: [positives, negatives, total], replayed lazily off the store
        self._totals: Dict[int, List[int]] = {}

    def _sign(self, rating: float) -> int:
        if rating > self.positive_threshold:
            return 1
        if rating < self.negative_threshold:
            return -1
        return 0

    def _reset_replay(self) -> None:
        self._totals = {}

    def _advance(self) -> None:
        """Replay signed-count accumulation over unconsumed rows — the
        exact scalar reference (signs re-derived from stored ratings)."""
        _start, rows = self._replay_rows()
        totals = self._totals
        positive_threshold = self.positive_threshold
        negative_threshold = self.negative_threshold
        for _rater, target, _facet, value, _time in rows:
            counts = totals.get(target)
            if counts is None:
                counts = [0, 0, 0]
                totals[target] = counts
            if value > positive_threshold:
                counts[0] += 1
            elif value < negative_threshold:
                counts[1] += 1
            counts[2] += 1

    def _totals_for(self, target: EntityId) -> Tuple[int, int, int]:
        self._advance()
        code = self._store.entities.code(target)
        if code < 0:
            return (0, 0, 0)
        counts = self._totals.get(code)
        if counts is None:
            return (0, 0, 0)
        return (counts[0], counts[1], counts[2])

    # -- member page ---------------------------------------------------
    def summary(
        self,
        target: EntityId,
        window: Optional[float] = None,
        now: Optional[float] = None,
    ) -> FeedbackSummary:
        """The member-page numbers, optionally restricted to a recent
        window (eBay's 1/6/12-month columns)."""
        if window is not None:
            if now is None:
                raise ConfigurationError("window requires now")
            store = self._store
            code = store.entities.code(target)
            rows = store.by_target().rows(code) if code >= 0 else None
            if rows is None or not len(rows):
                positives = negatives = total = 0
            else:
                columns = store.snapshot()
                recent = rows[now - columns.time[rows] <= window]
                values = columns.value[recent]
                positives = int(
                    np.count_nonzero(values > self.positive_threshold)
                )
                negatives = int(
                    np.count_nonzero(values < self.negative_threshold)
                )
                total = len(recent)
        else:
            positives, negatives, total = self._totals_for(target)
        return FeedbackSummary(
            score=positives - negatives,
            positives=positives,
            neutrals=total - positives - negatives,
            negatives=negatives,
        )

    # -- scalar reference ----------------------------------------------
    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        positives, negatives, _total = self._totals_for(target)
        # Laplace smoothing: no evidence scores 0.5.
        return (positives + 1.0) / (positives + negatives + 2.0)

    # -- columnar kernel -----------------------------------------------
    def _fold(self, start: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-code (positives, negatives) counts plus one spare
        zero slot, with rows ``[start, n)`` folded in."""
        store = self._store
        delta = store.columns_from(start)
        return fold_into(
            self._kernel_state if start else (_EMPTY, _EMPTY),
            len(store.entities) + 1,
            delta.target,
            delta.value > self.positive_threshold,
            delta.value < self.negative_threshold,
        )

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch Laplace-smoothed positive fractions from the folded
        sign counts (integers — exact by construction).  An unseen id's
        code is -1, which reads the spare zero slot."""
        positives, negatives = self._kernel()
        codes = self._store.entities.codes(targets)
        pos = positives[codes].astype(np.float64)
        neg = negatives[codes].astype(np.float64)
        result: List[float] = ((pos + 1.0) / (pos + neg + 2.0)).tolist()
        return result
