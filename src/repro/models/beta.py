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
``score_many`` gathers from per-code evidence arrays.  For ``lam == 1``
those arrays are a fold: each query adds only the rows appended since
the last one, performing the same additions in the same order as the
recursion, so the two paths agree bitwise; for ``lam < 1`` the kernel
evaluates the recursion's closed form over the whole store.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel, fold_into
from repro.store import EventStore, group_sums

_EMPTY = np.zeros(0)


class BetaReputation(StoreBackedModel):
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
        #: over the store rows the replay has not consumed
        self._evidence: Dict[int, Tuple[float, float]] = {}
        #: for lam == 1, the folded per-code (alpha, count) sums
        self._alpha = self._count = _EMPTY

    def _reset_replay(self) -> None:
        self._evidence = {}

    def _advance(self) -> None:
        """Replay the original per-event recursion over rows the scalar
        state has not consumed yet — the exact reference path."""
        _start, rows = self._replay_rows()
        evidence = self._evidence
        lam = self.lam
        zero = (0.0, 0.0)
        for _rater, target, _facet, value, _time in rows:
            alpha, beta = evidence.get(target, zero)
            evidence[target] = (
                lam * alpha + value,
                lam * beta + (1.0 - value),
            )

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
    def _fold(self, start: int) -> Tuple[np.ndarray, np.ndarray]:
        """Dense per-code (alpha, beta) evidence mass plus one spare zero
        slot.  ``lam == 1`` adds rows ``[start, n)`` into the kept
        per-code (alpha, count) sums; ``start == 0`` folds from zero.
        Every addition is one the recursion performs when nothing is
        forgotten, in the same order (:func:`fold_into`)."""
        if self.lam != 1.0:
            return self._closed_form()
        store = self._store
        kept = (self._alpha, self._count) if start else (_EMPTY, _EMPTY)
        delta = store.columns_from(start)
        self._alpha, self._count = fold_into(
            kept, len(store.entities) + 1, delta.target, delta.value, 1.0
        )
        return self._alpha, self._count - self._alpha

    def _closed_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """``lam < 1``: the recursion's closed form over every row.  The
        k-th rating of a target (0-based, n per group) carries weight
        lam**(n - 1 - k), so every weight moves when a group grows and
        there is nothing to fold."""
        store = self._store
        columns = store.snapshot()
        size = len(store.entities) + 1
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
        return alpha, beta

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch posterior means: a gather from the evidence arrays.  An
        unseen id's code is -1, which reads the spare zero slot."""
        alpha, beta = self._kernel()
        codes = self._store.entities.codes(targets)
        a = alpha[codes] + self.prior_alpha
        b = beta[codes] + self.prior_beta
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
