"""Sporas (Zacharia, Moukas & Maes) — centralized / person-agent / global.

Reputation evolves recursively with each new rating:

.. math::

    R_{i+1} = R_i + \\frac{1}{\\theta} \\cdot \\Phi(R_i) \\cdot
              R^{other}_{i+1} \\cdot (W_{i+1} - E_{i+1})

where :math:`E = R_i / D` is the expected rating, :math:`W` the received
rating, :math:`R^{other}` the (normalized) reputation of the rater, and
:math:`\\Phi(R) = 1 - 1/(1 + e^{-(R - D)/\\sigma})` the damping that
slows changes for very reputable users.  Reputation lives in
``[0, D]``; new users start at 0 (so identity-switching cannot help —
the design goal Zacharia emphasizes).

A *reliability deviation* (RD) tracks rating volatility via an
exponentially-weighted squared prediction error.

Events live in the columnar :class:`~repro.store.EventStore`; the
scalar path replays the recursion lazily.  The columnar kernel exploits
that the recursion couples targets only *through raters*: when no
entity is both a rater and a target (the common web-service shape —
consumers rate services), every rater weight is the newcomer floor and
the per-target recursions are independent, so the kernel runs them as
vectorized *rounds* — round k applies every target's k-th rating at
once.  Coupled streams fall back to the base :meth:`score` loop over
the exact scalar replay.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel
from repro.store import EventStore, GroupIndex


class SporasModel(StoreBackedModel):
    """Sporas recursive reputation.

    Args:
        d: maximum reputation (Zacharia uses 3000).
        theta: effective number of ratings remembered (>1).
        sigma: damping slope of :math:`\\Phi`.
        rd_memory: EWMA factor for the reliability deviation.
    """

    name = "sporas"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[37]"

    #: rater-weight floor for newcomers (see :meth:`record`)
    NEWCOMER_FLOOR = 0.1

    def __init__(
        self,
        d: float = 3000.0,
        theta: float = 10.0,
        sigma: Optional[float] = None,
        rd_memory: float = 0.9,
    ) -> None:
        if d <= 0:
            raise ConfigurationError("d must be positive")
        if theta <= 1:
            raise ConfigurationError("theta must be > 1")
        if not 0.0 < rd_memory < 1.0:
            raise ConfigurationError("rd_memory must be in (0, 1)")
        self.d = d
        self.theta = theta
        self.sigma = sigma if sigma is not None else d / 10.0
        if self.sigma <= 0:
            raise ConfigurationError("sigma must be positive")
        self.rd_memory = rd_memory
        self._store = EventStore()
        #: scalar reference state keyed by entity code, replayed lazily
        self._reputation: Dict[int, float] = {}
        self._rd: Dict[int, float] = {}
        self._count: Dict[int, int] = {}

    def _phi(self, reputation: float) -> float:
        return 1.0 - 1.0 / (1.0 + math.exp(-(reputation - self.d) / self.sigma))

    def _reset_replay(self) -> None:
        self._reputation, self._rd, self._count = {}, {}, {}

    def _advance(self) -> None:
        """Replay the Zacharia recursion over unconsumed store rows —
        the exact scalar reference.

        Rater weight: at least a newcomer's influence, normalized to
        [newcomer_floor, 1].  Zacharia multiplies by R_other/D; a pure
        zero would let fresh raters have no effect at bootstrap, so a
        small floor keeps the system live.
        """
        _start, rows = self._replay_rows()
        reputation = self._reputation
        rd = self._rd
        count = self._count
        d = self.d
        inv_theta = 1.0 / self.theta
        rd_memory = self.rd_memory
        floor = self.NEWCOMER_FLOOR
        for rater, target, _facet, value, _time in rows:
            current = reputation.get(target, 0.0)
            rater_weight = max(reputation.get(rater, 0.0) / d, floor)
            expected = current / d
            updated = current + inv_theta * self._phi(current) * (
                rater_weight * d
            ) * (value - expected)
            reputation[target] = max(0.0, min(d, updated))
            error = (value - expected) ** 2
            prev_rd = rd.get(target, 0.25)
            rd[target] = rd_memory * prev_rd + (1 - rd_memory) * error
            count[target] = count.get(target, 0) + 1

    # -- accessors (scalar reference) ----------------------------------
    def _code(self, target: EntityId) -> int:
        return self._store.entities.code(target)

    def reputation(self, target: EntityId) -> float:
        """Raw Sporas reputation on ``[0, D]``."""
        self._advance()
        return self._reputation.get(self._code(target), 0.0)

    def reliability_deviation(self, target: EntityId) -> float:
        """Volatility of *target*'s ratings (lower = more reliable)."""
        self._advance()
        return math.sqrt(self._rd.get(self._code(target), 0.25))

    def ratings_seen(self, target: EntityId) -> int:
        self._advance()
        return self._count.get(self._code(target), 0)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return self.reputation(target) / self.d

    # -- columnar kernel -----------------------------------------------
    def _fold(self, start: int) -> Optional[np.ndarray]:
        """Dense per-code reputations from the vectorized-rounds kernel,
        or ``None`` when the stream couples raters and targets (then the
        exact scalar replay is the only correct evaluation order).

        The kept per-target state takes the rows from *start* on (a
        cold kernel is the fold from row 0).  Raters and targets seen
        so far are two membership masks; the store is append-only, so
        once they intersect the stream stays coupled and the latch
        holds for good.
        """
        store = self._store
        if not start:
            self._coupled = False
            self._state = np.zeros(0)
            self._is_rater = np.zeros(0, dtype=bool)
            self._is_target = np.zeros(0, dtype=bool)
        grow = max(len(store.entities), 1) - len(self._state)
        if grow > 0:
            unseen = np.zeros(grow, dtype=bool)
            self._state = np.concatenate((self._state, np.zeros(grow)))
            self._is_rater = np.concatenate((self._is_rater, unseen))
            self._is_target = np.concatenate((self._is_target, unseen))
        if start < len(store) and not self._coupled:
            delta = store.columns_from(start)
            self._is_rater[delta.rater] = True
            self._is_target[delta.target] = True
            self._coupled = bool(
                self._is_target[delta.rater].any()
                or self._is_rater[delta.target].any()
            )
            if not self._coupled:
                self._sweep(delta.target, delta.value)
        return None if self._coupled else self._state

    def _sweep(self, targets: np.ndarray, values: np.ndarray) -> None:
        """Apply rows to :attr:`_state` in rank rounds.

        Disjoint raters/targets: every rater keeps reputation 0, so
        rater_weight is the constant newcomer floor and targets evolve
        independently.  Group rows by target (stable, so within-group
        order = event order), then sweep rank rounds: round k
        fancy-gathers the state of every target receiving its k-th
        rating, applies the update, and scatters back.
        """
        index = GroupIndex(targets)
        ranks = index.ranks()
        # stable: equal ranks keep index order, i.e. ascending target
        round_order = np.argsort(ranks, kind="stable")
        rows = index.order[round_order]
        round_ranks = ranks[round_order]
        targets_by_round = targets[rows]
        values_by_round = values[rows]
        max_rank = int(round_ranks[-1])
        bounds = np.searchsorted(round_ranks, np.arange(max_rank + 2))
        d = self.d
        gain = (1.0 / self.theta) * (self.NEWCOMER_FLOOR * d)
        inv_sigma = 1.0 / self.sigma
        state = self._state
        for k in range(max_rank + 1):
            lo, hi = int(bounds[k]), int(bounds[k + 1])
            tc = targets_by_round[lo:hi]
            current = state[tc]
            phi = 1.0 - 1.0 / (1.0 + np.exp(-(current - d) * inv_sigma))
            updated = current + gain * phi * (
                values_by_round[lo:hi] - current / d
            )
            np.clip(updated, 0.0, d, out=updated)
            state[tc] = updated

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch reputations from the rounds kernel (gather + divide);
        coupled streams fall back to the base :meth:`score` loop."""
        state = self._kernel()
        if state is None:
            return super().score_many(targets, perspective, now)
        codes = self._store.entities.codes(targets)
        known = codes >= 0
        safe = np.where(known, codes, 0)
        scaled = np.where(known, state[safe], 0.0) / self.d
        result: List[float] = scaled.tolist()
        return result
