"""PeerTrust (Xiong & Liu) — decentralized / person-agent / global.

The general trust metric (their eq. 3):

.. math::

    T(u) = \\alpha \\cdot
           \\frac{\\sum_i S(u,i) \\cdot Cr(p(u,i)) \\cdot TF(u,i)}
                {\\sum_i Cr(p(u,i)) \\cdot TF(u,i)}
           + \\beta \\cdot CF(u)

with five factors: per-transaction **satisfaction** S, **credibility**
Cr of the rater, **transaction context** TF (e.g. transaction size),
an additive **community context** CF (e.g. rewarding peers who file
feedback), and the weights α, β.

Both published credibility measures are implemented:

* **PSM** — peer-feedback similarity: Cr(v) from the similarity of v's
  rating vector to the evaluator's over commonly-rated peers (robust to
  collusion: colluders' skewed vectors diverge from honest ones);
* **TVM** — trust-value: Cr(v) is v's own (recursively damped) trust.

Events live in the columnar :class:`~repro.store.EventStore` (one
append per report; the transaction-context factor, which needs the
interaction object, is captured eagerly in a row-aligned side column).
The scalar path replays the transaction/filed structures lazily — the
exact reference.  ``score_many`` is a columnar kernel over state that
each query folds the new rows into: every target's last ``window``
rows (rebuilt with one lexsort once the store's times stop being
monotone), the PSM rating vectors as pair-key sums, and the TVM
recursion as per-depth vectorized sweeps over all entities at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.common.simtime import from_ticks, ticks_array, to_ticks
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import (
    ReputationModel,
    StoreBackedModel,
    fold_into,
    sorted_union,
)
from repro.store import ColumnSet, EventStore, GroupIndex

_EMPTY = np.zeros(0)
_EMPTY_I8 = np.zeros(0, dtype=np.int64)
#: an empty transaction window: int64 rows (target, rater, rank of the
#: row among its target's rows) and float64 rows (satisfaction, context)
_NO_WINDOW = (np.zeros((3, 0), dtype=np.int64), np.zeros((2, 0)))


class CredibilityMeasure(enum.Enum):
    PSM = "feedback_similarity"
    TVM = "trust_value"


@dataclass(frozen=True)
class _Transaction:
    rater: EntityId
    satisfaction: float
    context: float
    time: float


def _transaction_context(feedback: Feedback) -> float:
    """TF: successful, observation-rich interactions weigh more than
    thin ones; reports without a backing interaction weigh 1."""
    if feedback.interaction is None:
        return 1.0
    return 0.5 + 0.5 * min(
        1.0, len(feedback.interaction.observations) / 3.0
    )


class PeerTrustModel(StoreBackedModel):
    """PeerTrust's five-factor metric.

    Args:
        credibility: PSM (default, collusion-resistant) or TVM.
        alpha / beta: weights of the satisfaction term and the community
            context term (alpha + beta should be 1).
        window: number of most recent transactions evaluated.
        tvm_depth: recursion damping for the TVM measure.
    """

    name = "peertrust"
    typology = Typology(
        Architecture.DECENTRALIZED, Subject.PERSON_AGENT, Scope.GLOBAL
    )
    paper_ref = "[33]"

    def __init__(
        self,
        credibility: CredibilityMeasure = CredibilityMeasure.PSM,
        alpha: float = 0.9,
        beta: float = 0.1,
        window: int = 50,
        tvm_depth: int = 2,
    ) -> None:
        if alpha < 0 or beta < 0 or alpha + beta <= 0:
            raise ConfigurationError("alpha/beta must be non-negative, sum > 0")
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        if tvm_depth < 0:
            raise ConfigurationError("tvm_depth must be >= 0")
        self.credibility = credibility
        self.alpha = alpha
        self.beta = beta
        self.window = window
        self.tvm_depth = tvm_depth
        #: int64 tick times end to end — the shard exchange format —
        #: so replayed windows never round-trip through float.
        self._store = EventStore(time_dtype="int64")
        #: row-aligned transaction-context column (TF needs the
        #: interaction object, so it is captured at record time)
        self._ctx: List[float] = []
        #: scalar reference state keyed by entity code, replayed lazily:
        #: target -> [(rater, satisfaction, context, time), ...]
        self._tx: Dict[int, List[Tuple[int, float, float, float]]] = {}
        #: rater -> subject -> filed satisfactions (for PSM)
        self._filed: Dict[int, Dict[int, List[float]]] = {}
        self._filed_count: Dict[int, int] = {}
        #: columnar kernel state, kept by the _fold hook: the
        #: ascending (rater, subject) pair keys with their rating sums
        #: and counts, reports filed per code, rows per target, and the
        #: last ``window`` rows of every target (see _NO_WINDOW)
        self._pairs = _EMPTY_I8
        self._pair_sums: Tuple[np.ndarray, ...] = (_EMPTY, _EMPTY)
        self._counts: Tuple[np.ndarray, ...] = (_EMPTY_I8, _EMPTY_I8)
        self._window: Tuple[np.ndarray, ...] = _NO_WINDOW
        #: the pair universe and code count the pair codes below were
        #: derived for, and those codes (see _pair_codes)
        self._codes_key: Tuple[Optional[np.ndarray], int] = (None, 0)
        self._codes: Tuple[np.ndarray, ...] = ()
        #: the trust arrays computed per perspective code from the
        #: perspective-independent kernel state
        self._kernel_scores: Dict[Optional[int], np.ndarray] = {}

    # -- evidence ----------------------------------------------------------
    def record(self, feedback: Feedback) -> None:
        self._ctx.append(_transaction_context(feedback))
        self._store.append(
            feedback.rater,
            feedback.target,
            feedback.rating,
            to_ticks(feedback.time),
        )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        batch = list(feedbacks)
        self._ctx.extend(_transaction_context(fb) for fb in batch)
        raters, targets, values, times = feedback_columns(batch)
        self._store.extend(raters, targets, values, ticks_array(times))

    #: coded rows are decoded into Feedback, so each one gets its
    #: transaction context and its tick time like a record_many row
    ingest_columns = ReputationModel.ingest_columns

    def _reset_replay(self) -> None:
        self._tx, self._filed, self._filed_count = {}, {}, {}

    def _advance(self) -> None:
        """Replay transaction/filed accumulation over unconsumed store
        rows — the exact scalar reference."""
        row, rows = self._replay_rows()
        tx = self._tx
        filed = self._filed
        filed_count = self._filed_count
        ctx = self._ctx
        for rater, target, _facet, value, time in rows:
            tx.setdefault(target, []).append(
                (rater, value, ctx[row], time)
            )
            filed.setdefault(rater, {}).setdefault(target, []).append(value)
            filed_count[rater] = filed_count.get(rater, 0) + 1
            row += 1

    @property
    def _transactions(self) -> Dict[EntityId, List[_Transaction]]:
        """String-keyed view of the replayed transaction log (kept for
        introspection/tests; internal code uses the code-keyed state)."""
        self._advance()
        value_of = self._store.entities.value
        return {
            value_of(target): [
                _Transaction(value_of(r), sat, context, from_ticks(time))
                for r, sat, context, time in rows
            ]
            for target, rows in self._tx.items()
        }

    # -- credibility -------------------------------------------------------
    def feedback_similarity(
        self, evaluator: Optional[EntityId], rater: EntityId
    ) -> float:
        """PSM: root-mean-square similarity of filed ratings.

        Compared against *evaluator*'s vector when it shares rated
        subjects with *rater*; otherwise against the community mean
        vector (Xiong & Liu's fallback for sparse overlap).
        """
        self._advance()
        code = self._store.entities.code
        return self._similarity(
            None if evaluator is None else code(evaluator), code(rater)
        )

    def _similarity(self, evaluator: Optional[int], rater: int) -> float:
        rater_vector = {
            subject: sum(vals) / len(vals)
            for subject, vals in self._filed.get(rater, {}).items()
        }
        if not rater_vector:
            return 0.5
        reference: Dict[int, float] = {}
        if evaluator is not None and evaluator != rater:
            reference = {
                subject: sum(vals) / len(vals)
                for subject, vals in self._filed.get(evaluator, {}).items()
            }
        common = sorted(set(rater_vector) & set(reference))
        if not common:
            # Community mean fallback.
            pooled: Dict[int, List[float]] = {}
            for filed in self._filed.values():
                for subject, vals in filed.items():
                    pooled.setdefault(subject, []).append(
                        sum(vals) / len(vals)
                    )
            reference = {
                s: sum(vs) / len(vs) for s, vs in pooled.items()
            }
            common = sorted(set(rater_vector) & set(reference))
            if not common:
                return 0.5
        squared = sum(
            (rater_vector[s] - reference[s]) ** 2 for s in common
        ) / len(common)
        return 1.0 - math.sqrt(squared)

    def _credibility(
        self, evaluator: Optional[int], rater: int, depth: int
    ) -> float:
        """Cr of *rater*: PSM similarity, or TVM's depth-damped trust."""
        if self.credibility is CredibilityMeasure.PSM:
            return max(0.0, self._similarity(evaluator, rater))
        if depth <= 0:
            return 0.5
        return self._trust(rater, evaluator, depth - 1)

    # -- the metric --------------------------------------------------------
    def community_context(self, peer: EntityId) -> float:
        """CF: reward for contributing feedback (saturating)."""
        self._advance()
        filed = self._filed_count.get(self._store.entities.code(peer), 0)
        return filed / (filed + 5.0)

    def _trust(
        self, target: int, perspective: Optional[int], depth: int
    ) -> float:
        transactions = self._tx.get(target, [])
        recent = sorted(transactions, key=lambda t: t[3])[-self.window:]
        if not recent:
            base = 0.5
        else:
            numerator = 0.0
            denominator = 0.0
            for rater, satisfaction, context, _time in recent:
                cr = self._credibility(perspective, rater, depth)
                weight = cr * context
                numerator += satisfaction * weight
                denominator += weight
            base = numerator / denominator if denominator > 0 else 0.5
        filed = self._filed_count.get(target, 0)
        total = self.alpha + self.beta
        value = (
            self.alpha * base + self.beta * (filed / (filed + 5.0))
        ) / total
        return min(1.0, max(0.0, value))

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        self._advance()
        code = self._store.entities.code
        return self._trust(
            code(target),
            None if perspective is None else code(perspective),
            self.tvm_depth,
        )

    # -- columnar kernel ---------------------------------------------------
    def _fold(self, start: int) -> Dict[str, np.ndarray]:
        """Perspective-independent arrays — windowed transaction rows,
        pair rating vectors, community reference vector and the CF
        term — with rows ``[start, n)`` folded in."""
        store = self._store
        size = len(store.entities) + 1
        delta = store.columns_from(start)
        if not start:
            self._pairs, self._pair_sums = _EMPTY_I8, (_EMPTY, _EMPTY)
            self._counts = (_EMPTY_I8, _EMPTY_I8)
        # Per-(rater, subject) rating sums over the ascending pair keys.
        # A rater's subjects appear in ascending code order (= the
        # scalar's sorted(common) order), and the PSM and community sums
        # below run over the pairs in this order.
        self._pairs, sums, at = sorted_union(
            self._pairs, delta.pair_keys(), self._pair_sums
        )
        self._pair_sums = fold_into(
            sums, len(self._pairs), at, delta.value, 1.0
        )
        # Reports filed per rater (folded), rows per target (added in
        # place: the grown arrays are the ones kept).
        filed, per_target = self._counts = fold_into(
            self._counts, size, delta.rater, 1
        )
        np.add.at(per_target, delta.target, 1)
        if store.times_monotonic:
            self._fold_window(start, delta, per_target)
        else:
            self._window = self._cold_window()
        pair_sum, pair_count = self._pair_sums
        pair_mean = pair_sum / np.maximum(pair_count, 1.0)
        pair_rater, pair_subject, comm_cnt, rater_cnt = self._pair_codes(size)
        # Community reference: per subject, mean of the rater means.
        comm_sum = np.bincount(
            pair_subject, weights=pair_mean, minlength=size
        )
        (win_targets, win_raters, _rank), (win_sat, win_ctx) = self._window
        self._kernel_scores = {}
        return {
            "pairs": self._pairs,
            "win_targets": win_targets,
            "win_raters": win_raters,
            "win_sat": win_sat,
            "win_ctx": win_ctx,
            "pair_rater": pair_rater,
            "pair_subject": pair_subject,
            "pair_mean": pair_mean,
            "rater_cnt": rater_cnt,
            "comm_mean": comm_sum / comm_cnt,
            "cf_term": self.beta * (filed / (filed + 5.0)),
        }

    def _pair_codes(self, size: int) -> Tuple[np.ndarray, ...]:
        """The raters and subjects of the pair universe, and pairs per
        subject and per rater floored at 1 (a zero count only divides a
        zero sum): they change only with the universe (``sorted_union``
        hands back the same array while no pair is new) or the code
        count, which key them."""
        pairs = self._pairs
        if self._codes_key[0] is not pairs or self._codes_key[1] != size:
            rater, subject = pairs >> 32, pairs & 0xFFFFFFFF
            self._codes_key = (pairs, size)
            self._codes = (
                rater,
                subject,
                np.maximum(np.bincount(subject, minlength=size), 1),
                np.bincount(rater, minlength=size).astype(np.float64),
            )
        return self._codes

    def _fold_window(
        self, start: int, delta: ColumnSet, per_target: np.ndarray
    ) -> None:
        """Append the new rows to their targets' windows and drop the
        rows that fell out of the last ``window``.  The store's times
        are non-decreasing, so append order is time order with ties in
        append order — the stable lexsort's order — and every target's
        rows sit in that order within the window arrays."""
        targets = delta.target
        if delta.n == 1:
            rank = per_target[targets] - 1
        else:
            index = GroupIndex(targets)
            sizes = index.group_sizes()
            rank = np.empty(delta.n, dtype=np.int64)
            rank[index.order] = (
                per_target[targets[index.order]]
                - np.repeat(sizes, sizes)
                + index.ranks()
            )
        ctx = np.asarray(self._ctx[start:start + delta.n], dtype=np.float64)
        codes, floats = self._window if start else _NO_WINDOW
        codes = np.concatenate(
            (codes, np.array((targets, delta.rater, rank))), axis=1
        )
        floats = np.concatenate(
            (floats, np.array((delta.value, ctx))), axis=1
        )
        inside = codes[2] >= per_target[codes[0]] - self.window
        if not inside.all():
            codes = codes.compress(inside, axis=1)
            floats = floats.compress(inside, axis=1)
        self._window = (codes, floats)

    def _cold_window(self) -> Tuple[np.ndarray, ...]:
        """The last ``window`` rows per target in time order, from the
        whole store (lexsort is stable, so time ties keep append order —
        exactly the scalar sorted()[-window:] selection)."""
        store = self._store
        columns = store.snapshot()
        index = store.by_target_time()
        sizes = index.group_sizes()
        ranks = index.ranks()
        keep = ranks >= np.repeat(sizes, sizes) - self.window
        rows = index.order[keep]
        ctx = np.asarray(self._ctx, dtype=np.float64)
        return (
            np.array((columns.target[rows], columns.rater[rows], ranks[keep])),
            np.array((columns.value[rows], ctx[rows] if len(ctx) else ctx)),
        )

    def _psm_credibility(
        self, base: Dict[str, np.ndarray], perspective: Optional[int]
    ) -> np.ndarray:
        """Cr(v) for every entity code under PSM: similarity against
        the evaluator's vector over shared subjects, community-mean
        fallback otherwise, floored at 0.  The evaluator's pairs are
        one run of the ascending keys, and it never compares with
        itself."""
        size = len(base["cf_term"])
        pair_rater = base["pair_rater"]
        pair_subject = base["pair_subject"]
        pair_mean = base["pair_mean"]
        reference = np.full(size, np.nan)
        own = slice(0, 0)
        if perspective is not None and perspective >= 0:
            lo, hi = np.searchsorted(
                base["pairs"], (perspective << 32, (perspective + 1) << 32)
            ).tolist()
            own = slice(lo, hi)
            reference[pair_subject[own]] = pair_mean[own]
        ref_vals = reference[pair_subject]
        ref_vals[own] = np.nan
        valid = ref_vals == ref_vals  # not NaN
        diff_sq = np.where(valid, (pair_mean - ref_vals) ** 2, 0.0)
        cnt1 = np.bincount(pair_rater, weights=valid, minlength=size)
        ssq1 = np.bincount(pair_rater, weights=diff_sq, minlength=size)
        sim_eval = 1.0 - np.sqrt(ssq1 / np.maximum(cnt1, 1.0))
        return np.where(
            cnt1 > 0, np.maximum(0.0, sim_eval), self._community_credibility(base)
        )

    @staticmethod
    def _community_credibility(base: Dict[str, np.ndarray]) -> np.ndarray:
        """Cr(v) against the community mean vector, floored at 0 (0.5
        for a code that filed nothing): the same for every evaluator,
        so it is kept in *base* once computed."""
        kept = base.get("community_cr")
        if kept is None:
            size = len(base["cf_term"])
            pair_mean = base["pair_mean"]
            comm_vals = base["comm_mean"][base["pair_subject"]]
            cnt2 = base["rater_cnt"]
            ssq2 = np.bincount(
                base["pair_rater"],
                weights=(pair_mean - comm_vals) ** 2,
                minlength=size,
            )
            sim_comm = 1.0 - np.sqrt(ssq2 / np.maximum(cnt2, 1.0))
            kept = base["community_cr"] = np.maximum(
                0.0, np.where(cnt2 > 0, sim_comm, 0.5)
            )
        return kept

    def _trust_sweep(
        self, base: Dict[str, np.ndarray], cr_rows: np.ndarray
    ) -> np.ndarray:
        """One application of eq. 3 over all entities at once, given
        per-windowed-row credibilities (bincount adds contributions in
        the scalar's time order — bit-identical accumulation)."""
        size = len(base["cf_term"])
        weights = cr_rows * base["win_ctx"]
        num = np.bincount(
            base["win_targets"],
            weights=base["win_sat"] * weights,
            minlength=size,
        )
        den = np.bincount(
            base["win_targets"], weights=weights, minlength=size
        )
        metric = np.where(den > 0, num / np.maximum(den, 1e-300), 0.5)
        total = self.alpha + self.beta
        value = (self.alpha * metric + base["cf_term"]) / total
        return value.clip(0.0, 1.0)

    def _kernel_trust(self, perspective: Optional[int]) -> np.ndarray:
        base = self._kernel()
        cached = self._kernel_scores.get(perspective)
        if cached is not None:
            return cached
        if self.credibility is CredibilityMeasure.PSM:
            cr = self._psm_credibility(base, perspective)
            trust = self._trust_sweep(base, cr[base["win_raters"]])
        else:
            # TVM: trust at depth d weighs raters by their depth-(d-1)
            # trust, grounded at Cr = 0.5 for depth 0.
            trust = self._trust_sweep(
                base, np.full(len(base["win_raters"]), 0.5)
            )
            for _depth in range(self.tvm_depth):
                trust = self._trust_sweep(base, trust[base["win_raters"]])
        self._kernel_scores[perspective] = trust
        return trust

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch trust from the columnar kernel (gather per candidate)."""
        store = self._store
        persp = (
            None
            if perspective is None
            else store.entities.code(perspective)
        )
        # The spare last slot, which the code -1 of an unseen id reads,
        # holds no rows and files nothing: its trust is the unknown
        # target's (alpha * 0.5) / (alpha + beta).
        scores = self._kernel_trust(persp)[store.entities.codes(targets)]
        result: List[float] = scores.tolist()
        return result
