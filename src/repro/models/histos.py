"""Histos (Zacharia, Moukas & Maes) — centralized / person-agent /
personalized.

Where Sporas keeps one global value, Histos answers "what does *this*
user think of that one?" by walking the directed rating graph rooted at
the asking user.  The personalized reputation of ``x`` for root ``u``:

* the direct rating ``u -> x`` when it exists, else
* the recursive weighted mean over ``u``'s rated acquaintances ``y``:
  weight = ``u``'s (recursive) trust in ``y``, value = trust of ``y`` in
  ``x`` — evaluated breadth-first to a depth bound, ignoring cycles.

Only the *latest* rating per (rater, target) edge counts, matching the
"most recent experience dominates" reading in the original paper.

Events live in the columnar :class:`~repro.store.EventStore`; the
latest-edge graph the walks consume is replayed lazily (codes, not
strings).  The *global* fallback — the hot batch path when no
perspective is given — is a columnar kernel: latest-per-pair rows via
one lexsort, then a per-target ``np.bincount`` mean.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import StoreBackedModel
from repro.store import EventStore, group_sums, latest_rows

_EMPTY = np.zeros(0)


class HistosModel(StoreBackedModel):
    """Personalized reputation over the rating graph.

    Args:
        max_depth: longest referral chain considered.
        prior: score when no path from the perspective reaches the target.
    """

    name = "histos"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.PERSON_AGENT, Scope.PERSONALIZED
    )
    paper_ref = "[37]"

    def __init__(self, max_depth: int = 4, prior: float = 0.5) -> None:
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if not 0.0 <= prior <= 1.0:
            raise ConfigurationError("prior must be in [0, 1]")
        self.max_depth = max_depth
        self.prior = prior
        self._store = EventStore()
        #: rater code -> target code -> (time, rating); latest wins;
        #: replayed lazily off the store rows
        self._edges: Dict[int, Dict[int, Tuple[float, float]]] = {}
        #: global-mean (sums, counts) per code as of the last read
        self._kernel: Tuple[np.ndarray, np.ndarray] = (_EMPTY, _EMPTY)

    def _advance(self) -> None:
        """Replay latest-edge extraction over unconsumed store rows —
        the exact scalar reference for the graph walks."""
        start, stop = self._unread_rows("replay")
        if not start:
            self._edges = {}
        if start == stop:
            return
        edges = self._edges
        # reprolint: disable=R007 — scalar reference is the per-row replay
        for rater, target, _facet, value, time in self._store.iter_rows(
            start
        ):
            outgoing = edges.get(rater)
            if outgoing is None:
                outgoing = {}
                edges[rater] = outgoing
            existing = outgoing.get(target)
            if existing is None or time >= existing[0]:
                outgoing[target] = (time, value)

    def direct_rating(
        self, rater: EntityId, target: EntityId
    ) -> Optional[float]:
        self._advance()
        code = self._store.entities.code
        entry = self._edges.get(code(rater), {}).get(code(target))
        return entry[1] if entry else None

    # -- personalized walks (scalar reference, code-keyed) -------------
    def _direct(self, root: int, target: int) -> Optional[float]:
        entry = self._edges.get(root, {}).get(target)
        return entry[1] if entry else None

    def _trust(
        self,
        root: int,
        target: int,
        depth: int,
        visited: Set[int],
    ) -> Optional[float]:
        direct = self._direct(root, target)
        if direct is not None:
            return direct
        if depth <= 0:
            return None
        total_weight = 0.0
        total = 0.0
        for neighbor, (_, weight) in self._edges.get(root, {}).items():
            if neighbor in visited or neighbor == target:
                continue
            if weight <= 0:
                continue  # distrusted acquaintances carry no referrals
            downstream = self._trust(
                neighbor, target, depth - 1, visited | {neighbor}
            )
            if downstream is None:
                continue
            total += weight * downstream
            total_weight += weight
        if total_weight <= 0:
            return None
        return total / total_weight

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
            # No root given: fall back to the global mean of incoming
            # latest ratings (what a new, unconnected user would see).
            incoming = [
                entry[1]
                for edges in self._edges.values()
                for tgt, entry in edges.items()
                if tgt == target_code
            ]
            if not incoming or target_code < 0:
                return self.prior
            return sum(incoming) / len(incoming)
        value = self._trust(
            code(perspective), target_code, self.max_depth, {code(perspective)}
        )
        return self.prior if value is None else value

    def _trust_many(
        self,
        root: int,
        targets: Sequence[int],
        depth: int,
        visited: Set[int],
    ) -> Dict[int, Optional[float]]:
        """One graph walk evaluating every target simultaneously.

        The per-target recursion's control flow (visited set, depth
        bound) depends only on the path from the root, so a single
        traversal can carry the whole candidate set: each node resolves
        direct ratings locally and recurses once per acquaintance for
        the targets still unresolved, instead of walking the graph once
        per candidate.  Produces exactly what per-target :meth:`_trust`
        calls would.
        """
        results: Dict[int, Optional[float]] = {}
        remaining: List[int] = []
        for target in targets:
            direct = self._direct(root, target)
            if direct is not None:
                results[target] = direct
            else:
                remaining.append(target)
        if not remaining:
            return results
        if depth <= 0:
            for target in remaining:
                results[target] = None
            return results
        totals = {target: 0.0 for target in remaining}
        total_weights = {target: 0.0 for target in remaining}
        for neighbor, (_, weight) in self._edges.get(root, {}).items():
            if neighbor in visited:
                continue
            if weight <= 0:
                continue  # distrusted acquaintances carry no referrals
            # The per-target walk skips the target itself as a referrer.
            subset = [t for t in remaining if t != neighbor]
            if not subset:
                continue
            downstream = self._trust_many(
                neighbor, subset, depth - 1, visited | {neighbor}
            )
            for target in subset:
                value = downstream[target]
                if value is None:
                    continue
                totals[target] += weight * value
                total_weights[target] += weight
        for target in remaining:
            if total_weights[target] <= 0:
                results[target] = None
            else:
                results[target] = totals[target] / total_weights[target]
        return results

    # -- columnar kernel (global fallback) -----------------------------
    def _global_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-code (sum, count) of incoming latest ratings, reduced
        from the store columns, rebuilt only when rows were appended (or
        another store swapped in) since the last call."""
        start, stop = self._unread_rows("kernel")
        if start and start == stop:
            return self._kernel
        store = self._store
        columns = store.snapshot()
        size = max(len(store.entities), 1)
        _keys, rows = latest_rows(columns.pair_keys(), columns.time)
        targets = columns.target[rows]
        sums = group_sums(targets, size, columns.value[rows])
        counts = np.bincount(targets, minlength=size)
        self._kernel = (sums, counts)
        return self._kernel

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Batch scores: columnar latest-edge means for the global view,
        one shared graph traversal for personalized queries."""
        if not targets:
            return []
        if perspective is None:
            sums, counts = self._global_arrays()
            codes = self._store.entities.codes(targets)
            known = codes >= 0
            safe = np.where(known, codes, 0)
            cnt = np.where(known, counts[safe], 0)
            total = np.where(known, sums[safe], 0.0)
            scores = np.where(
                cnt > 0, total / np.maximum(cnt, 1), self.prior
            )
            result: List[float] = scores.tolist()
            return result
        self._advance()
        code = self._store.entities.code
        root = code(perspective)
        target_codes = [code(t) for t in targets]
        values = self._trust_many(
            root, target_codes, self.max_depth, {root}
        )
        return [
            self.prior if values[t] is None else values[t]
            for t in target_codes
        ]
