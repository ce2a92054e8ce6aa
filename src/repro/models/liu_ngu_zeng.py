"""Liu, Ngu & Zeng: extensible QoS computation and policing —
centralized / resource / personalized.

"QoS computation and policing in dynamic web service selection" (WWW
2004): build a candidates × metrics quality matrix from consumer
reports, **min-max normalize each metric column across the candidate
set** (so a metric where everyone ties contributes nothing), then rank
by the consumer's preference-weighted sum.  Because normalization is
relative to the candidate set, scoring is done per *ranking* call —
:meth:`rank` is the native operation and
:meth:`score` degenerates to a single-candidate view.

"Policing": reports older than a freshness window are dropped, and a
candidate needs a minimum report count before its data is trusted at
all (otherwise it scores the neutral prior).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel, ranked


class LiuNguZengModel(ReputationModel):
    """Matrix-normalized, preference-weighted QoS ranking.

    Args:
        freshness_window: report age limit (policing); None disables.
        min_reports: reports needed before a candidate's data counts.
    """

    name = "liu_ngu_zeng"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[16]"

    def __init__(
        self,
        freshness_window: Optional[float] = None,
        min_reports: int = 1,
    ) -> None:
        if freshness_window is not None and freshness_window <= 0:
            raise ConfigurationError("freshness_window must be positive")
        if min_reports < 1:
            raise ConfigurationError("min_reports must be >= 1")
        self.freshness_window = freshness_window
        self.min_reports = min_reports
        self._reports: Dict[EntityId, List[Feedback]] = {}
        #: consumer -> metric weights
        self._preferences: Dict[EntityId, Dict[str, float]] = {}
        #: target -> (the report list read, its length, per-facet
        #: ratings, facet means).  A target's list is only appended to
        #: (policing replaces it), so a longer read of the same list folds
        #: just its new reports onto the kept ratings; a read through a
        #: freshness window is a new list each call and starts from 0
        self._rows: Dict[
            EntityId,
            Tuple[
                List[Feedback], int, Dict[str, List[float]], Dict[str, float]
            ],
        ] = {}

    def set_preferences(
        self, consumer: EntityId, weights: Mapping[str, float]
    ) -> None:
        self._preferences[consumer] = dict(weights)

    def record(self, feedback: Feedback) -> None:
        self._reports.setdefault(feedback.target, []).append(feedback)

    # -- the QoS matrix ------------------------------------------------------
    def _fresh_reports(
        self, target: EntityId, now: Optional[float]
    ) -> List[Feedback]:
        reports = self._reports.get(target, [])
        if self.freshness_window is None or now is None:
            return reports
        return [
            fb for fb in reports if now - fb.time <= self.freshness_window
        ]

    def quality_row(
        self, target: EntityId, now: Optional[float] = None
    ) -> Optional[Dict[str, float]]:
        """Mean per-facet quality from fresh reports; None if too few."""
        reports = self._fresh_reports(target, now)
        if len(reports) < self.min_reports:
            return None
        hit = self._rows.get(target)
        if hit is None or hit[0] is not reports:
            hit = (reports, 0, {}, {})
        if hit[1] != len(reports):
            facets = hit[2]
            for fb in reports[hit[1]:]:
                source = fb.facet_ratings or {"overall": fb.rating}
                for facet, rating in source.items():
                    facets.setdefault(facet, []).append(rating)
            means = {f: safe_mean(vals) for f, vals in facets.items()}
            hit = (reports, len(reports), facets, means)
            self._rows[target] = hit
        return dict(hit[3])  # callers may mutate the row; the memo's stays

    def quality_matrix(
        self, candidates: Iterable[EntityId], now: Optional[float] = None
    ) -> Dict[EntityId, Dict[str, float]]:
        matrix: Dict[EntityId, Dict[str, float]] = {}
        for candidate in candidates:
            row = self.quality_row(candidate, now)
            if row is not None:
                matrix[candidate] = row
        return matrix

    @staticmethod
    def _normalize_columns(
        matrix: Mapping[EntityId, Mapping[str, float]],
    ) -> Dict[EntityId, Dict[str, float]]:
        """Min-max normalize each metric column across candidates.

        A column with zero spread contributes 0.5 for everyone (it
        cannot discriminate).
        """
        metrics = sorted({m for row in matrix.values() for m in row})
        ranges: Dict[str, tuple] = {}
        for metric in metrics:
            values = [row[metric] for row in matrix.values() if metric in row]
            ranges[metric] = (min(values), max(values))
        normalized: Dict[EntityId, Dict[str, float]] = {}
        for candidate, row in matrix.items():
            out: Dict[str, float] = {}
            for metric, value in row.items():
                low, high = ranges[metric]
                if high - low <= 1e-12:
                    out[metric] = 0.5
                else:
                    out[metric] = (value - low) / (high - low)
            normalized[candidate] = out
        return normalized

    # -- ranking (native operation) -----------------------------------------------
    def rank(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[EntityId, float]]:
        candidates = list(candidates)
        matrix = self.quality_matrix(candidates, now)
        normalized = self._normalize_columns(matrix)
        weights = self._preferences.get(perspective, {}) if perspective else {}
        scores: List[float] = []
        for candidate in candidates:
            row = normalized.get(candidate)
            if row is None:
                scores.append(0.5)
                continue
            if weights:
                common = {m: w for m, w in weights.items() if m in row}
                total = sum(common.values())
                if total > 0:
                    scores.append(
                        sum(row[m] * w for m, w in common.items()) / total
                    )
                    continue
            scores.append(safe_mean(row.values(), default=0.5))
        return ranked(candidates, scores)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        """Absolute (non-candidate-relative) view: mean fresh quality."""
        row = self.quality_row(target, now)
        if row is None:
            return 0.5
        weights = self._preferences.get(perspective, {}) if perspective else {}
        if weights:
            common = {m: w for m, w in weights.items() if m in row}
            total = sum(common.values())
            if total > 0:
                return sum(row[m] * w for m, w in common.items()) / total
        return safe_mean(row.values(), default=0.5)

    def police(self, now: float) -> int:
        """Drop stale reports permanently; returns count removed."""
        if self.freshness_window is None:
            return 0
        removed = 0
        for target in list(self._reports):
            kept = [
                fb
                for fb in self._reports[target]
                if now - fb.time <= self.freshness_window
            ]
            removed += len(self._reports[target]) - len(kept)
            if kept:
                self._reports[target] = kept
            else:
                del self._reports[target]
        return removed
