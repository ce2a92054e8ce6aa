"""Vu, Hauswirth & Aberer: QoS-based selection with trust management —
decentralized / person-agent + resource / personalized.

The only decentralized web-service approach the survey found.  Its three
ingredients are reproduced:

1. **Dedicated QoS registries over P-Grid** — feedback about a service
   is routed to (and replicated at) the P-Grid peers responsible for
   the service's key (:meth:`publish_report` / :meth:`query_reports`).
2. **Dishonesty detection against monitor data** — a fraction of
   services is watched by trusted monitoring agents; a rater whose
   reports repeatedly deviate from the monitor's measurements beyond a
   tolerance loses credibility for *all* its reports (their key trick:
   liars caught on monitored services are discounted everywhere).
3. **Trust-weighted QoS prediction** — a service's expected quality per
   metric is the credibility-weighted mean of user reports, blended
   with monitor data where available; ranking is against the consumer's
   per-metric preferences.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel
from repro.p2p.pgrid import PGrid


class VuAbererModel(ReputationModel):
    """Decentralized QoS reputation with monitor-based liar detection.

    Args:
        deviation_tolerance: max |report − monitor| counted as honest.
        min_credibility: floor so condemned raters keep an epsilon voice
            (their algorithm never fully zeroes a rater).
        monitor_weight: blend weight of monitor data in predictions for
            monitored services.
    """

    name = "vu_aberer"
    typology = Typology(
        Architecture.DECENTRALIZED,
        Subject.PERSON_AGENT_AND_RESOURCE,
        Scope.PERSONALIZED,
    )
    paper_ref = "[28, 29]"

    def __init__(
        self,
        deviation_tolerance: float = 0.15,
        min_credibility: float = 0.05,
        monitor_weight: float = 0.5,
    ) -> None:
        if not 0.0 < deviation_tolerance <= 1.0:
            raise ConfigurationError("deviation_tolerance must be in (0, 1]")
        if not 0.0 <= min_credibility < 1.0:
            raise ConfigurationError("min_credibility must be in [0, 1)")
        if not 0.0 <= monitor_weight <= 1.0:
            raise ConfigurationError("monitor_weight must be in [0, 1]")
        self.deviation_tolerance = deviation_tolerance
        self.min_credibility = min_credibility
        self.monitor_weight = monitor_weight
        self._reports: Dict[EntityId, List[Feedback]] = {}
        #: service -> metric -> monitor-measured quality
        self._monitor_data: Dict[EntityId, Dict[str, float]] = {}
        #: rater -> (honest_count, caught_count)
        self._rater_record: Dict[EntityId, Tuple[int, int]] = {}
        #: consumer -> metric weights
        self._preferences: Dict[EntityId, Dict[str, float]] = {}
        #: (service, metric) -> (report count, predicted quality).  A
        #: service's reports are only appended to; a rater record or
        #: monitor data that changes drops every entry
        self._predicted: Dict[
            Tuple[EntityId, Optional[str]], Tuple[int, float]
        ] = {}

    # -- inputs ------------------------------------------------------------
    def set_preferences(
        self, consumer: EntityId, weights: Mapping[str, float]
    ) -> None:
        self._preferences[consumer] = dict(weights)

    def record_monitor_data(
        self, service: EntityId, facets: Mapping[str, float]
    ) -> None:
        """Trusted monitoring-agent measurements for *service*."""
        store = self._monitor_data.setdefault(service, {})
        store.update(facets)
        self._predicted.clear()
        # Re-screen raters that already reported on this service.
        for fb in self._reports.get(service, ()):
            self._screen(fb)

    def record(self, feedback: Feedback) -> None:
        self._reports.setdefault(feedback.target, []).append(feedback)
        self._screen(feedback)

    def _screen(self, feedback: Feedback) -> None:
        """Compare a report against monitor data, update rater record."""
        monitor = self._monitor_data.get(feedback.target)
        if not monitor:
            return
        facets = feedback.facet_ratings or {"overall": feedback.rating}
        deviations = [
            abs(facets[m] - monitor[m]) for m in facets if m in monitor
        ]
        if not deviations and "overall" not in monitor:
            # No overlapping facet: judge the overall rating against the
            # monitor's mean observable quality.
            deviations = [
                abs(feedback.rating - safe_mean(monitor.values(), 0.5))
            ]
        if not deviations:
            return
        honest, caught = self._rater_record.get(feedback.rater, (0, 0))
        if max(deviations) <= self.deviation_tolerance:
            honest += 1
        else:
            caught += 1
        self._rater_record[feedback.rater] = (honest, caught)
        self._predicted.clear()  # every credibility-weighted mean may move

    # -- credibility --------------------------------------------------------
    def credibility(self, rater: EntityId) -> float:
        """Rater trust from screening outcomes (Laplace-smoothed)."""
        honest, caught = self._rater_record.get(rater, (0, 0))
        value = (honest + 1.0) / (honest + caught + 2.0)
        return max(self.min_credibility, value)

    # -- prediction -----------------------------------------------------------
    def predicted_quality(
        self, service: EntityId, metric: Optional[str] = None
    ) -> float:
        """Credibility-weighted expected quality of *service*.

        With *metric* given, predicts that facet; otherwise the overall
        rating.  Monitor data is blended in when present.
        """
        reports = self._reports.get(service, [])
        key = (service, metric)
        hit = self._predicted.get(key)
        if hit is None or hit[0] != len(reports):
            hit = (len(reports), self._predict(service, metric, reports))
            self._predicted[key] = hit
        return hit[1]

    def _predict(
        self, service: EntityId, metric: Optional[str], reports: List[Feedback]
    ) -> float:
        total = 0.0
        weight_sum = 0.0
        for fb in reports:
            if metric is not None:
                if metric not in fb.facet_ratings:
                    continue
                value = fb.facet_ratings[metric]
            else:
                value = fb.rating
            cred = self.credibility(fb.rater)
            total += cred * value
            weight_sum += cred
        user_estimate = total / weight_sum if weight_sum > 0 else None
        monitor = self._monitor_data.get(service, {})
        monitor_estimate: Optional[float] = None
        if metric is not None and metric in monitor:
            monitor_estimate = monitor[metric]
        elif metric is None and monitor:
            monitor_estimate = safe_mean(monitor.values())
        if user_estimate is None and monitor_estimate is None:
            return 0.5
        if user_estimate is None:
            assert monitor_estimate is not None
            return monitor_estimate
        if monitor_estimate is None:
            return user_estimate
        w = self.monitor_weight
        return w * monitor_estimate + (1.0 - w) * user_estimate

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        weights = (
            self._preferences.get(perspective) if perspective else None
        )
        if weights:
            metrics = [
                (m, w)
                for m, w in weights.items()
                if w > 0
            ]
            total_weight = sum(w for _, w in metrics)
            if metrics and total_weight > 0:
                return (
                    sum(
                        self.predicted_quality(target, m) * w
                        for m, w in metrics
                    )
                    / total_weight
                )
        return self.predicted_quality(target)

    # -- P-Grid deployment ---------------------------------------------------------
    def publish_report(
        self, pgrid: PGrid, origin: EntityId, feedback: Feedback
    ) -> int:
        """Route a report to the responsible QoS registries.

        The record is both stored on the overlay and ingested by this
        model; returns messages used.
        """
        messages = pgrid.insert(origin, feedback.target, feedback)
        self.record(feedback)
        return messages

    def query_reports(
        self, pgrid: PGrid, origin: EntityId, service: EntityId
    ) -> Tuple[List[Feedback], int]:
        """Fetch a service's reports from its QoS registries."""
        return pgrid.lookup(origin, service, service)
