"""Central QoS registry: the feedback store behind centralized mechanisms.

Every centralized approach in the survey (Maximilien & Singh; Liu, Ngu &
Zeng; Manikrao & Prabhakar; Karta; Day) shares the same skeleton:
consumers report execution data and ratings to a central node, which
computes per-service scores on demand.  :class:`FeedbackStore` is the
storage layer (also reused, per-node, by the decentralized overlays);
:class:`CentralQoSRegistry` adds the central-node concerns — message
accounting against a :class:`~repro.sim.network.Network` and fault
injection.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

from dataclasses import dataclass

from repro.common.errors import RegistryError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.faults.degradation import StaleCache
from repro.faults.resilience import BreakerBoard, CircuitBreaker, RetryPolicy
from repro.sim.network import Network


class FeedbackStore:
    """Append-only store of feedback, indexed by target and by rater."""

    def __init__(self) -> None:
        self._by_target: Dict[EntityId, List[Feedback]] = defaultdict(list)
        self._by_rater: Dict[EntityId, List[Feedback]] = defaultdict(list)
        self._count = 0

    def add(self, feedback: Feedback) -> None:
        self._by_target[feedback.target].append(feedback)
        self._by_rater[feedback.rater].append(feedback)
        self._count += 1

    def extend(self, feedbacks: Iterable[Feedback]) -> None:
        for fb in feedbacks:
            self.add(fb)

    def for_target(self, target: EntityId) -> List[Feedback]:
        """All feedback about *target*, oldest first (insertion order)."""
        return list(self._by_target.get(target, ()))

    def count_for(self, target: EntityId) -> int:
        """How many reports about *target* are held, without copying them."""
        return len(self._by_target.get(target, ()))

    def by_rater(self, rater: EntityId) -> List[Feedback]:
        return list(self._by_rater.get(rater, ()))

    def targets(self) -> List[EntityId]:
        return list(self._by_target)

    def raters(self) -> List[EntityId]:
        return list(self._by_rater)

    def all(self) -> List[Feedback]:
        out: List[Feedback] = []
        for items in self._by_target.values():
            out.extend(items)
        out.sort(key=lambda fb: fb.time)
        return out

    def prune_before(self, time: float) -> int:
        """Drop feedback filed strictly before *time*; returns #dropped.

        Liu, Ngu & Zeng's "active policing" of stale data uses this.
        """
        dropped = 0
        for index in (self._by_target, self._by_rater):
            for key in list(index):
                kept = [fb for fb in index[key] if fb.time >= time]
                removed = len(index[key]) - len(kept)
                if removed:
                    index[key] = kept
                dropped += removed
                if not kept:
                    del index[key]
        # Each feedback lives in both indexes; halve the double count.
        dropped //= 2
        self._count -= dropped
        return dropped

    def __len__(self) -> int:
        return self._count


class CentralQoSRegistry:
    """The central node collecting feedback and serving queries.

    Args:
        registry_id: node id for message accounting.
        network: optional :class:`Network` — when given, every report and
            query is charged as a message to/from the central node, which
            is what makes the load-imbalance numbers of experiment C6.
    """

    def __init__(
        self,
        registry_id: EntityId = "qos-registry",
        network: Optional[Network] = None,
    ) -> None:
        self.registry_id = registry_id
        self.network = network
        self.store = FeedbackStore()
        self._failed = False
        self.reports_received = 0
        self.queries_served = 0

    # -- fault injection ------------------------------------------------
    def fail(self) -> None:
        self._failed = True

    def heal(self) -> None:
        self._failed = False

    @property
    def is_failed(self) -> bool:
        return self._failed

    # -- the consumer-facing API -----------------------------------------
    def report(self, feedback: Feedback) -> bool:
        """File feedback with the central node.

        Returns False (and drops the report) when the registry is down —
        consumers cannot tell a lost report from a slow one, so no
        exception is raised on the reporting path.
        """
        if self.network is not None:
            delivered = self.network.send(
                feedback.rater, self.registry_id, kind="feedback-report"
            )
            if not delivered:
                return False
        if self._failed:
            return False
        self.store.add(feedback)
        self.reports_received += 1
        return True

    def query(
        self, consumer: EntityId, target: EntityId
    ) -> List[Feedback]:
        """Fetch all feedback about *target* (a query + response pair).

        Raises :class:`RegistryError` when the registry is failed or
        when, with a network attached, the query or response message is
        dropped — a lost response is indistinguishable from a down
        registry to the asking consumer.
        """
        if self._failed:
            raise RegistryError(f"QoS registry {self.registry_id!r} is down")
        if self.network is not None:
            request = self.network.send(
                consumer, self.registry_id, kind="qos-query"
            )
            if not request:
                raise RegistryError(
                    f"query to {self.registry_id!r} lost ({request.reason})"
                )
            response = self.network.send(
                self.registry_id, consumer, kind="qos-response"
            )
            if not response:
                raise RegistryError(
                    f"response from {self.registry_id!r} lost "
                    f"({response.reason})"
                )
        self.queries_served += 1
        return self.store.for_target(target)

    def query_many(
        self, consumer: EntityId, targets: Iterable[EntityId]
    ) -> Dict[EntityId, List[Feedback]]:
        return {t: self.query(consumer, t) for t in targets}

    def score_with(
        self,
        scorer: Callable[[List[Feedback]], float],
        target: EntityId,
    ) -> float:
        """Apply a scoring function to the stored feedback for *target*."""
        if self._failed:
            raise RegistryError(f"QoS registry {self.registry_id!r} is down")
        return scorer(self.store.for_target(target))


#: Provenance of a resilient query's answer.
FRESH = "fresh"
STALE = "stale"
UNAVAILABLE = "unavailable"


@dataclass
class QueryResult:
    """Feedback plus the provenance and confidence of the answer.

    ``source`` is :data:`FRESH` (live registry answer, confidence 1),
    :data:`STALE` (served from the local cache, confidence discounted by
    the entry's age), or :data:`UNAVAILABLE` (no answer at all,
    confidence 0, empty feedback).
    """

    feedback: List[Feedback]
    source: str
    confidence: float


class ResilientQoSClient:
    """Consumer-side registry client with retry, breaker, and fallback.

    The registry itself stays a dumb store; all resilience lives on the
    client, as it would in a real deployment:

    * each query is retried under a :class:`RetryPolicy` (exponential
      backoff + jitter — effective against probabilistic message loss,
      harmless against a hard outage);
    * a per-registry :class:`CircuitBreaker` stops hammering a down
      registry after the failure rate crosses its threshold, and probes
      it half-open after the recovery timeout;
    * every fresh answer is remembered in a :class:`StaleCache`; when
      the fresh path is refused or exhausted, the last known feedback is
      served with an age-discounted confidence instead of nothing.

    Args:
        registry: the central registry to talk to.
        retry: retry policy (default: 3 attempts, exponential backoff).
        breakers: board of per-registry circuit breakers.
        cache: stale-answer cache; pass None to disable fallback (the
            client then reports :data:`UNAVAILABLE` during outages —
            the naive baseline the chaos experiment compares against).
    """

    _DEFAULT_CACHE = object()

    def __init__(
        self,
        registry: CentralQoSRegistry,
        retry: Optional[RetryPolicy] = None,
        breakers: Optional[BreakerBoard] = None,
        cache=_DEFAULT_CACHE,
    ) -> None:
        self.registry = registry
        self.retry = retry or RetryPolicy()
        self.breakers = breakers or BreakerBoard()
        self.cache: Optional[StaleCache] = (
            StaleCache() if cache is self._DEFAULT_CACHE else cache
        )
        self.fresh_queries = 0
        self.stale_queries = 0
        self.unavailable_queries = 0
        self.reports_sent = 0
        self.reports_lost = 0

    @property
    def breaker(self) -> CircuitBreaker:
        """The breaker guarding this client's registry."""
        return self.breakers.for_target(self.registry.registry_id)

    def query(
        self, consumer: EntityId, target: EntityId, now: float
    ) -> QueryResult:
        """Fetch feedback about *target*, degrading instead of raising."""
        breaker = self.breaker
        if breaker.allow(now):
            outcome = self.retry.call(
                lambda: self.registry.query(consumer, target),
                retry_on=(RegistryError,),
            )
            if outcome.succeeded:
                breaker.record_success(now)
                if self.cache is not None:
                    self.cache.put(target, list(outcome.value), now)
                self.fresh_queries += 1
                return QueryResult(
                    feedback=list(outcome.value),
                    source=FRESH,
                    confidence=1.0,
                )
            breaker.record_failure(now)
        if self.cache is not None:
            stale = self.cache.get(target, now)
            if stale is not None:
                self.stale_queries += 1
                return QueryResult(
                    feedback=list(stale.value),
                    source=STALE,
                    confidence=stale.confidence,
                )
        self.unavailable_queries += 1
        return QueryResult(feedback=[], source=UNAVAILABLE, confidence=0.0)

    def report(self, feedback: Feedback, now: float) -> bool:
        """File feedback, respecting the breaker; returns delivery.

        Reports are fire-and-forget (the registry's contract), so no
        retry storm: one attempt when the circuit allows it.
        """
        breaker = self.breaker
        if not breaker.allow(now):
            self.reports_lost += 1
            return False
        accepted = self.registry.report(feedback)
        if accepted:
            breaker.record_success(now)
            self.reports_sent += 1
        else:
            breaker.record_failure(now)
            self.reports_lost += 1
        return accepted
