"""The synchronous, deterministic core of the serve layer.

:class:`ServiceCore` owns every piece of canonical state: the
:class:`~repro.registry.uddi.UDDIRegistry`, the reputation model and
its :class:`~repro.core.selection.SelectionEngine`, the PR 1
resilience stack (per-backend :class:`~repro.faults.resilience.CircuitBreaker`
via a :class:`~repro.faults.resilience.BreakerBoard`, a seeded
:class:`~repro.faults.resilience.RetryPolicy`, and a
:class:`~repro.faults.degradation.StaleRankingFallback`), the
:class:`~repro.serve.ingest.AdmissionController`, and the append-only
:class:`~repro.serve.protocol.IngestLog`.

The asyncio layer (:mod:`repro.serve.service`) is a thin concurrency
shell around two synchronous entry points:

* :meth:`ServiceCore.admit_batch` — called with one *quiescence batch*
  of arrivals, sorts them into canonical order, runs sequenced
  admission, and appends every record to the log;
* :meth:`ServiceCore.execute` — runs one record to its typed
  :class:`~repro.serve.protocol.ServeResponse`, through the
  degradation ladder: fresh ranking → retry with accounted backoff →
  circuit refusal → stale age-discounted ranking → typed failure.

Because both are synchronous and are invoked in log order, every
response, final score, metric total, and trace byte is a pure function
of the ingest log — which is what :mod:`repro.serve.replay` checks.

All times on this path are simulation quantities derived from ingest
ticks.  Wall-clock latency exists only client-side in the load
generator, and never enters this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, RegistryError, ReproError
from repro.common.randomness import SeedSequenceFactory
from repro.common.records import Feedback
from repro.common.simtime import from_ticks
from repro.core.selection import SelectionEngine, SelectionPolicy
from repro.faults.degradation import StaleRankingFallback
from repro.faults.resilience import BreakerBoard, CircuitBreaker, RetryPolicy
from repro.models.base import ReputationModel
from repro.obs.recorder import get_recorder
from repro.registry.uddi import UDDIRegistry
from repro.serve.ingest import AdmissionConfig, AdmissionController
from repro.serve.protocol import (
    KIND_DEREGISTER,
    KIND_FEEDBACK,
    KIND_RANK,
    KIND_REGISTER,
    STATUS_DEGRADED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    Arrival,
    IngestLog,
    IngestRecord,
    ServeResponse,
    pairs,
)
from repro.serve.sla import SERVE_LATENCY_BUCKETS, SERVE_WAIT_BUCKETS
from repro.services.description import ServiceDescription

__all__ = [
    "RebuildInProgressError",
    "ServeConfig",
    "ServiceCore",
]

#: breaker board target ids — one breaker per backend, so a registry
#: outage cannot open-circuit the scoring path or vice versa.
BACKEND_REGISTRY = "registry"
BACKEND_SCORING = "scoring"


class RebuildInProgressError(ReproError):
    """The fresh scoring path is down for a score-table rebuild."""


@dataclass(frozen=True)
class ServeConfig:
    """All serve-layer knobs in one frozen, replay-stable value."""

    seed: int = 0
    drain_rate: float = 512.0
    max_depth: int = 64
    tenant_rate: float = 128.0
    tenant_burst: int = 32
    retry_attempts: int = 2
    retry_base_delay: float = 1.0 / 256.0
    retry_multiplier: float = 2.0
    retry_max_delay: float = 0.25
    retry_jitter: float = 0.5
    breaker_threshold: float = 0.5
    breaker_window: int = 8
    breaker_min_calls: int = 4
    breaker_recovery: float = 0.5
    stale_max_age: float = 64.0
    slo: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 < self.slo < 1.0:
            raise ConfigurationError("slo must be in (0, 1)")
        for name in ("drain_rate", "tenant_rate"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(
                    f"{name} must be positive, got {getattr(self, name)!r}"
                )
        for name in ("max_depth", "tenant_burst", "retry_attempts"):
            if getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if self.stale_max_age <= 0.0:
            raise ConfigurationError("stale_max_age must be positive")
        self.breakers()  # the breaker bounds live in CircuitBreaker

    def breakers(self) -> BreakerBoard:
        return BreakerBoard(
            failure_rate_threshold=self.breaker_threshold,
            window=self.breaker_window,
            min_calls=self.breaker_min_calls,
            recovery_timeout=self.breaker_recovery,
        )

    def admission(self) -> AdmissionConfig:
        return AdmissionConfig(
            drain_rate=self.drain_rate,
            max_depth=self.max_depth,
            tenant_rate=self.tenant_rate,
            tenant_burst=self.tenant_burst,
        )


class _Outcome(NamedTuple):
    """Internal result of one admitted execution."""

    status: str
    degraded: bool = False
    error: Optional[str] = None
    ranking: Tuple[Tuple[str, float], ...] = ()
    detail: Tuple[Tuple[str, object], ...] = ()
    backoff: float = 0.0


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class ServiceCore:
    """Deterministic request execution over the selection stack."""

    def __init__(
        self,
        registry: UDDIRegistry,
        model: ReputationModel,
        config: Optional[ServeConfig] = None,
        policy: Optional[SelectionPolicy] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.registry = registry
        self.model = model
        self.fallback = StaleRankingFallback(
            max_age=self.config.stale_max_age
        )
        self.engine = SelectionEngine(
            registry, model, policy=policy, fallback=self.fallback
        )
        seeds = SeedSequenceFactory(self.config.seed)
        self.retry = RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay=self.config.retry_base_delay,
            multiplier=self.config.retry_multiplier,
            max_delay=self.config.retry_max_delay,
            jitter=self.config.retry_jitter,
            rng=seeds.spawn("serve.retry"),
        )
        self.breakers = self.config.breakers()
        self.admission = AdmissionController(self.config.admission())
        self.log = IngestLog()
        self._responses: Dict[int, ServeResponse] = {}
        self._catalog: Dict[str, None] = {}
        #: service -> the last ``(service, score)`` pair a response kept
        #: for it, shared by later responses while its score is unchanged
        self._pairs: Dict[str, Tuple[str, float]] = {}
        self._batches = 0
        self._rebuilding = False

    # -- bootstrap ----------------------------------------------------------

    def bootstrap(
        self, descriptions: Sequence[ServiceDescription]
    ) -> None:
        """Publish the initial catalogue outside the ingest log."""
        for description in descriptions:
            self.registry.publish(description)
            self._catalog[description.service] = None

    # -- sequenced ingest ---------------------------------------------------

    def admit_batch(
        self, arrivals: Sequence[Arrival]
    ) -> List[IngestRecord]:
        """Admit one quiescence batch in canonical arrival order."""
        batch = self._batches
        self._batches += 1
        ordered = sorted(arrivals, key=lambda a: a.order_key)
        records = []
        for arrival in ordered:
            record = self.admission.admit(arrival, batch)
            self.log.append(record)
            self._note_admission(record)
            records.append(record)
        return records

    def ingest(self, arrivals: Sequence[Arrival]) -> List[ServeResponse]:
        """Admit and execute one batch synchronously, exactly as the
        asyncio layer would: rejects settle during admission, admitted
        records execute afterwards in log order.  Responses come back
        in canonical (log) order."""
        records = self.admit_batch(arrivals)
        for record in records:
            if not record.admitted:
                self.execute(record)
        for record in records:
            if record.admitted:
                self.execute(record)
        return [self._responses[record.tick] for record in records]

    # -- execution ----------------------------------------------------------

    def execute(self, record: IngestRecord) -> ServeResponse:
        """Run one sequenced record to its response (idempotent per tick)."""
        done = self._responses.get(record.tick)
        if done is not None:
            return done
        arrival = record.arrival
        if not record.admitted:
            response = ServeResponse(
                kind=arrival.kind,
                tenant=arrival.tenant,
                client_id=arrival.client_id,
                client_seq=arrival.client_seq,
                status=record.decision,
                tick=record.tick,
                exec_tick=record.exec_tick,
                queue_wait=0.0,
                latency=0.0,
                error=f"admission rejected: {record.decision}",
            )
            return self._finish(record, response)
        queue_wait = from_ticks(record.wait_ticks)
        if record.wait_ticks > arrival.ttl_ticks:
            response = ServeResponse(
                kind=arrival.kind,
                tenant=arrival.tenant,
                client_id=arrival.client_id,
                client_seq=arrival.client_seq,
                status=STATUS_EXPIRED,
                tick=record.tick,
                exec_tick=record.exec_tick,
                queue_wait=queue_wait,
                latency=queue_wait,
                error=(
                    f"ttl exceeded: waited {record.wait_ticks} ticks "
                    f"> ttl {arrival.ttl_ticks}"
                ),
            )
            return self._finish(record, response)
        now = from_ticks(record.exec_tick)
        outcome = self._dispatch(arrival, now)
        base_latency = from_ticks(record.exec_tick - record.tick)
        # positional, in field order: the keyword binding costs a request
        response = ServeResponse(
            arrival.kind,
            arrival.tenant,
            arrival.client_id,
            arrival.client_seq,
            outcome.status,
            record.tick,
            record.exec_tick,
            queue_wait,
            base_latency + outcome.backoff,
            outcome.degraded,
            outcome.error,
            outcome.ranking,
            outcome.detail,
        )
        return self._finish(record, response)

    @property
    def responses(self) -> List[ServeResponse]:
        """Every settled response, in canonical (ingest tick) order."""
        return [self._responses[tick] for tick in sorted(self._responses)]

    # -- kind handlers ------------------------------------------------------

    def _dispatch(self, arrival: Arrival, now: float) -> _Outcome:
        payload = arrival.payload_dict()
        if arrival.kind == KIND_RANK:
            return self._exec_rank(payload, now)
        if arrival.kind == KIND_FEEDBACK:
            return self._exec_feedback(payload, now)
        if arrival.kind == KIND_REGISTER:
            return self._exec_register(payload, now)
        if arrival.kind == KIND_DEREGISTER:
            return self._exec_deregister(payload, now)
        return self._exec_admin(payload, now)

    def _exec_rank(self, payload: Dict[str, object], now: float) -> _Outcome:
        category = str(payload["category"])
        perspective_raw = payload.get("perspective")
        perspective = (
            None if perspective_raw is None else str(perspective_raw)
        )
        key = (category, perspective)
        fresh = partial(
            self._fresh_ranking,
            category,
            perspective,
            now,
            self.breakers.for_target(BACKEND_REGISTRY),
            self.breakers.for_target(BACKEND_SCORING),
        )
        outcome = self.retry.call(fresh)
        if outcome.succeeded:
            ranking: List[Tuple[str, float]] = outcome.value
            self.fallback.remember(key, ranking, now)
            return _Outcome(
                status=STATUS_OK,
                ranking=self._as_pairs(ranking),
                backoff=outcome.backoff_delay,
            )
        error = _error_text(outcome.error) if outcome.error else "failed"
        stale = self.fallback.recall(key, now)
        if stale:
            return _Outcome(
                status=STATUS_DEGRADED,
                degraded=True,
                error=error,
                ranking=self._as_pairs(stale),
                detail=pairs({"source": "stale_fallback"}),
                backoff=outcome.backoff_delay,
            )
        return _Outcome(
            status=STATUS_FAILED, error=error, backoff=outcome.backoff_delay
        )

    def _fresh_ranking(
        self,
        category: str,
        perspective: Optional[str],
        now: float,
        registry_breaker: CircuitBreaker,
        scoring_breaker: CircuitBreaker,
    ) -> List[Tuple[str, float]]:
        """One attempt at a fresh ranking, through both breakers."""
        if self._rebuilding:
            raise RebuildInProgressError("score table rebuild in progress")
        registry_breaker.guard(now)
        scoring_breaker.guard(now)
        try:
            ranking = self.engine.rank(category, perspective, now)
        except RegistryError:
            registry_breaker.record_failure(now)
            raise
        except ReproError:
            scoring_breaker.record_failure(now)
            raise
        registry_breaker.record_success(now)
        scoring_breaker.record_success(now)
        return ranking

    def _as_pairs(
        self, ranking: Sequence[Tuple[str, float]]
    ) -> Tuple[Tuple[str, float], ...]:
        """The ranking as plain ``(service, score)`` tuples that share
        memory with earlier responses.

        Responses are kept for the whole run, so every pair they hold
        counts towards the collector's next pass.  A service's pair is
        shared with earlier responses while its score is the same float:
        equal non-zero floats have equal bits, so a shared pair
        serializes to the same bytes.  Zeros (``0.0`` equals ``-0.0``)
        and non-float scores always get a pair of their own.
        """
        kept = self._pairs
        out = []
        for target, score in ranking:
            if type(score) is not float or not score:
                pair = (target, score)
            else:
                pair = kept.get(target)
                if pair is None or pair[1] != score:
                    pair = kept[target] = (target, score)
            out.append(pair)
        return tuple(out)

    def _exec_feedback(
        self, payload: Dict[str, object], now: float
    ) -> _Outcome:
        feedback = Feedback(
            rater=str(payload["rater"]),
            target=str(payload["target"]),
            time=now,
            rating=float(payload["rating"]),  # type: ignore[arg-type]
        )
        try:
            self.model.record(feedback)
        except ReproError as exc:
            return _Outcome(status=STATUS_FAILED, error=_error_text(exc))
        self._catalog.setdefault(feedback.target, None)
        # ``pairs({"target": feedback.target})``, built directly
        return _Outcome(status=STATUS_OK, detail=(("target", feedback.target),))

    def _exec_register(
        self, payload: Dict[str, object], now: float
    ) -> _Outcome:
        description = ServiceDescription(
            service=str(payload["service"]),
            provider=str(payload["provider"]),
            category=str(payload["category"]),
            version=int(payload["version"]),  # type: ignore[arg-type]
        )
        breaker = self.breakers.for_target(BACKEND_REGISTRY)

        def publish() -> None:
            breaker.guard(now)
            try:
                self.registry.publish(description)
            except RegistryError:
                # A stale republish is the caller's error; only an
                # actually-down registry counts against the breaker.
                if self.registry.is_failed:
                    breaker.record_failure(now)
                raise
            breaker.record_success(now)

        outcome = self.retry.call(publish)
        if not outcome.succeeded:
            error = _error_text(outcome.error) if outcome.error else "failed"
            return _Outcome(
                status=STATUS_FAILED,
                error=error,
                backoff=outcome.backoff_delay,
            )
        self._catalog.setdefault(description.service, None)
        return _Outcome(
            status=STATUS_OK,
            detail=pairs({"registry_version": self.registry.version}),
            backoff=outcome.backoff_delay,
        )

    def _exec_deregister(
        self, payload: Dict[str, object], now: float
    ) -> _Outcome:
        service = str(payload["service"])
        breaker = self.breakers.for_target(BACKEND_REGISTRY)

        def unpublish() -> None:
            breaker.guard(now)
            try:
                self.registry.unpublish(service)
            except RegistryError:
                if self.registry.is_failed:
                    breaker.record_failure(now)
                raise
            breaker.record_success(now)

        outcome = self.retry.call(unpublish)
        if not outcome.succeeded:
            error = _error_text(outcome.error) if outcome.error else "failed"
            return _Outcome(
                status=STATUS_FAILED,
                error=error,
                backoff=outcome.backoff_delay,
            )
        return _Outcome(
            status=STATUS_OK,
            detail=pairs({"registry_version": self.registry.version}),
            backoff=outcome.backoff_delay,
        )

    def _exec_admin(
        self, payload: Dict[str, object], now: float
    ) -> _Outcome:
        action = str(payload["action"])
        if action == "fail_registry":
            self.registry.fail()
        elif action == "heal_registry":
            self.registry.heal()
        elif action == "begin_rebuild":
            self._rebuilding = True
        elif action == "end_rebuild":
            self._rebuilding = False
        else:
            return _Outcome(
                status=STATUS_FAILED, error=f"unknown action: {action}"
            )
        return _Outcome(status=STATUS_OK, detail=pairs({"action": action}))

    # -- canonical outputs --------------------------------------------------

    def final_scores(self, now: Optional[float] = None) -> Dict[str, float]:
        """``{service: score}`` over every service the core ever saw,
        in sorted id order — the scores half of the replay identity."""
        targets = sorted(self._catalog)
        scores = self.model.score_many(targets, None, now)
        return {
            target: float(score) for target, score in zip(targets, scores)
        }

    # -- telemetry ----------------------------------------------------------

    def _note_admission(self, record: IngestRecord) -> None:
        rec = get_recorder()
        if not rec.enabled:
            return
        arrival = record.arrival
        rec.advance(from_ticks(record.tick))
        rec.count(
            "serve.admission",
            labels=(arrival.tenant, record.decision),
            label_names=("tenant", "decision"),
        )
        rec.gauge("serve.ingest.backlog", float(self.admission.queue.depth))
        if record.admitted:
            rec.observe(
                "serve.queue_wait",
                from_ticks(record.wait_ticks),
                labels=(arrival.tenant,),
                label_names=("tenant",),
                buckets=SERVE_WAIT_BUCKETS,
            )

    def _finish(
        self, record: IngestRecord, response: ServeResponse
    ) -> ServeResponse:
        self._responses[record.tick] = response
        rec = get_recorder()
        if not rec.enabled:
            return response
        rec.count(
            "serve.requests",
            labels=(response.tenant, response.kind, response.status),
            label_names=("tenant", "kind", "status"),
        )
        if record.admitted:
            if response.kind == KIND_RANK and response.ok:
                rec.observe(
                    "serve.rank.latency",
                    response.latency,
                    labels=(response.tenant,),
                    label_names=("tenant",),
                    buckets=SERVE_LATENCY_BUCKETS,
                )
            rec.span(
                "serve.exec",
                time=from_ticks(record.tick),
                duration=response.latency,
                attrs={
                    "kind": response.kind,
                    "status": response.status,
                    "tenant": response.tenant,
                    "tick": record.tick,
                },
            )
        return response

