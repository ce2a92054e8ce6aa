"""Typed request/response protocol for the :mod:`repro.serve` layer.

Every request enters the service as an :class:`Arrival` — a frozen,
canonically-encodable value stamped with the *client's* simulation time
(int64 ticks, see :mod:`repro.common.simtime`), the submitting client's
id and per-client sequence number, the tenant it bills to, and a typed
payload.  The ingest sequencer (see :mod:`repro.serve.ingest`) orders
arrivals by ``(client_tick, client_id, client_seq)``, assigns each a
strictly monotonic ingest tick, and turns it into an
:class:`IngestRecord` carrying the admission decision.  The append-only
:class:`IngestLog` of those records is the serve layer's canonical
state: replaying it reproduces every response, score, and trace byte
for byte (see :mod:`repro.serve.replay`).

Responses are :class:`ServeResponse` values with a typed status —
``ok``/``degraded`` for served requests, ``shed``/``throttled`` for
admission rejects, ``expired`` for requests whose virtual queue wait
exceeded their TTL, ``failed`` for requests the degradation ladder
could not save.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.simtime import from_ticks, to_ticks
from repro.obs.trace import canonical_json

__all__ = [
    "ADMIN_ACTIONS",
    "ADMITTED",
    "DECISIONS",
    "DEFAULT_TTL",
    "Arrival",
    "IngestLog",
    "IngestRecord",
    "KINDS",
    "KIND_ADMIN",
    "KIND_DEREGISTER",
    "KIND_FEEDBACK",
    "KIND_RANK",
    "KIND_REGISTER",
    "STATUSES",
    "STATUS_DEGRADED",
    "STATUS_EXPIRED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_THROTTLED",
    "ServeResponse",
    "admin_arrival",
    "deregister_arrival",
    "feedback_arrival",
    "pairs",
    "rank_arrival",
    "register_arrival",
    "responses_sha256",
    "unpairs",
]

# -- request kinds ----------------------------------------------------------

KIND_RANK = "rank"
KIND_FEEDBACK = "feedback"
KIND_REGISTER = "register"
KIND_DEREGISTER = "deregister"
KIND_ADMIN = "admin"
KINDS = (KIND_ADMIN, KIND_DEREGISTER, KIND_FEEDBACK, KIND_RANK, KIND_REGISTER)

# -- admission decisions ----------------------------------------------------

ADMITTED = "admitted"
DECISIONS = (ADMITTED, "shed", "throttled")

# -- response statuses ------------------------------------------------------

STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_FAILED = "failed"
STATUS_EXPIRED = "expired"
STATUS_SHED = "shed"
STATUS_THROTTLED = "throttled"
STATUSES = (
    STATUS_DEGRADED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_THROTTLED,
)

#: default request TTL in simulation time units: a request that would
#: sit in the virtual queue longer than this expires instead of serving
#: a stale answer the client has already given up on.
DEFAULT_TTL = 2.0

Pairs = Tuple[Tuple[str, Any], ...]

#: payload value types that are never a Mapping (spares the ABC check)
_SCALARS = frozenset((str, int, float, bool, type(None)))


def pairs(mapping: Mapping[str, Any]) -> Pairs:
    """A mapping as a hashable, key-sorted tuple of pairs (recursive)."""
    out: List[Tuple[str, Any]] = []
    for key in sorted(mapping):
        value = mapping[key]
        if type(value) not in _SCALARS and isinstance(value, Mapping):
            value = pairs(value)
        out.append((str(key), value))
    return tuple(out)


def unpairs(payload: Pairs) -> Dict[str, Any]:
    """Inverse of :func:`pairs`: pair-tuples back to plain dicts."""
    if type(payload) is tuple:
        flat = dict(payload)
        if not any(map(isinstance, flat.values(), repeat(tuple))):
            return flat  # no value can be a nested pair-tuple
    out: Dict[str, Any] = {}
    for key, value in payload:
        if isinstance(value, tuple) and all(
            isinstance(item, tuple) and len(item) == 2 for item in value
        ):
            out[key] = unpairs(value)
        else:
            out[key] = value
    return out


@dataclass(frozen=True)
class Arrival:
    """One request as submitted, before sequencing and admission.

    ``client_tick`` is the submitting client's simulation clock in
    int64 ticks; ``client_seq`` increments per client, so the canonical
    ingest order ``(client_tick, client_id, client_seq)`` is a pure
    function of *what was submitted*, never of how submissions happened
    to interleave on the event loop.
    """

    client_tick: int
    client_id: str
    client_seq: int
    tenant: str
    kind: str
    ttl_ticks: int
    payload: Pairs = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.ttl_ticks < 0:
            raise ValueError("ttl_ticks must be non-negative")

    @property
    def order_key(self) -> Tuple[int, str, int]:
        return (self.client_tick, self.client_id, self.client_seq)

    def payload_dict(self) -> Dict[str, Any]:
        return unpairs(self.payload)


def _arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    tenant: str,
    kind: str,
    ttl: float,
    payload: Mapping[str, Any],
) -> Arrival:
    return Arrival(
        client_tick=to_ticks(now),
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=kind,
        ttl_ticks=to_ticks(ttl),
        payload=pairs(payload),
    )


def rank_arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    tenant: str,
    category: str,
    perspective: Optional[str] = None,
    ttl: float = DEFAULT_TTL,
) -> Arrival:
    """A ``rank_for_consumer`` request for *category*."""
    return _arrival(
        now=now,
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=KIND_RANK,
        ttl=ttl,
        payload={"category": category, "perspective": perspective},
    )


def feedback_arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    tenant: str,
    rater: str,
    target: str,
    rating: float,
    ttl: float = DEFAULT_TTL,
) -> Arrival:
    """A ``submit_feedback`` request rating *target* in ``[0, 1]``."""
    if not 0.0 <= rating <= 1.0:
        raise ValueError(f"rating must be in [0, 1], got {rating}")
    return _arrival(
        now=now,
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=KIND_FEEDBACK,
        ttl=ttl,
        payload={"rater": rater, "target": target, "rating": float(rating)},
    )


def register_arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    tenant: str,
    service: str,
    provider: str,
    category: str,
    version: int = 1,
    ttl: float = DEFAULT_TTL,
) -> Arrival:
    """A ``register_service`` request publishing into the registry."""
    return _arrival(
        now=now,
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=KIND_REGISTER,
        ttl=ttl,
        payload={
            "service": service,
            "provider": provider,
            "category": category,
            "version": int(version),
        },
    )


def deregister_arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    tenant: str,
    service: str,
    ttl: float = DEFAULT_TTL,
) -> Arrival:
    """A ``deregister_service`` request."""
    return _arrival(
        now=now,
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=KIND_DEREGISTER,
        ttl=ttl,
        payload={"service": service},
    )


#: admin actions routed through the same sequenced ingest path, so
#: chaos (registry outages, score-table rebuilds) lands at a
#: deterministic point in the log instead of racing the event loop.
ADMIN_ACTIONS = (
    "begin_rebuild",
    "end_rebuild",
    "fail_registry",
    "heal_registry",
)


def admin_arrival(
    *,
    now: float,
    client_id: str,
    client_seq: int,
    action: str,
    tenant: str = "_admin",
    ttl: float = DEFAULT_TTL,
) -> Arrival:
    """A sequenced administrative action (see :data:`ADMIN_ACTIONS`)."""
    if action not in ADMIN_ACTIONS:
        raise ValueError(f"unknown admin action {action!r}")
    return _arrival(
        now=now,
        client_id=client_id,
        client_seq=client_seq,
        tenant=tenant,
        kind=KIND_ADMIN,
        ttl=ttl,
        payload={"action": action},
    )


@dataclass(frozen=True)
class IngestRecord:
    """One sequenced arrival plus its admission outcome.

    ``tick`` is the assigned ingest tick — strictly monotonic over the
    log, ``max(client_tick, previous + 1)``.  ``wait_ticks`` is the
    virtual queue wait granted at admission and ``exec_tick`` the
    virtual execution time (``tick`` for rejected arrivals).
    """

    tick: int
    batch: int
    decision: str
    wait_ticks: int
    exec_tick: int
    arrival: Arrival

    def __post_init__(self) -> None:
        if self.decision not in DECISIONS:
            raise ValueError(f"unknown decision {self.decision!r}")

    @property
    def admitted(self) -> bool:
        return self.decision == ADMITTED

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tick": self.tick,
            "batch": self.batch,
            "decision": self.decision,
            "wait_ticks": self.wait_ticks,
            "exec_tick": self.exec_tick,
            "client_tick": self.arrival.client_tick,
            "client_id": self.arrival.client_id,
            "client_seq": self.arrival.client_seq,
            "tenant": self.arrival.tenant,
            "kind": self.arrival.kind,
            "ttl_ticks": self.arrival.ttl_ticks,
            "payload": self.arrival.payload_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IngestRecord":
        arrival = Arrival(
            client_tick=int(data["client_tick"]),
            client_id=str(data["client_id"]),
            client_seq=int(data["client_seq"]),
            tenant=str(data["tenant"]),
            kind=str(data["kind"]),
            ttl_ticks=int(data["ttl_ticks"]),
            payload=pairs(data["payload"]),
        )
        return cls(
            tick=int(data["tick"]),
            batch=int(data["batch"]),
            decision=str(data["decision"]),
            wait_ticks=int(data["wait_ticks"]),
            exec_tick=int(data["exec_tick"]),
            arrival=arrival,
        )

    def line(self) -> str:
        return canonical_json(self.to_dict())


class IngestLog:
    """Append-only, canonically-serializable log of ingest records.

    The log *is* the service's durable state: its canonical bytes hash
    to the replay identity every determinism gate checks, and feeding
    it back through :func:`repro.serve.replay.replay_log` reproduces
    every response and trace byte for byte.
    """

    __slots__ = ("_records",)

    def __init__(self, records: Sequence[IngestRecord] = ()) -> None:
        self._records = list(records)

    def append(self, record: IngestRecord) -> None:
        if self._records and record.tick <= self._records[-1].tick:
            raise ValueError(
                f"non-monotonic ingest tick {record.tick} after "
                f"{self._records[-1].tick}"
            )
        self._records.append(record)

    @property
    def records(self) -> Tuple[IngestRecord, ...]:
        return tuple(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[IngestRecord]:
        return iter(self._records)

    def canonical_bytes(self) -> bytes:
        lines = [record.line() for record in self._records]
        return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, Any]]
    ) -> "IngestLog":
        return cls([IngestRecord.from_dict(item) for item in records])


@dataclass(frozen=True)
class ServeResponse:
    """The typed answer to one arrival, canonical across replays.

    All times are *simulation* quantities derived from ingest ticks:
    ``queue_wait`` is the virtual queue wait, ``latency`` adds the
    service cost and any accounted retry backoff.  ``ranking`` is the
    best-first ``(service, score)`` ranking for rank requests (possibly
    age-discounted when ``degraded``).
    """

    kind: str
    tenant: str
    client_id: str
    client_seq: int
    status: str
    tick: int
    exec_tick: int
    queue_wait: float
    latency: float
    degraded: bool = False
    error: Optional[str] = None
    ranking: Tuple[Tuple[str, float], ...] = ()
    detail: Pairs = ()

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_OK, STATUS_DEGRADED)

    @property
    def admitted_at(self) -> float:
        return from_ticks(self.tick)

    @property
    def executed_at(self) -> float:
        return from_ticks(self.exec_tick)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "tenant": self.tenant,
            "client_id": self.client_id,
            "client_seq": self.client_seq,
            "status": self.status,
            "tick": self.tick,
            "exec_tick": self.exec_tick,
            "queue_wait": self.queue_wait,
            "latency": self.latency,
            "degraded": self.degraded,
            "error": self.error,
            "ranking": [[target, score] for target, score in self.ranking],
            "detail": unpairs(self.detail),
        }

    def line(self) -> str:
        return canonical_json(self.to_dict())


def responses_sha256(responses: Sequence[ServeResponse]) -> str:
    """The canonical identity of an ordered response sequence."""
    digest = hashlib.sha256()
    for response in responses:
        digest.update(response.line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
