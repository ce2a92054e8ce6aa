"""Sim-clock-stamped event/span tracer with canonical JSONL export.

Every trace event is stamped with *simulation* time (never wall-clock)
plus a per-tracer sequence number, giving a strict ``(sim_time, seq)``
total order: two events can share a sim time, but never a sequence
number.  Because both components derive purely from the simulated
workload, a trace is byte-identical across runs and across
process-pool worker counts for the same seed.

Serialization is canonical JSON — ``sort_keys=True``, compact
separators, attribute values coerced to plain str/int/float/bool/None —
so exported files can be compared with ``cmp``/sha256 directly.

A :class:`TelemetrySnapshot` bundles a tracer's events with a metrics
snapshot; snapshots from independent trials merge in canonical spec
order (events re-labeled with their trial and ordered by
``(trial_index, seq)``; metric series summed per
:meth:`MetricsRegistry.merge_snapshots`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    IO,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.common.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "TraceEvent",
    "Tracer",
    "TelemetrySnapshot",
    "canonical_json",
    "write_jsonl",
    "dump_jsonl",
    "read_jsonl",
    "load_jsonl",
]

#: Trace format version, stamped into the JSONL meta line.
TRACE_VERSION = 1

AttrValue = Union[str, int, float, bool, None]


def _coerce_attr(value: Any) -> AttrValue:
    """Force attribute values to canonical JSON scalars.

    Numpy scalars, Enums, and other exotica would serialize
    inconsistently (or not at all); pin everything to plain Python
    str/int/float/bool/None before it enters the trace.
    """
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    # Numpy integer/floating expose item(); anything else becomes str.
    item = getattr(value, "item", None)
    if callable(item):
        return _coerce_attr(item())
    return str(value)


@dataclass(frozen=True)
class TraceEvent:
    """One point ("event") or interval ("span") in sim time."""

    time: float
    seq: int
    name: str
    kind: str = "event"  # "event" | "span"
    duration: float = 0.0  # sim-time width; 0 for point events
    attrs: Tuple[Tuple[str, AttrValue], ...] = ()

    def sort_key(self) -> Tuple[float, int]:
        return (self.time, self.seq)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.time,
            "seq": self.seq,
            "name": self.name,
            "kind": self.kind,
            "dur": self.duration,
            "attrs": {k: v for k, v in self.attrs},
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "TraceEvent":
        attrs = payload.get("attrs", {})
        return TraceEvent(
            time=float(payload["t"]),
            seq=int(payload["seq"]),
            name=str(payload["name"]),
            kind=str(payload.get("kind", "event")),
            duration=float(payload.get("dur", 0.0)),
            attrs=tuple(sorted((str(k), _coerce_attr(v)) for k, v in attrs.items())),
        )


#: attr value types that are canonical as they are (``bool`` is an
#: ``int`` subclass and still goes through :func:`_coerce_attr`)
_PLAIN = frozenset((str, int, float))
#: what the frozen dataclass ``__init__`` does, without its keyword
#: binding: :meth:`Tracer.emit` sets the fields in declaration order,
#: so an event's state (and so its equality, repr and pickle) is the
#: one ``TraceEvent(...)`` would build
_new_event = object.__new__
_set = object.__setattr__


class Tracer:
    """Collects :class:`TraceEvent` records in ``(sim_time, seq)`` order.

    The tracer does not own a clock; callers pass sim time explicitly
    (usually via :class:`repro.obs.recorder.Recorder`, which tracks the
    max sim time it has seen).  The ``seq`` counter breaks ties between
    events at the same instant and makes the order total.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._seq = 0
        #: one instance of each ``(str, str)`` attr pair: equal pairs of
        #: exact strs have equal bytes, so events share them and the
        #: collector has fewer new objects to count and scan
        self._pairs: Dict[Tuple[str, str], Tuple[str, str]] = {}

    def emit(
        self,
        name: str,
        time: float,
        kind: str = "event",
        duration: float = 0.0,
        attrs: Optional[Mapping[str, Any]] = None,
    ) -> TraceEvent:
        if duration < 0:
            raise ConfigurationError(
                f"span {name!r} has negative duration {duration}"
            )
        packed: Tuple[Tuple[str, AttrValue], ...] = ()
        if attrs:
            shared = self._pairs
            plain: List[Tuple[str, AttrValue]] = []
            for pair in attrs.items():
                key, value = pair
                vtype = type(value)
                if type(key) is not str or vtype not in _PLAIN:
                    packed = tuple(
                        sorted(
                            (str(k), _coerce_attr(v)) for k, v in attrs.items()
                        )
                    )
                    break
                if vtype is str:
                    pair = shared.setdefault(pair, pair)
                plain.append(pair)
            else:
                # every pair is already canonical: str() and
                # _coerce_attr() would return each key and value as is
                plain.sort()
                packed = tuple(plain)
        event = _new_event(TraceEvent)
        _set(event, "time", float(time))
        _set(event, "seq", self._seq)
        _set(event, "name", name)
        _set(event, "kind", kind)
        _set(event, "duration", float(duration))
        _set(event, "attrs", packed)
        self._seq += 1
        self.events.append(event)
        return event

    def reset(self) -> None:
        self.events = []
        self._seq = 0
        self._pairs = {}


@dataclass
class TelemetrySnapshot:
    """A trial's telemetry: trace events + a metrics snapshot.

    ``meta`` carries identifying context (trial label, seed, model);
    its values must be canonical JSON scalars.
    """

    events: List[TraceEvent] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, AttrValue] = field(default_factory=dict)

    @staticmethod
    def capture(
        tracer: Tracer,
        registry: MetricsRegistry,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "TelemetrySnapshot":
        return TelemetrySnapshot(
            events=list(tracer.events),
            metrics=registry.snapshot(),
            meta={
                str(k): _coerce_attr(v) for k, v in (meta or {}).items()
            },
        )

    @staticmethod
    def merge(
        snapshots: Sequence["TelemetrySnapshot"],
        labels: Optional[Sequence[str]] = None,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> "TelemetrySnapshot":
        """Merge per-trial snapshots in the given (canonical) order.

        Events gain a ``trial`` attribute and are re-sequenced by
        ``(trial_index, seq)`` so the merged stream is identical no
        matter how many workers produced the inputs.  Metrics merge per
        :meth:`MetricsRegistry.merge_snapshots`.
        """
        if labels is not None and len(labels) != len(snapshots):
            raise ConfigurationError(
                f"{len(labels)} labels for {len(snapshots)} snapshots"
            )
        events: List[TraceEvent] = []
        seq = 0
        for index, snap in enumerate(snapshots):
            label = labels[index] if labels is not None else str(index)
            for event in snap.events:
                events.append(
                    TraceEvent(
                        time=event.time,
                        seq=seq,
                        name=event.name,
                        kind=event.kind,
                        duration=event.duration,
                        attrs=tuple(
                            sorted(dict(event.attrs, trial=label).items())
                        ),
                    )
                )
                seq += 1
        merged_meta: Dict[str, AttrValue] = {
            "trials": len(snapshots),
        }
        if labels is not None:
            merged_meta["labels"] = ",".join(labels)
        for k, v in (meta or {}).items():
            merged_meta[str(k)] = _coerce_attr(v)
        return TelemetrySnapshot(
            events=events,
            metrics=MetricsRegistry.merge_snapshots(
                [snap.metrics for snap in snapshots]
            ),
            meta=merged_meta,
        )


def canonical_json(obj: Any) -> str:
    """Canonical, byte-stable JSON encoding (sorted keys, compact)."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def write_jsonl(snapshot: TelemetrySnapshot, stream: IO[str]) -> None:
    """Write a snapshot as canonical JSONL.

    Line 1 is a ``meta`` record (format version + snapshot meta), then
    one ``event`` record per trace event in ``(time, seq)`` order, then
    a final ``metrics`` record.
    """
    header = {
        "record": "meta",
        "version": TRACE_VERSION,
        "meta": dict(sorted(snapshot.meta.items())),
    }
    stream.write(canonical_json(header) + "\n")
    for event in sorted(snapshot.events, key=TraceEvent.sort_key):
        payload = event.to_dict()
        payload["record"] = "event"
        stream.write(canonical_json(payload) + "\n")
    stream.write(
        canonical_json({"record": "metrics", "metrics": snapshot.metrics})
        + "\n"
    )


def dump_jsonl(snapshot: TelemetrySnapshot, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        write_jsonl(snapshot, handle)


def read_jsonl(lines: Iterable[str]) -> TelemetrySnapshot:
    """Parse a JSONL trace back into a :class:`TelemetrySnapshot`."""
    snapshot = TelemetrySnapshot()
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        payload = json.loads(raw)
        record = payload.get("record")
        if record == "meta":
            snapshot.meta = {
                str(k): _coerce_attr(v)
                for k, v in payload.get("meta", {}).items()
            }
        elif record == "event":
            snapshot.events.append(TraceEvent.from_dict(payload))
        elif record == "metrics":
            snapshot.metrics = payload.get("metrics", {})
        else:
            raise ConfigurationError(
                f"unknown trace record type {record!r}"
            )
    return snapshot


def load_jsonl(path: str) -> TelemetrySnapshot:
    with open(path, "r", encoding="utf-8") as handle:
        return read_jsonl(handle)
