"""The recorder facade: one handle for metrics + tracing, off by default.

Instrumented code follows the `logging` pattern — fetch the ambient
recorder and bail out on a single attribute check::

    rec = get_recorder()
    if rec.enabled:
        rec.count("net.messages.sent", labels=(kind,))

The default recorder is a :class:`NoOpRecorder` (``enabled`` is
``False``), so the disabled cost of an instrumentation site is one
global read and one attribute check.  Experiments that want telemetry
install a live :class:`Recorder` for the duration of a trial via
:func:`use_recorder`.

Determinism contract: the recorder never reads wall-clock time.  Its
notion of "now" is the maximum sim time it has been shown via
:meth:`Recorder.advance` (the sim kernel advances it on every event
dispatch).  Code running outside a simulator — e.g. batch scoring in an
experiment loop — records at the last-known sim time, which is still a
pure function of the workload.

The ambient slot is module-global, not thread-local: trials in the
parallel runtime are isolated per *process*, and a worker runs one
trial at a time, so a plain global is deterministic there.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import TelemetrySnapshot, TraceEvent, Tracer

__all__ = [
    "Recorder",
    "NoOpRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
]


class NoOpRecorder:
    """Default recorder: every operation is a cheap no-op.

    ``enabled`` is the hot-path gate — instrumentation sites check it
    before building labels or attr dicts so the disabled cost stays
    within the benchmark budget.
    """

    enabled: bool = False

    @property
    def now(self) -> float:
        return 0.0

    def advance(self, time: float) -> None:
        return None

    def count(
        self,
        name: str,
        amount: float = 1.0,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        return None

    def gauge(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        return None

    def observe(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        return None

    def event(
        self,
        name: str,
        attrs: Optional[Mapping[str, Any]] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        return None

    def span(
        self,
        name: str,
        duration: float = 0.0,
        attrs: Optional[Mapping[str, Any]] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        return None

    def snapshot(
        self, meta: Optional[Mapping[str, Any]] = None
    ) -> TelemetrySnapshot:
        return TelemetrySnapshot(meta=dict(meta or {}))


class Recorder(NoOpRecorder):
    """A live recorder: a metrics registry plus a sim-time tracer.

    ``count``, ``gauge`` and ``observe`` keep a handle per ``(kind,
    name, label_names)``: the metric the registry's checked
    get-or-create returned the first time.  Registrations outlive
    :meth:`reset`, so a handle stays valid.  With a handle in hand and
    labels that are a tuple of exact ``str`` of the right length (the
    key :meth:`Metric._key` would return as is), the series is updated
    in this one frame; anything else (list label names, int or numpy
    labels, a kind or label-name conflict, a negative amount) takes
    the metric's own checked path and converts or raises as it always
    did.  ``tests/test_obs/test_fast_paths.py`` holds the former
    bodies as the oracle.
    """

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._now = 0.0
        self._handles: Dict[Tuple[str, str, Sequence[str]], Any] = {}

    @property
    def now(self) -> float:
        return self._now

    def advance(self, time: float) -> None:
        """Move the recorder's sim clock forward (never backward)."""
        if time > self._now:
            self._now = float(time)

    def _handle(
        self, cls: type, name: str, label_names: Sequence[str], **kwargs: Any
    ) -> Any:
        """A handle-cache miss: the registry's checked get-or-create,
        kept when the metric is exactly a *cls* and the key hashes."""
        metric = self.registry._get_or_create(
            cls, name, "", label_names, **kwargs
        )
        if type(metric) is cls:
            try:
                self._handles[cls.kind, name, label_names] = metric
            except TypeError:  # list label names: the checked path each time
                pass
        return metric

    def count(
        self,
        name: str,
        amount: float = 1.0,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        try:
            metric = self._handles["counter", name, label_names]
        except (KeyError, TypeError):
            metric = self._handle(Counter, name, label_names)
        if type(labels) is tuple:
            for label in labels:
                if type(label) is not str:
                    break
            else:
                if len(labels) == len(metric.label_names) and not amount < 0:
                    series = metric.series
                    series[labels] = series.get(labels, 0.0) + amount
                    return
        metric.inc(amount, labels)

    def gauge(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        try:
            metric = self._handles["gauge", name, label_names]
        except (KeyError, TypeError):
            metric = self._handle(Gauge, name, label_names)
        if type(labels) is tuple:
            for label in labels:
                if type(label) is not str:
                    break
            else:
                if len(labels) == len(metric.label_names):
                    metric.series[labels] = float(value)
                    return
        metric.set(value, labels)

    def observe(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        try:
            metric = self._handles["histogram", name, label_names]
        except (KeyError, TypeError):
            metric = self._handle(Histogram, name, label_names, buckets=buckets)
        if type(labels) is tuple:
            for label in labels:
                if type(label) is not str:
                    break
            else:
                if len(labels) == len(metric.label_names):
                    # Histogram.observe, with *labels* as its own key
                    entry = metric.series.get(labels)
                    if entry is None:
                        entry = metric.series[labels] = {
                            "counts": [0] * (len(metric.buckets) + 1),
                            "count": 0,
                            "sum": 0.0,
                        }
                    value = float(value)
                    entry["counts"][bisect_left(metric.buckets, value)] += 1
                    entry["count"] += 1
                    entry["sum"] += value
                    return
        metric.observe(value, labels)

    def event(
        self,
        name: str,
        attrs: Optional[Mapping[str, Any]] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        at = self._now if time is None else float(time)
        self.advance(at)
        return self.tracer.emit(name, at, "event", 0.0, attrs)

    def span(
        self,
        name: str,
        duration: float = 0.0,
        attrs: Optional[Mapping[str, Any]] = None,
        time: Optional[float] = None,
    ) -> Optional[TraceEvent]:
        at = self._now if time is None else float(time)
        end = at + duration  # advance(at + duration), inline
        if end > self._now:
            self._now = float(end)
        return self.tracer.emit(name, at, "span", duration, attrs)

    def snapshot(
        self, meta: Optional[Mapping[str, Any]] = None
    ) -> TelemetrySnapshot:
        return TelemetrySnapshot.capture(self.tracer, self.registry, meta)

    def reset(self) -> None:
        self.registry.reset()
        self.tracer.reset()
        self._now = 0.0


_DEFAULT = NoOpRecorder()
_CURRENT: NoOpRecorder = _DEFAULT


def get_recorder() -> NoOpRecorder:
    """The ambient recorder (a no-op unless one was installed)."""
    return _CURRENT


def set_recorder(recorder: Optional[NoOpRecorder]) -> NoOpRecorder:
    """Install ``recorder`` as ambient; ``None`` restores the no-op.

    Returns the previously installed recorder so callers can restore it.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = recorder if recorder is not None else _DEFAULT
    return previous


@contextmanager
def use_recorder(recorder: NoOpRecorder) -> Iterator[NoOpRecorder]:
    """Scope an ambient recorder to a ``with`` block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
