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

from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
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
    """A live recorder: a metrics registry plus a sim-time tracer."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, time: float) -> None:
        """Move the recorder's sim clock forward (never backward)."""
        if time > self._now:
            self._now = float(time)

    def count(
        self,
        name: str,
        amount: float = 1.0,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        self.registry.counter(name, "", label_names).inc(amount, labels)

    def gauge(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
    ) -> None:
        self.registry.gauge(name, "", label_names).set(value, labels)

    def observe(
        self,
        name: str,
        value: float,
        labels: Sequence[str] = (),
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.registry.histogram(name, "", label_names, buckets).observe(
            value, labels
        )

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
        self.advance(at + duration)
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
