"""Deterministic metrics registry: counters, gauges, histograms.

The registry is the one place cost and performance counters live.  It
is deliberately boring: plain dict storage, fixed histogram bucket
boundaries, and label values carried as tuples of strings — no
wall-clock reads, no ambient randomness, no hash-order iteration — so a
snapshot of a registry is a pure function of the operations applied to
it and serializes byte-identically across runs, interpreters, and
process-pool workers.

Three metric kinds:

* :class:`Counter` — monotonically increasing totals (messages sent,
  probes issued, cache hits).
* :class:`Gauge` — last-written values (queue depth, breaker state).
* :class:`Histogram` — value distributions over *fixed* bucket
  boundaries chosen at registration time (batch sizes, iteration
  counts).  Fixed boundaries make merged snapshots well-defined:
  bucket counts from different trials add.

Metrics are labeled (``labels=("model",)``) and every distinct label
tuple owns an independent series.  :meth:`MetricsRegistry.snapshot`
renders everything to a JSON-able dict with sorted names and sorted
series keys; :meth:`MetricsRegistry.merge_snapshots` merges snapshots
in the caller's (canonical) order.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

LabelValues = Tuple[str, ...]

#: Default histogram boundaries: a 1-2-5 ladder wide enough for batch
#: sizes, iteration counts, and message tallies.  An implicit overflow
#: bucket catches everything above the last boundary.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


def _as_number(value: float) -> Union[int, float]:
    """Integral floats render as ints in snapshots (stable and readable)."""
    number = float(value)
    if number.is_integer():
        return int(number)
    return number


class Metric:
    """Base class: a named family of labeled series."""

    kind = "abstract"

    def __init__(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> None:
        if not name:
            raise ConfigurationError("metric name must be non-empty")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self.series: Dict[LabelValues, Any] = {}

    def _key(self, labels: Sequence[str]) -> LabelValues:
        # Fast path: a tuple of exact ``str`` is already its own key
        # (``str()`` of an exact str is itself).  Anything else (ints,
        # bools, numpy scalars, str subclasses, lists) is converted.
        key: LabelValues
        if type(labels) is tuple:
            for value in labels:
                if type(value) is not str:
                    key = tuple(str(v) for v in labels)
                    break
            else:
                key = labels
        else:
            key = tuple(str(v) for v in labels)
        if len(key) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {key!r}"
            )
        return key

    def items(self) -> List[Tuple[LabelValues, Any]]:
        """Series in sorted label order (deterministic)."""
        return sorted(self.series.items())

    def _series_snapshot(self, value: Any) -> Any:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able view: sorted series, label values as lists."""
        return {
            "kind": self.kind,
            "labels": list(self.label_names),
            "series": [
                [list(key), self._series_snapshot(value)]
                for key, value in self.items()
            ],
        }


class Counter(Metric):
    """A monotonically increasing total per label tuple."""

    kind = "counter"

    def inc(self, amount: float = 1.0, labels: Sequence[str] = ()) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        key = self._key(labels)
        self.series[key] = self.series.get(key, 0.0) + amount

    def value(self, labels: Sequence[str] = ()) -> float:
        return float(self.series.get(self._key(labels), 0.0))

    def total(self) -> float:
        """Sum across all label tuples."""
        return float(sum(self.series[key] for key, _ in self.items()))

    def _series_snapshot(self, value: Any) -> Any:
        return _as_number(value)


class Gauge(Metric):
    """A last-written value per label tuple."""

    kind = "gauge"

    def set(self, value: float, labels: Sequence[str] = ()) -> None:
        self.series[self._key(labels)] = float(value)

    def value(
        self, labels: Sequence[str] = (), default: float = 0.0
    ) -> float:
        return float(self.series.get(self._key(labels), default))

    def _series_snapshot(self, value: Any) -> Any:
        return _as_number(value)


class Histogram(Metric):
    """Bucketed value distribution with *fixed* boundaries.

    A series holds ``len(boundaries) + 1`` non-cumulative bucket counts
    (the final bucket is the overflow above the last boundary), plus
    the running count and sum — enough to merge across trials and to
    report means without storing samples.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.buckets: Tuple[float, ...] = bounds

    def observe(self, value: float, labels: Sequence[str] = ()) -> None:
        key = self._key(labels)
        entry = self.series.get(key)
        if entry is None:
            entry = {
                "counts": [0] * (len(self.buckets) + 1),
                "count": 0,
                "sum": 0.0,
            }
            self.series[key] = entry
        value = float(value)
        entry["counts"][bisect.bisect_left(self.buckets, value)] += 1
        entry["count"] += 1
        entry["sum"] += value

    def count(self, labels: Sequence[str] = ()) -> int:
        entry = self.series.get(self._key(labels))
        return int(entry["count"]) if entry else 0

    def sum(self, labels: Sequence[str] = ()) -> float:
        entry = self.series.get(self._key(labels))
        return float(entry["sum"]) if entry else 0.0

    def mean(self, labels: Sequence[str] = ()) -> float:
        entry = self.series.get(self._key(labels))
        if not entry or not entry["count"]:
            return 0.0
        return float(entry["sum"]) / float(entry["count"])

    def _series_snapshot(self, value: Any) -> Any:
        return {
            "buckets": [_as_number(b) for b in self.buckets],
            "counts": list(value["counts"]),
            "count": int(value["count"]),
            "sum": _as_number(value["sum"]),
        }


class MetricsRegistry:
    """Get-or-create home for metrics, with deterministic snapshots."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self, cls: type, name: str, help: str, labels: Sequence[str], **kwargs: Any
    ) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric
        # Fast path: the registered metric is of the requested class and
        # has these label names; a mismatch falls through to the checks.
        if (
            type(metric) is cls
            and type(labels) is tuple
            and metric.label_names == labels
        ):
            return metric
        if not isinstance(metric, cls):
            raise ConfigurationError(
                f"metric {name!r} already registered as {metric.kind}"
            )
        if metric.label_names != tuple(labels):
            raise ConfigurationError(
                f"metric {name!r} already registered with labels "
                f"{metric.label_names}, got {tuple(labels)}"
            )
        return metric

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        metric = self._get_or_create(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        metric = self._get_or_create(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help, labels, buckets=buckets
        )
        assert isinstance(metric, Histogram)
        return metric

    def metric(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def reset(self) -> None:
        """Clear every series (metric registrations survive)."""
        for name in self.names():
            self._metrics[name].series = {}

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic JSON-able view of every metric."""
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    @staticmethod
    def merge_snapshots(
        snapshots: Sequence[Dict[str, Any]],
    ) -> Dict[str, Any]:
        """Merge snapshots in the given (canonical) order.

        Counters and histogram series add; gauges take the value from
        the *last* snapshot carrying the series.  Metric kind/label
        mismatches across snapshots are configuration errors.
        """
        merged: Dict[str, Dict[str, Any]] = {}
        for snap in snapshots:
            for name in sorted(snap):
                entry = snap[name]
                slot = merged.get(name)
                if slot is None:
                    slot = {
                        "kind": entry["kind"],
                        "labels": list(entry["labels"]),
                        "series": {},
                    }
                    merged[name] = slot
                elif (
                    slot["kind"] != entry["kind"]
                    or slot["labels"] != list(entry["labels"])
                ):
                    raise ConfigurationError(
                        f"cannot merge metric {name!r}: kind/label mismatch"
                    )
                for key_list, value in entry["series"]:
                    key = tuple(key_list)
                    _merge_series(slot, key, value, entry["kind"])
        return {
            name: {
                "kind": slot["kind"],
                "labels": slot["labels"],
                "series": [
                    [list(key), value]
                    for key, value in sorted(slot["series"].items())
                ],
            }
            for name, slot in sorted(merged.items())
        }


def _merge_series(
    slot: Dict[str, Any], key: LabelValues, value: Any, kind: str
) -> None:
    existing = slot["series"].get(key)
    if kind == "counter":
        base = existing if existing is not None else 0
        slot["series"][key] = _as_number(float(base) + float(value))
    elif kind == "gauge":
        slot["series"][key] = value  # last writer wins
    elif kind == "histogram":
        if existing is None:
            slot["series"][key] = {
                "buckets": list(value["buckets"]),
                "counts": list(value["counts"]),
                "count": int(value["count"]),
                "sum": value["sum"],
            }
        else:
            if existing["buckets"] != list(value["buckets"]):
                raise ConfigurationError(
                    "cannot merge histogram series with different buckets"
                )
            existing["counts"] = [
                a + b for a, b in zip(existing["counts"], value["counts"])
            ]
            existing["count"] = int(existing["count"]) + int(value["count"])
            existing["sum"] = _as_number(
                float(existing["sum"]) + float(value["sum"])
            )
    else:
        raise ConfigurationError(f"unknown metric kind {kind!r}")
