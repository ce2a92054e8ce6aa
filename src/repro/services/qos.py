"""QoS metric ontology — the paper's Figure 3 (W3C QoS taxonomy).

The taxonomy groups quality-of-service metrics for web services into
categories (Performance, Dependability, Integrity, Security, ...).  Each
leaf is a :class:`MetricDef` carrying everything a reputation mechanism
needs to score it:

* a *direction* — whether larger raw values are better (throughput) or
  worse (response time),
* a *natural range* used to normalize raw measurements onto ``[0, 1]``
  quality space (the normalization matrix of Liu, Ngu & Zeng), and
* whether the metric is *observable* by execution monitoring (response
  time) or only *rateable* subjectively by the consumer (accuracy) — the
  distinction Section 2 of the paper draws when arguing that consumer
  feedback captures information no central monitor can.

A provider's true quality is a :class:`QoSProfile`: per-metric quality
levels in ``[0, 1]`` plus noise, optionally with per-consumer-segment
offsets for subjective metrics (the hook that makes personalization
experiments meaningful).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError, UnknownEntityError
from repro.common.mathutils import clamp
from repro.common.randomness import RngLike, make_rng


class Direction(enum.Enum):
    """Whether larger raw values mean better quality."""

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"


@dataclass(frozen=True)
class MetricDef:
    """Definition of one QoS metric (a leaf of the Figure 3 taxonomy).

    Attributes:
        name: canonical snake_case metric name.
        category: dotted category path, e.g. ``"performance"`` or
            ``"dependability"``.
        direction: whether higher raw values are better.
        low / high: the natural range of raw measurements; used for
            min-max normalization onto quality space.
        unit: human-readable unit for reports.
        observable: True when execution monitoring can measure it; False
            for metrics only a human/consumer rating can capture.
    """

    name: str
    category: str
    direction: Direction
    low: float
    high: float
    unit: str = ""
    observable: bool = True

    def __post_init__(self) -> None:
        if self.low >= self.high:
            raise ConfigurationError(
                f"metric {self.name!r}: low ({self.low}) must be < high ({self.high})"
            )

    def normalize(self, raw: float) -> float:
        """Map a raw measurement to quality in ``[0, 1]`` (1 = best)."""
        frac = clamp((raw - self.low) / (self.high - self.low), 0.0, 1.0)
        if self.direction is Direction.LOWER_IS_BETTER:
            return 1.0 - frac
        return frac

    def denormalize(self, quality: float) -> float:
        """Map a quality level in ``[0, 1]`` back to a raw measurement."""
        quality = clamp(quality, 0.0, 1.0)
        if self.direction is Direction.LOWER_IS_BETTER:
            quality = 1.0 - quality
        return self.low + quality * (self.high - self.low)


def metric(
    name: str,
    category: str,
    direction: Direction = Direction.HIGHER_IS_BETTER,
    low: float = 0.0,
    high: float = 1.0,
    unit: str = "",
    observable: bool = True,
) -> MetricDef:
    """Convenience constructor mirroring :class:`MetricDef`."""
    return MetricDef(name, category, direction, low, high, unit, observable)


@dataclass
class QoSCategory:
    """An internal node of the taxonomy tree."""

    name: str
    children: List["QoSCategory"] = field(default_factory=list)
    metrics: List[MetricDef] = field(default_factory=list)

    def walk(self) -> Iterator[Tuple[str, MetricDef]]:
        """Yield ``(category_path, metric)`` pairs depth-first."""
        for m in self.metrics:
            yield self.name, m
        for child in self.children:
            for path, m in child.walk():
                yield f"{self.name}.{path}", m


class QoSTaxonomy:
    """A tree of QoS categories with metric leaves.

    Provides name-based lookup and normalization over all registered
    metrics; Figure 3 is reproduced by :func:`w3c_taxonomy`.
    """

    def __init__(self, root: QoSCategory) -> None:
        self.root = root
        self._by_name: Dict[str, MetricDef] = {}
        for _, m in root.walk():
            if m.name in self._by_name:
                raise ConfigurationError(f"duplicate metric name: {m.name!r}")
            self._by_name[m.name] = m
        #: per-metric ``(low, high - low, lower_is_better)``: the
        #: constants of :meth:`MetricDef.normalize` / ``denormalize``,
        #: for the per-invocation loops that inline them
        self.scales: Dict[str, Tuple[float, float, bool]] = {
            m.name: (
                m.low,
                m.high - m.low,
                m.direction is Direction.LOWER_IS_BETTER,
            )
            for m in self._by_name.values()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[MetricDef]:
        return iter(self._by_name.values())

    def __len__(self) -> int:
        return len(self._by_name)

    def get(self, name: str) -> MetricDef:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownEntityError(f"unknown QoS metric: {name!r}") from None

    def names(self) -> List[str]:
        return list(self._by_name)

    def observable_metrics(self) -> List[MetricDef]:
        return [m for m in self if m.observable]

    def subjective_metrics(self) -> List[MetricDef]:
        return [m for m in self if not m.observable]

    def categories(self) -> List[str]:
        """Distinct top-level category names, in tree order."""
        seen: List[str] = []
        for child in self.root.children:
            seen.append(child.name)
        return seen

    def tree_lines(self) -> List[str]:
        """Render the taxonomy as indented text (the Figure 3 shape)."""

        lines: List[str] = []

        def render(node: QoSCategory, depth: int) -> None:
            lines.append("  " * depth + node.name)
            for m in node.metrics:
                lines.append("  " * (depth + 1) + f"- {m.name}")
            for child in node.children:
                render(child, depth + 1)

        render(self.root, 0)
        return lines


def w3c_taxonomy() -> QoSTaxonomy:
    """The full Figure 3 taxonomy (W3C "QoS for Web Services" note).

    Raw ranges are chosen to be realistic for a laptop-scale simulation;
    they only matter relative to one another (normalization is min-max).
    """
    hi = Direction.HIGHER_IS_BETTER
    lo = Direction.LOWER_IS_BETTER
    performance = QoSCategory(
        "performance",
        metrics=[
            metric("processing_time", "performance", lo, 0.001, 5.0, "s"),
            metric("throughput", "performance", hi, 1.0, 200.0, "req/s"),
            metric("response_time", "performance", lo, 0.01, 5.0, "s"),
            metric("latency", "performance", lo, 0.001, 1.0, "s"),
        ],
    )
    dependability = QoSCategory(
        "dependability",
        metrics=[
            metric("availability", "dependability", hi, 0.0, 1.0, "prob"),
            metric("accessibility", "dependability", hi, 0.0, 1.0, "prob"),
            metric("accuracy", "dependability", hi, 0.0, 1.0, "score",
                   observable=False),
            metric("reliability", "dependability", hi, 0.0, 1.0, "prob"),
            metric("capacity", "dependability", hi, 1.0, 1000.0, "sessions"),
            metric("scalability", "dependability", hi, 0.0, 1.0, "score",
                   observable=False),
            metric("stability", "dependability", hi, 0.0, 1.0, "score"),
            metric("robustness", "dependability", hi, 0.0, 1.0, "score",
                   observable=False),
        ],
    )
    integrity = QoSCategory(
        "integrity",
        metrics=[
            metric("data_integrity", "integrity", hi, 0.0, 1.0, "score"),
            metric("transactional_integrity", "integrity", hi, 0.0, 1.0,
                   "score"),
            metric("interoperability", "integrity", hi, 0.0, 1.0, "score",
                   observable=False),
        ],
    )
    security = QoSCategory(
        "security",
        metrics=[
            metric("accountability", "security", hi, 0.0, 1.0, "score",
                   observable=False),
            metric("authentication", "security", hi, 0.0, 1.0, "score"),
            metric("authorization", "security", hi, 0.0, 1.0, "score"),
            metric("auditability", "security", hi, 0.0, 1.0, "score",
                   observable=False),
            metric("non_repudiation", "security", hi, 0.0, 1.0, "score"),
            metric("confidentiality", "security", hi, 0.0, 1.0, "score",
                   observable=False),
            metric("encryption", "security", hi, 0.0, 1.0, "score"),
        ],
    )
    application = QoSCategory(
        "application_specific",
        metrics=[
            metric("cost", "application_specific", lo, 0.0, 10.0, "$"),
        ],
    )
    root = QoSCategory(
        "qos",
        children=[performance, dependability, integrity, security, application],
    )
    return QoSTaxonomy(root)


def default_metrics() -> QoSTaxonomy:
    """The compact working set used by most experiments.

    Six metrics spanning observable performance, dependability, the
    subjective ``accuracy`` facet, and cost — enough to exercise
    multi-faceted trust without dragging all 23 Figure 3 leaves through
    every benchmark.
    """
    hi = Direction.HIGHER_IS_BETTER
    lo = Direction.LOWER_IS_BETTER
    root = QoSCategory(
        "qos",
        children=[
            QoSCategory(
                "performance",
                metrics=[
                    metric("response_time", "performance", lo, 0.01, 2.0, "s"),
                    metric("throughput", "performance", hi, 1.0, 100.0,
                           "req/s"),
                ],
            ),
            QoSCategory(
                "dependability",
                metrics=[
                    metric("availability", "dependability", hi, 0.0, 1.0,
                           "prob"),
                    metric("reliability", "dependability", hi, 0.0, 1.0,
                           "prob"),
                    metric("accuracy", "dependability", hi, 0.0, 1.0, "score",
                           observable=False),
                ],
            ),
            QoSCategory(
                "application_specific",
                metrics=[
                    metric("cost", "application_specific", lo, 0.0, 10.0, "$"),
                ],
            ),
        ],
    )
    return QoSTaxonomy(root)


#: Module-level shared instance of the compact metric set.
DEFAULT_METRICS = default_metrics()


@dataclass
class QoSProfile:
    """A service's *true* quality, in quality space.

    Attributes:
        quality: per-metric true quality level in ``[0, 1]``.
        noise: per-observation Gaussian noise (std dev) in quality space.
        segment_offsets: for subjective metrics, per-consumer-segment
            additive offsets ``{metric: {segment: offset}}`` — two
            consumers in different segments genuinely experience
            different quality, which is what makes personalized
            mechanisms outperform global ones.
        success_rate: probability an invocation succeeds at all.
    """

    quality: Dict[str, float]
    noise: float = 0.05
    segment_offsets: Dict[str, Dict[int, float]] = field(default_factory=dict)
    success_rate: float = 0.98

    def __post_init__(self) -> None:
        for name, q in self.quality.items():
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(
                    f"quality for {name!r} must be in [0, 1], got {q}"
                )
        if self.noise < 0:
            raise ConfigurationError("noise must be non-negative")
        if not 0.0 <= self.success_rate <= 1.0:
            raise ConfigurationError("success_rate must be in [0, 1]")
        # segment -> [true_quality(n, segment) for n in quality]; a
        # profile is never mutated after construction
        self._truth: Dict[Optional[int], List[float]] = {}

    def metrics(self) -> List[str]:
        return list(self.quality)

    def _truth_vector(self, segment: Optional[int]) -> List[float]:
        """Every metric's :meth:`true_quality` for *segment*, cached."""
        vector = self._truth.get(segment)
        if vector is None:
            vector = [self.true_quality(n, segment) for n in self.quality]
            self._truth[segment] = vector
        return vector

    def true_quality(self, name: str, segment: Optional[int] = None) -> float:
        """True quality of metric *name* for a consumer in *segment*."""
        base = self.quality[name]
        if segment is not None:
            offset = self.segment_offsets.get(name, {}).get(segment, 0.0)
            base = clamp(base + offset, 0.0, 1.0)
        return base

    def overall(
        self,
        weights: Optional[Mapping[str, float]] = None,
        segment: Optional[int] = None,
    ) -> float:
        """Preference-weighted true quality (uniform weights by default)."""
        truth = self._truth_vector(segment)
        if not truth:
            return 0.0
        if weights is None:
            return sum(truth) / len(truth)
        w = [max(weights.get(n, 0.0), 0.0) for n in self.quality]
        total = sum(w)
        if total <= 0:
            return sum(truth) / len(truth)
        return sum(q * x for q, x in zip(truth, w)) / total

    def sample(
        self,
        taxonomy: QoSTaxonomy,
        rng: RngLike = None,
        segment: Optional[int] = None,
    ) -> Dict[str, float]:
        """Draw one invocation's raw observations for every metric.

        One vector draw of ``len(quality)`` normals consumes the stream
        exactly as one scalar draw per metric would, and the per-metric
        arithmetic is :meth:`MetricDef.denormalize` inlined, so the
        observations are bit-identical to the scalar loop.
        """
        noise = make_rng(rng).normal(0.0, self.noise, len(self.quality))
        scales = taxonomy.scales
        observations: Dict[str, float] = {}
        for name, q, e in zip(
            self.quality, self._truth_vector(segment), noise.tolist()
        ):
            try:
                low, span, lower = scales[name]
            except KeyError:
                raise UnknownEntityError(
                    f"unknown QoS metric: {name!r}"
                ) from None
            noisy = max(0.0, min(1.0, q + e))
            if lower:
                noisy = 1.0 - noisy
            observations[name] = low + noisy * span
        return observations

    def shifted(self, delta: float) -> "QoSProfile":
        """Copy with every metric's quality shifted by *delta* (clamped)."""
        return QoSProfile(
            quality={n: clamp(q + delta, 0.0, 1.0) for n, q in self.quality.items()},
            noise=self.noise,
            segment_offsets={
                m: dict(offs) for m, offs in self.segment_offsets.items()
            },
            success_rate=self.success_rate,
        )


def random_profile(
    taxonomy: QoSTaxonomy,
    rng: RngLike = None,
    mean_quality: Optional[float] = None,
    spread: float = 0.15,
    noise: float = 0.05,
    n_segments: int = 0,
    segment_spread: float = 0.2,
) -> QoSProfile:
    """Draw a random :class:`QoSProfile` over *taxonomy*'s metrics.

    Args:
        mean_quality: centre of the per-metric quality draw (uniform in
            ``[0.2, 0.9]`` when omitted).
        spread: per-metric deviation around the centre.
        n_segments: when positive, subjective metrics receive random
            per-segment offsets in ``[-segment_spread, +segment_spread]``.
    """
    gen = make_rng(rng)
    centre = (
        float(gen.uniform(0.2, 0.9)) if mean_quality is None else mean_quality
    )
    quality = {
        m.name: clamp(centre + float(gen.uniform(-spread, spread)), 0.0, 1.0)
        for m in taxonomy
    }
    segment_offsets: Dict[str, Dict[int, float]] = {}
    if n_segments > 0:
        for m in taxonomy.subjective_metrics():
            segment_offsets[m.name] = {
                s: float(gen.uniform(-segment_spread, segment_spread))
                for s in range(n_segments)
            }
    success = clamp(0.9 + centre * 0.1, 0.0, 1.0)
    return QoSProfile(
        quality=quality,
        noise=noise,
        segment_offsets=segment_offsets,
        success_rate=success,
    )
