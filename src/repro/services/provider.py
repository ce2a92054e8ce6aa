"""Providers, services, and provider behaviour over time.

A :class:`Provider` owns one or more :class:`Service` objects.  Each
service has a true :class:`~repro.services.qos.QoSProfile` and a
:class:`QualityBehavior` describing how that truth evolves with
simulation time — static, improving, degrading, or oscillating (the
milking strategy the explorer-agent experiment needs).  Separately, an
:class:`ExaggerationPolicy` controls how the provider's *advertised* QoS
relates to the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import clamp
from repro.services.description import QoSAdvertisement, ServiceDescription
from repro.services.qos import QoSProfile


class QualityBehavior:
    """How a service's true quality evolves with time.

    Subclasses override :meth:`profile_at`; the base class is static.
    """

    def profile_at(self, base: QoSProfile, time: float) -> QoSProfile:
        """Effective profile at simulation *time* (default: unchanged)."""
        return base


class StaticBehavior(QualityBehavior):
    """Quality never changes (the default)."""


class ImprovingBehavior(QualityBehavior):
    """Quality ramps up linearly from a deficit to the base profile.

    Models the paper's "service quality has been improved" case: the
    service starts ``initial_deficit`` below its base quality and
    recovers it over ``ramp_duration`` time units (starting at
    ``start_time``).
    """

    def __init__(
        self,
        initial_deficit: float = 0.4,
        ramp_duration: float = 100.0,
        start_time: float = 0.0,
    ) -> None:
        if initial_deficit < 0:
            raise ConfigurationError("initial_deficit must be non-negative")
        if ramp_duration <= 0:
            raise ConfigurationError("ramp_duration must be positive")
        self.initial_deficit = initial_deficit
        self.ramp_duration = ramp_duration
        self.start_time = start_time

    def profile_at(self, base: QoSProfile, time: float) -> QoSProfile:
        progress = clamp((time - self.start_time) / self.ramp_duration, 0.0, 1.0)
        deficit = self.initial_deficit * (1.0 - progress)
        return base.shifted(-deficit)


class DegradingBehavior(QualityBehavior):
    """Quality drops by ``drop`` at ``onset`` time (a regime change).

    Used by the decay-policy experiment: a good service suddenly turning
    bad is exactly where "new experiences matter more than old" bites.
    """

    def __init__(self, drop: float = 0.4, onset: float = 50.0) -> None:
        if drop < 0:
            raise ConfigurationError("drop must be non-negative")
        self.drop = drop
        self.onset = onset

    def profile_at(self, base: QoSProfile, time: float) -> QoSProfile:
        if time < self.onset:
            return base
        return base.shifted(-self.drop)


class OscillatingBehavior(QualityBehavior):
    """Quality alternates between good and bad phases (milking attack).

    The service behaves at base quality for ``good_duration``, then
    ``bad_duration`` at ``base - drop``, repeating.
    """

    def __init__(
        self,
        drop: float = 0.4,
        good_duration: float = 50.0,
        bad_duration: float = 50.0,
    ) -> None:
        if drop < 0:
            raise ConfigurationError("drop must be non-negative")
        if good_duration <= 0 or bad_duration <= 0:
            raise ConfigurationError("phase durations must be positive")
        self.drop = drop
        self.good_duration = good_duration
        self.bad_duration = bad_duration

    def profile_at(self, base: QoSProfile, time: float) -> QoSProfile:
        period = self.good_duration + self.bad_duration
        phase = time % period
        if phase < self.good_duration:
            return base
        return base.shifted(-self.drop)


@dataclass
class ExaggerationPolicy:
    """How a provider's advertised QoS relates to the truth.

    ``inflation`` is added to every true quality level (clamped to 1);
    honest providers use 0.  The paper: "a provider may also exaggerate
    its capability of providing good QoS on purpose to attract
    consumers".
    """

    inflation: float = 0.0

    def advertise(self, service: EntityId, truth: Mapping[str, float]) -> QoSAdvertisement:
        claimed = {
            name: clamp(q + self.inflation, 0.0, 1.0) for name, q in truth.items()
        }
        return QoSAdvertisement(service=service, claimed=claimed)


@dataclass
class Service:
    """One concrete web service: description + true quality + behaviour."""

    description: ServiceDescription
    profile: QoSProfile
    behavior: QualityBehavior = field(default_factory=StaticBehavior)
    birth_time: float = 0.0

    @property
    def service_id(self) -> EntityId:
        return self.description.service

    @property
    def provider_id(self) -> EntityId:
        return self.description.provider

    @property
    def category(self) -> str:
        return self.description.category

    def profile_at(self, time: float) -> QoSProfile:
        """True quality profile in effect at simulation *time*."""
        return self.behavior.profile_at(self.profile, time)

    def true_overall(
        self,
        time: float,
        weights: Optional[Mapping[str, float]] = None,
        segment: Optional[int] = None,
    ) -> float:
        """Ground-truth preference-weighted quality at *time*."""
        return self.profile_at(time).overall(weights, segment)


class TruthTable:
    """Ground truth over a fixed candidate list, one row per taste.

    A row holds every candidate's :meth:`Service.true_overall` for one
    consumer taste ``(segment, weights)`` at one simulation time, plus
    the index of the truly best candidate under the ``(quality, id)``
    tie-break.  Rows are filled on first use and dropped when the time
    moves, so consumers that share a taste share one row per round.
    """

    def __init__(self, services: Sequence[Service]) -> None:
        self.services = list(services)
        self.ids = [s.service_id for s in self.services]
        self._time: Optional[float] = None
        self._rows: Dict[Hashable, Tuple[int, List[float]]] = {}

    @staticmethod
    def taste_key(
        weights: Mapping[str, float], segment: Optional[int]
    ) -> Hashable:
        """The row key of one taste: equal tastes share a row."""
        return (segment, tuple(sorted(weights.items())))

    def row(
        self,
        time: float,
        weights: Mapping[str, float],
        segment: Optional[int],
        key: Optional[Hashable] = None,
    ) -> Tuple[int, List[float]]:
        """``(best index, per-candidate quality)`` for one taste at *time*.

        *key* is :meth:`taste_key` of the taste; callers that rate the
        same consumers every round pass it precomputed
        (:attr:`~repro.services.consumer.PreferenceProfile.taste_key`).
        """
        if time != self._time:
            self._rows = {}
            self._time = time
        if key is None:
            key = self.taste_key(weights, segment)
        row = self._rows.get(key)
        if row is None:
            quals = [
                s.true_overall(time, weights, segment) for s in self.services
            ]
            best = max(
                range(len(quals)), key=lambda j: (quals[j], self.ids[j])
            )
            row = (best, quals)
            self._rows[key] = row
        return row


class Provider:
    """A service provider owning one or more services.

    Provider-level quality tendency matters for the cold-start
    experiment: a provider's *new* services inherit its tendency, so
    provider reputation is informative about them.
    """

    def __init__(
        self,
        provider_id: EntityId,
        exaggeration: Optional[ExaggerationPolicy] = None,
        quality_tendency: float = 0.5,
    ) -> None:
        if not 0.0 <= quality_tendency <= 1.0:
            raise ConfigurationError("quality_tendency must be in [0, 1]")
        self.provider_id = provider_id
        self.exaggeration = exaggeration or ExaggerationPolicy()
        self.quality_tendency = quality_tendency
        self._services: Dict[EntityId, Service] = {}

    def add_service(self, service: Service) -> None:
        if service.provider_id != self.provider_id:
            raise ConfigurationError(
                f"service {service.service_id} belongs to provider "
                f"{service.provider_id}, not {self.provider_id}"
            )
        if service.service_id in self._services:
            raise ConfigurationError(
                f"duplicate service id: {service.service_id}"
            )
        self._services[service.service_id] = service

    def remove_service(self, service_id: EntityId) -> None:
        self._services.pop(service_id, None)

    @property
    def services(self) -> List[Service]:
        return list(self._services.values())

    def service(self, service_id: EntityId) -> Service:
        return self._services[service_id]

    def advertisement_for(self, service_id: EntityId, time: float = 0.0) -> QoSAdvertisement:
        """The QoS claims this provider publishes for one service.

        Claims are derived from the *base* profile (providers advertise
        their intended quality, not the current phase of an oscillation).
        """
        svc = self._services[service_id]
        return self.exaggeration.advertise(service_id, svc.profile.quality)
