"""Invocation engine: executing a service call and observing QoS.

The engine is the single place where ground truth turns into
observations: it samples the service's effective profile at the current
time (respecting :class:`~repro.services.provider.QualityBehavior`) for
the invoking consumer's taste segment, decides success/failure, and
emits an :class:`~repro.common.records.Interaction`.

Because every invocation funnels through one sampling helper, fault
injection hooks in exactly one place: a
:class:`~repro.faults.plan.FaultPlan` can inflate a slow provider's
time-like metrics during scheduled windows, and a
:class:`~repro.faults.resilience.Timeout` budget turns a
sufficiently-slow response into an observed failure — which is how real
clients experience slow providers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Interaction
from repro.faults.plan import FaultPlan
from repro.faults.resilience import Timeout
from repro.services.consumer import Consumer
from repro.services.provider import Service
from repro.services.qos import QoSTaxonomy


class InvocationEngine:
    """Executes invocations against ground-truth service profiles.

    Args:
        taxonomy: QoS metric set observations are drawn from.
        fault_plan: optional fault schedule; services inside a
            slow-provider window have their time-like metrics (unit
            ``"s"``) inflated by the plan's slowdown factor.
        timeout: optional invocation budget compared against the
            (possibly inflated) primary time metric; exceeding it turns
            the invocation into a failure and increments
            :attr:`timeout_count`.
    """

    #: Metric consulted for the timeout decision, in preference order.
    TIME_METRICS = ("response_time", "latency")

    def __init__(
        self,
        taxonomy: QoSTaxonomy,
        rng: RngLike = None,
        fault_plan: Optional[FaultPlan] = None,
        timeout: Optional[Timeout] = None,
    ) -> None:
        self.taxonomy = taxonomy
        self._rng = make_rng(rng)
        self.fault_plan = fault_plan
        self.timeout = timeout
        self.invocation_count = 0
        self.timeout_count = 0
        self._time_metrics = [
            m.name for m in taxonomy if getattr(m, "unit", None) == "s"
        ]

    def _apply_faults(
        self, service: Service, time: float, observations: Dict[str, float]
    ) -> "tuple[Dict[str, float], bool]":
        """Inflate time metrics per the fault plan; decide timeouts.

        Returns the (possibly modified) observations and whether the
        invocation still counts as successful.
        """
        if self.fault_plan is not None:
            factor = self.fault_plan.slowdown(service.service_id, time)
            if factor > 1.0:
                for name in self._time_metrics:
                    if name in observations:
                        observations[name] = observations[name] * factor
        if self.timeout is not None:
            for name in self.TIME_METRICS:
                if name in observations:
                    if self.timeout.exceeded(observations[name]):
                        self.timeout_count += 1
                        return {}, False
                    break
        return observations, True

    def _execute(
        self,
        invoker: EntityId,
        service: Service,
        time: float,
        segment: Optional[int],
    ) -> Interaction:
        """The one sampling path shared by every invocation flavour."""
        self.invocation_count += 1
        profile = service.profile_at(time)
        success = bool(self._rng.random() < profile.success_rate)
        observations: Dict[str, float] = {}
        if success:
            # ``sample`` returns a fresh dict, which the faults may edit
            observations, success = self._apply_faults(
                service,
                time,
                profile.sample(self.taxonomy, self._rng, segment=segment),
            )
        return Interaction(
            consumer=invoker,
            service=service.service_id,
            provider=service.provider_id,
            time=time,
            success=success,
            observations=observations,
        )

    def invoke(
        self,
        consumer: Consumer,
        service: Service,
        time: float,
        segment: Optional[int] = None,
    ) -> Interaction:
        """Invoke *service* on behalf of *consumer* at simulation *time*.

        Args:
            segment: taste segment override; defaults to the consumer's
                own segment.
        """
        seg = consumer.segment if segment is None else segment
        return self._execute(consumer.consumer_id, service, time, seg)

    def invoke_anonymous(
        self, invoker_id: EntityId, service: Service, time: float
    ) -> Interaction:
        """Invocation by a non-consumer party (monitor, explorer agent).

        Monitors observe the *base-segment* truth: they can measure
        objective metrics but have no taste segment of their own.
        """
        return self._execute(invoker_id, service, time, None)
