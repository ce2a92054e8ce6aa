"""The Figure 2 activities model as a head-to-head experiment (F2).

Five ways QoS information can drive selection, matching the paths
through the paper's Figure 2:

* ``advertised``   — trust the provider's published QoS claims;
* ``sla``          — claims, corrected by third-party-verified SLA
  violations (negotiation and supervision cost money);
* ``sensors``      — one sensor per service reporting to the central
  node (accurate for observable metrics, very costly at scale);
* ``central_monitor`` — the central node probes services itself
  (no sensors, but the probing burden lands on one node);
* ``feedback``     — consumers' reports to a central QoS registry (the
  trust-and-reputation approach the paper advocates).

All approaches run the same workload; the report carries selection
quality plus the cost decomposition the paper argues about.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.core.selection import EpsilonGreedyPolicy, Ranking
from repro.experiments.workloads import World, make_world
from repro.models.base import ranked
from repro.models.beta import BetaReputation

# The cost model lives in the obs ledger now (one source of truth for
# ApproachReport, traces, and `python -m repro.obs summarize`); the
# historical names stay importable from here.
from repro.obs.ledger import (
    MESSAGE_COST,
    NEGOTIATION_COST,
    PROBE_COST,
    SENSOR_COST,
    ActivityLedger,
)
from repro.obs.recorder import Recorder, get_recorder, use_recorder
from repro.obs.trace import dump_jsonl
from repro.services.invocation import InvocationEngine
from repro.services.monitoring import SensorDeployment, ThirdPartyMonitor
from repro.services.sla import SLAMonitor, negotiate_sla

__all__ = [
    "SENSOR_COST",
    "PROBE_COST",
    "MESSAGE_COST",
    "NEGOTIATION_COST",
    "ApproachReport",
    "APPROACHES",
    "run_activities_comparison",
]


def _charge_ledger(activity: str, **drivers: int) -> None:
    """Charge Figure-2 cost drivers to the ambient recorder, if live."""
    rec = get_recorder()
    if rec.enabled:
        ledger = ActivityLedger(rec.registry)
        ledger.touch(activity)
        ledger.charge(activity, **drivers)


@dataclass
class ApproachReport:
    """One Figure-2 approach's outcome on the common workload."""

    name: str
    accuracy: float
    mean_regret: float
    setup_cost: float
    running_cost: float
    central_probe_load: int
    messages: int

    @property
    def total_cost(self) -> float:
        return self.setup_cost + self.running_cost


def _run_loop(
    world: World,
    score_candidates: Callable[[EntityId, float], Ranking],
    on_interaction: Callable,
    rounds: int,
    tolerance: float = 0.02,
) -> Dict[str, float]:
    """Common selection loop: returns accuracy/regret + selections."""
    engine = InvocationEngine(world.taxonomy, rng=world.seeds.rng("invoke"))
    policy = EpsilonGreedyPolicy(epsilon=0.1, rng=world.seeds.rng("policy"))
    services = {s.service_id: s for s in world.services}
    optimal_hits = 0
    selections = 0
    regrets: List[float] = []
    time = 0.0
    for _ in range(rounds):
        for consumer in world.consumers:
            ranking = score_candidates(consumer.consumer_id, time)
            chosen = policy.choose(ranking)
            truth = {
                sid: svc.true_overall(
                    time, consumer.preferences.weights, consumer.segment
                )
                for sid, svc in services.items()
            }
            best_quality = max(truth.values())
            regret = best_quality - truth[chosen]
            regrets.append(regret)
            selections += 1
            if regret <= tolerance:
                optimal_hits += 1
            interaction = engine.invoke(consumer, services[chosen], time)
            on_interaction(consumer, interaction, time)
        time += 1.0
    return {
        "accuracy": optimal_hits / selections if selections else 0.0,
        "regret": safe_mean(regrets),
        "selections": selections,
        "invocations": engine.invocation_count,
    }


def _ranked(scores: Dict[EntityId, float]) -> Ranking:
    return ranked(scores.keys(), scores.values())


def run_advertised(world: World, rounds: int) -> ApproachReport:
    """Select by the provider's claims alone."""
    claims: Dict[EntityId, float] = {}
    for provider in world.providers:
        for service in provider.services:
            ad = provider.advertisement_for(service.service_id)
            claims[service.service_id] = safe_mean(
                ad.claimed.values(), default=0.5
            )

    stats = _run_loop(
        world,
        lambda consumer, time: _ranked(claims),
        lambda c, i, t: None,
        rounds,
    )
    _charge_ledger("advertised")
    return ApproachReport(
        name="advertised",
        accuracy=stats["accuracy"],
        mean_regret=stats["regret"],
        setup_cost=0.0,
        running_cost=0.0,
        central_probe_load=0,
        messages=0,
    )


def run_sla(world: World, rounds: int) -> ApproachReport:
    """Claims corrected by third-party-verified SLA violations."""
    monitor = SLAMonitor(world.taxonomy)
    claims: Dict[EntityId, Dict[str, float]] = {}
    for provider in world.providers:
        for service in provider.services:
            ad = provider.advertisement_for(service.service_id)
            claims[service.service_id] = dict(ad.claimed)
    # Every consumer negotiates with every service up front.
    negotiations = 0
    for consumer in world.consumers:
        for sid, claimed in claims.items():
            monitor.register(
                negotiate_sla(
                    consumer.consumer_id, sid, claimed,
                    negotiation_cost=NEGOTIATION_COST,
                )
            )
            negotiations += 1
    violation_counts: Dict[EntityId, int] = {}
    check_counts: Dict[EntityId, int] = {}

    def scores(consumer: EntityId, time: float) -> Ranking:
        values = {}
        for sid, claimed in claims.items():
            base = safe_mean(claimed.values(), default=0.5)
            checks = check_counts.get(sid, 0)
            if checks:
                rate = violation_counts.get(sid, 0) / checks
                base = base * (1.0 - rate)
            values[sid] = base
        return _ranked(values)

    def observe(consumer, interaction, time) -> None:
        violations = monitor.check(interaction)
        check_counts[interaction.service] = (
            check_counts.get(interaction.service, 0) + 1
        )
        if violations:
            violation_counts[interaction.service] = (
                violation_counts.get(interaction.service, 0) + 1
            )

    stats = _run_loop(world, scores, observe, rounds)
    _charge_ledger("sla", negotiations=negotiations, checks=monitor.checks)
    return ApproachReport(
        name="sla",
        accuracy=stats["accuracy"],
        mean_regret=stats["regret"],
        setup_cost=monitor.total_negotiation_cost,
        running_cost=monitor.checks * MESSAGE_COST,
        central_probe_load=0,
        messages=monitor.checks,
    )


def run_sensors(world: World, rounds: int) -> ApproachReport:
    """One sensor per service, probing every round."""
    engine = InvocationEngine(world.taxonomy, rng=world.seeds.rng("sensors"))
    sensors = SensorDeployment(engine)
    for service in world.services:
        sensors.deploy(service)

    def scores(consumer: EntityId, time: float) -> Ranking:
        values = {}
        for service in world.services:
            report = sensors.report_for(service.service_id)
            values[service.service_id] = (
                report.overall() if report and report.samples else 0.5
            )
        return _ranked(values)

    def per_round_probe(time: float) -> None:
        sensors.probe_all(world.services, time)

    # Interleave probing with the selection loop via a wrapper.
    probed_rounds = []

    def observe(consumer, interaction, time) -> None:
        if time not in probed_rounds:
            probed_rounds.append(time)
            per_round_probe(time)

    stats = _run_loop(world, scores, observe, rounds)
    _charge_ledger(
        "sensors",
        sensors=sensors.sensors_deployed,
        probes=sensors.probe_count,
        reports=sensors.report_messages,
    )
    return ApproachReport(
        name="sensors",
        accuracy=stats["accuracy"],
        mean_regret=stats["regret"],
        setup_cost=sensors.sensors_deployed * SENSOR_COST,
        running_cost=(
            sensors.probe_count * PROBE_COST
            + sensors.report_messages * MESSAGE_COST
        ),
        central_probe_load=0,
        messages=sensors.report_messages,
    )


def run_central_monitor(world: World, rounds: int) -> ApproachReport:
    """The central node probes every service itself each round."""
    engine = InvocationEngine(world.taxonomy, rng=world.seeds.rng("monitor"))
    monitor = ThirdPartyMonitor(engine)

    def scores(consumer: EntityId, time: float) -> Ranking:
        values = {}
        for service in world.services:
            report = monitor.report_for(service.service_id)
            values[service.service_id] = (
                report.overall() if report and report.samples else 0.5
            )
        return _ranked(values)

    swept = []

    def observe(consumer, interaction, time) -> None:
        if time not in swept:
            swept.append(time)
            monitor.sweep(world.services, time)

    stats = _run_loop(world, scores, observe, rounds)
    _charge_ledger("central_monitor", probes=monitor.probe_count)
    return ApproachReport(
        name="central_monitor",
        accuracy=stats["accuracy"],
        mean_regret=stats["regret"],
        setup_cost=0.0,
        running_cost=monitor.probe_count * PROBE_COST,
        central_probe_load=monitor.probe_count,
        messages=0,
    )


def run_feedback(world: World, rounds: int) -> ApproachReport:
    """Consumer feedback into a central QoS registry (reputation)."""
    model = BetaReputation()
    reports = 0

    def scores(consumer: EntityId, time: float) -> Ranking:
        return model.rank(
            [s.service_id for s in world.services], consumer, now=time
        )

    def observe(consumer, interaction, time) -> None:
        nonlocal reports
        feedback = consumer.rate(interaction, world.taxonomy)
        model.record(feedback)
        reports += 1

    stats = _run_loop(world, scores, observe, rounds)
    _charge_ledger("feedback", feedback=reports)
    return ApproachReport(
        name="feedback",
        accuracy=stats["accuracy"],
        mean_regret=stats["regret"],
        setup_cost=0.0,
        running_cost=reports * MESSAGE_COST,
        central_probe_load=0,
        messages=reports,
    )


APPROACHES: Dict[str, Callable[[World, int], ApproachReport]] = {
    "advertised": run_advertised,
    "sla": run_sla,
    "sensors": run_sensors,
    "central_monitor": run_central_monitor,
    "feedback": run_feedback,
}


def run_activities_comparison(
    n_providers: int = 5,
    services_per_provider: int = 2,
    n_consumers: int = 20,
    rounds: int = 25,
    exaggeration: float = 0.25,
    seed: int = 0,
    approaches: Optional[List[str]] = None,
    recorder: Optional[Recorder] = None,
    trace_dir: Optional[str] = None,
) -> List[ApproachReport]:
    """Run every Figure-2 approach on an identical (re-seeded) world.

    Honest and exaggerating providers alternate so the advertised-QoS
    path has something to be wrong about.

    Telemetry: pass a live :class:`Recorder` (or set the
    ``REPRO_TRACE_DIR`` environment variable / *trace_dir*) and every
    approach's Figure-2 cost drivers land in the ``fig2.*`` ledger; with
    a trace directory the snapshot is exported as a canonical JSONL file
    named after the run parameters, ready for
    ``python -m repro.obs summarize``.
    """
    names = approaches or list(APPROACHES)
    trace_path: Optional[str] = None
    if recorder is None:
        if trace_dir is None:
            trace_dir = os.environ.get("REPRO_TRACE_DIR") or None
        if trace_dir:
            recorder = Recorder()
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(
                trace_dir,
                f"fig2_activities_s{seed}"
                f"_p{n_providers}x{services_per_provider}"
                f"_c{n_consumers}_r{rounds}.jsonl",
            )
    reports = []
    for name in names:
        world = make_world(
            n_providers=n_providers,
            services_per_provider=services_per_provider,
            n_consumers=n_consumers,
            seed=seed,
            exaggerations=[0.0, exaggeration],
            quality_spread=0.3,
        )
        if recorder is not None:
            with use_recorder(recorder):
                reports.append(APPROACHES[name](world, rounds))
        else:
            reports.append(APPROACHES[name](world, rounds))
    if trace_path is not None and recorder is not None:
        dump_jsonl(
            recorder.snapshot(
                meta={
                    "experiment": "fig2_activities",
                    "seed": seed,
                    "n_providers": n_providers,
                    "services_per_provider": services_per_provider,
                    "n_consumers": n_consumers,
                    "rounds": rounds,
                    "approaches": ",".join(names),
                }
            ),
            trace_path,
        )
    return reports
