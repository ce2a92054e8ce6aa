"""Closed-loop load generator for the serve layer.

Builds a seeded :func:`~repro.experiments.workloads.make_world`
catalogue, boots a :class:`~repro.serve.core.ServiceCore` +
:class:`~repro.serve.service.SelectionService`, and drives it with
closed-loop clients: each client ranks, rates the winner against the
world's ground-truth quality (with seeded noise), advances its own
*simulation* clock by a seeded think time, and repeats.  Optional
chaos segments inject a registry outage or a score-table rebuild
through the sequenced admin path, so degradation happens at a
deterministic point in the ingest log.

Two kinds of measurement come out of a run, deliberately separated:

* **Canonical** — the ingest log, responses, final scores, telemetry
  snapshot, and their sha256 identities.  Pure functions of the spec;
  the determinism gates compare them across worker counts, arrival
  interleavings, and replay.
* **Client-side** — an independent tally of response statuses per
  tenant (asserted equal to the server's ``serve.*`` metrics) and
  wall-clock rank latencies measured around each ``await``.  Wall
  times are real performance data and are *never* fed to the recorder
  or any canonical surface; they exist only in the report fields the
  benchmark reads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.randomness import SeedSequenceFactory, make_rng
from repro.core.registry import default_registry
from repro.experiments.workloads import World, make_world
from repro.obs.recorder import Recorder, use_recorder
from repro.obs.trace import TelemetrySnapshot
from repro.registry.uddi import UDDIRegistry
from repro.serve.core import ServeConfig, ServiceCore
from repro.serve.protocol import IngestLog, ServeResponse, responses_sha256
from repro.serve.replay import (
    ReplayResult,
    replay_log,
    scores_sha256,
    snapshot_sha256,
)
from repro.serve.service import SelectionService
from repro.serve.sla import serve_sla_table, sla_counts

__all__ = [
    "LoadReport",
    "LoadSpec",
    "make_core",
    "replay_report",
    "run_loadgen",
]

_STATUS_KEYS = ("ok", "degraded", "failed", "expired", "shed", "throttled")


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible closed-loop workload."""

    tenants: int = 2
    clients_per_tenant: int = 2
    requests_per_client: int = 20
    seed: int = 0
    model: str = "beta"
    n_providers: int = 4
    services_per_provider: int = 2
    category: str = "weather_report"
    think_time: float = 0.05
    think_jitter: float = 0.5
    rating_noise: float = 0.08
    workers: int = 2
    config: ServeConfig = ServeConfig()
    #: client rounds [a, b) during which the registry is failed
    outage_rounds: Optional[Tuple[int, int]] = None
    #: client rounds [a, b) during which the score table rebuilds
    rebuild_rounds: Optional[Tuple[int, int]] = None

    def __post_init__(self) -> None:
        for name in ("tenants", "clients_per_tenant", "requests_per_client"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")


@dataclass
class LoadReport:
    """Everything one load run produced (canonical + client-side)."""

    spec: LoadSpec
    workers: int
    responses: Tuple[ServeResponse, ...]
    log: IngestLog
    snapshot: TelemetrySnapshot
    final_scores: Dict[str, float]
    sla: List[Dict[str, Any]]
    tally: Dict[str, Dict[str, int]]
    wall_ns: Dict[str, List[int]] = field(repr=False, default_factory=dict)

    @property
    def log_sha256(self) -> str:
        return self.log.sha256()

    @property
    def responses_sha256(self) -> str:
        return responses_sha256(self.responses)

    @property
    def scores_sha256(self) -> str:
        return scores_sha256(self.final_scores)

    @property
    def trace_sha256(self) -> str:
        return snapshot_sha256(self.snapshot)

    def identity(self) -> Dict[str, str]:
        """The four canonical hashes every determinism gate compares."""
        return {
            "log": self.log_sha256,
            "responses": self.responses_sha256,
            "scores": self.scores_sha256,
            "trace": self.trace_sha256,
        }

    def tally_matches_sla(self) -> bool:
        """Client-side tally == the server's own SLA accounting."""
        server = sla_counts(self.sla)
        tenants = sorted(set(server) | set(self.tally))
        for tenant in tenants:
            if tenant == "_admin":
                continue
            mine = self.tally.get(tenant, {})
            theirs = server.get(tenant, {})
            for status in _STATUS_KEYS:
                if mine.get(status, 0) != theirs.get(status, 0):
                    return False
        return True

    def wall_quantiles_ms(self) -> Dict[str, Dict[str, float]]:
        """Client-measured wall-clock rank latency quantiles, per tenant
        plus ``_all``.  Not canonical; never hashed."""
        out: Dict[str, Dict[str, float]] = {}
        merged: List[int] = []
        for tenant in sorted(self.wall_ns):
            values = sorted(self.wall_ns[tenant])
            merged.extend(values)
            out[tenant] = _quantiles_ms(values)
        out["_all"] = _quantiles_ms(sorted(merged))
        return out


def _quantiles_ms(values: List[int]) -> Dict[str, float]:
    if not values:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "mean_ms": 0.0}
    def at(q: float) -> float:
        index = min(len(values) - 1, int(q * (len(values) - 1) + 0.5))
        return values[index] / 1e6
    return {
        "p50_ms": at(0.50),
        "p99_ms": at(0.99),
        "mean_ms": sum(values) / len(values) / 1e6,
    }


def build_world(spec: LoadSpec) -> World:
    return make_world(
        n_providers=spec.n_providers,
        services_per_provider=spec.services_per_provider,
        n_consumers=spec.tenants * spec.clients_per_tenant,
        seed=spec.seed,
        category=spec.category,
    )


def make_core(spec: LoadSpec) -> ServiceCore:
    """A fresh, bootstrapped core for *spec* — also the replay factory."""
    world = build_world(spec)
    registry = UDDIRegistry()
    models = default_registry(rng_seed=spec.seed)
    model = models.create(spec.model)
    core = ServiceCore(registry, model, config=spec.config)
    core.bootstrap([svc.description for svc in world.services])
    return core


class _Client:
    """One closed-loop client with its own sim clock and rng stream."""

    def __init__(
        self,
        spec: LoadSpec,
        tenant: str,
        client_id: str,
        index: int,
        world: World,
        seeds: SeedSequenceFactory,
        tally: Dict[str, Dict[str, int]],
        wall_ns: Dict[str, List[int]],
    ) -> None:
        self.spec = spec
        self.tenant = tenant
        self.client_id = client_id
        self.world = world
        self.rng = make_rng(seeds.spawn(f"loadgen.{client_id}"))
        # Distinct sub-tick offsets keep client ticks unique without
        # depending on arrival interleaving.
        self.now = (index + 1) / 1024.0
        self.tally = tally
        self.wall_ns = wall_ns

    def _think(self) -> float:
        jitter = self.spec.think_jitter * (
            2.0 * float(self.rng.random()) - 1.0
        )
        return self.spec.think_time * (1.0 + jitter)

    def _count(self, status: str) -> None:
        self.tally[self.tenant][status] += 1

    async def run_rounds(
        self, service: SelectionService, rounds: int
    ) -> None:
        for _ in range(rounds):
            started = time.perf_counter_ns()
            response = await service.rank_for_consumer(
                now=self.now,
                client_id=self.client_id,
                tenant=self.tenant,
                category=self.spec.category,
                perspective=self.client_id,
            )
            self.wall_ns[self.tenant].append(
                time.perf_counter_ns() - started
            )
            self._count(response.status)
            self.now += self._think()
            if response.ok and response.ranking:
                target = response.ranking[0][0]
                truth = self.world.true_quality.get(target, 0.5)
                noise = self.spec.rating_noise * (
                    2.0 * float(self.rng.random()) - 1.0
                )
                rating = min(1.0, max(0.0, truth + noise))
                feedback = await service.submit_feedback(
                    now=self.now,
                    client_id=self.client_id,
                    tenant=self.tenant,
                    rater=self.client_id,
                    target=target,
                    rating=rating,
                )
                self._count(feedback.status)
                self.now += self._think()


def _segments(spec: LoadSpec) -> List[Tuple[int, Optional[str], Optional[str]]]:
    """(rounds, admin-action-before, admin-action-after) segments."""
    boundaries: Dict[int, List[str]] = {}

    def mark(round_index: int, action: str) -> None:
        boundaries.setdefault(round_index, []).append(action)

    total = spec.requests_per_client
    if spec.outage_rounds is not None:
        start, end = spec.outage_rounds
        mark(min(start, total), "fail_registry")
        mark(min(end, total), "heal_registry")
    if spec.rebuild_rounds is not None:
        start, end = spec.rebuild_rounds
        mark(min(start, total), "begin_rebuild")
        mark(min(end, total), "end_rebuild")
    cuts = sorted(boundaries)
    segments: List[Tuple[int, Optional[str], Optional[str]]] = []
    previous = 0
    for cut in cuts:
        if cut > previous:
            segments.append((cut - previous, None, None))
        for action in boundaries[cut]:
            segments.append((0, action, None))
        previous = cut
    if total > previous:
        segments.append((total - previous, None, None))
    return segments


async def _drive(
    spec: LoadSpec, core: ServiceCore, workers: int
) -> Tuple[Dict[str, Dict[str, int]], Dict[str, List[int]]]:
    world = build_world(spec)
    seeds = SeedSequenceFactory(spec.seed)
    tally: Dict[str, Dict[str, int]] = {}
    wall_ns: Dict[str, List[int]] = {}
    clients: List[_Client] = []
    index = 0
    for t in range(spec.tenants):
        tenant = f"t{t}"
        tally[tenant] = {status: 0 for status in _STATUS_KEYS}
        wall_ns[tenant] = []
        for c in range(spec.clients_per_tenant):
            clients.append(
                _Client(
                    spec,
                    tenant,
                    f"{tenant}/c{c}",
                    index,
                    world,
                    seeds,
                    tally,
                    wall_ns,
                )
            )
            index += 1
    admin_now = 0.0
    async with SelectionService(core, workers=workers) as service:
        for rounds, action, _ in _segments(spec):
            if action is not None:
                admin_now = max(
                    [admin_now] + [client.now for client in clients]
                )
                await service.admin(
                    now=admin_now, client_id="_admin/c0", action=action
                )
                continue
            if rounds:
                await asyncio.gather(
                    *(
                        client.run_rounds(service, rounds)
                        for client in clients
                    )
                )
    return tally, wall_ns


def run_loadgen(
    spec: LoadSpec, workers: Optional[int] = None
) -> LoadReport:
    """Run one closed-loop load generation and return its report."""
    worker_count = spec.workers if workers is None else workers
    core = make_core(spec)
    with use_recorder(Recorder()) as rec:
        tally, wall_ns = asyncio.run(_drive(spec, core, worker_count))
        scores = core.final_scores()
        snapshot = rec.snapshot(
            meta={"seed": spec.seed, "model": spec.model, "kind": "serve"}
        )
    sla = serve_sla_table(snapshot.metrics, slo=spec.config.slo)
    return LoadReport(
        spec=spec,
        workers=worker_count,
        responses=tuple(core.responses),
        log=core.log,
        snapshot=snapshot,
        final_scores=scores,
        sla=sla,
        tally=tally,
        wall_ns=wall_ns,
    )


def replay_report(spec: LoadSpec, log: IngestLog) -> ReplayResult:
    """Replay *log* on a fresh core built from *spec*."""
    return replay_log(
        lambda: make_core(spec),
        log,
        meta={"seed": spec.seed, "model": spec.model, "kind": "serve"},
    )
