"""Sharded single-world execution with epoch-barrier feedback exchange.

:mod:`repro.experiments.parallel` scales *across* worlds: every trial
is independent, so processes never talk.  This module scales *one*
world: consumers are deterministically partitioned over N shard
processes, each shard runs select-invoke-rate rounds on its own sim
kernel for a fixed epoch, and shards exchange feedback only at the
epoch barrier as canonical :class:`~repro.store.EventStore` deltas.
The hard contract mirrors the parallel layer's:

    ``1 shard == 2 shards == 8 shards``, byte for byte.

Four design rules enforce it:

* **Hash partitioning, not enumeration order.**  Consumer *i* lives on
  ``shard_of(shard_consumer_id(i), N)`` — a pure function of the id
  via :func:`repro.p2p.hashing.stable_hash`, so the owner of any agent
  is computable by every process without coordination.  For a
  power-of-two shard count the partition coincides with the P-Grid
  key-space split: ``shard_of(e, 2**d) == int(shard_path(e, d), 2)``.
* **Frozen-score epochs (BSP).**  Rankings inside an epoch use the
  reputation scores broadcast at the epoch start; new feedback is
  buffered in a per-shard delta store and applied only at the barrier.
  No shard ever observes mid-epoch feedback, so results cannot depend
  on which shard produced a row first.
* **Canonical merge order.**  The coordinator merges delta stores in
  shard-index order (a list, never a set), then re-sorts rows by the
  ``(round, consumer index)`` key columns every delta carries.  The
  merged row order — and therefore every interner code and
  ``canonical_bytes()`` — equals what the 1-shard run appends
  directly.
* **Per-consumer RNG streams.**  Each consumer's policy/invocation/
  rating randomness comes from :func:`shard_consumer_streams`, a pure
  function of (world seed, consumer index).  A consumer's trajectory
  given the broadcast scores is identical no matter which shard hosts
  it.

Feedback crossing the barrier is the store row ``(rater, target,
overall rating, int64 tick)``: facet detail and the backing
interaction stay shard-local, so context factors that need the
interaction (e.g. PeerTrust's transaction factor) see the neutral 1.0
on *every* shard count, including 1 — the invariant is preserved by
construction, not by luck.

Telemetry is split so the invariant stays checkable: the canonical
:class:`~repro.obs.trace.TelemetrySnapshot` (epoch spans, row
counters, the coordinator's Figure-2 ledger) never mentions the shard
count, while everything N-dependent — per-shard loads, cross-shard
feedback traffic, exchange-protocol messages, wall time — lives in the
separate :class:`ShardDispatchReport`.
"""

from __future__ import annotations

import multiprocessing as mp
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import ConfigurationError, UnknownEntityError
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.common.simtime import from_ticks, to_ticks
from repro.core.scenarios import ScenarioResult
from repro.experiments.parallel import picklable
from repro.experiments.workloads import (
    World,
    make_shard_world,
    shard_consumer_id,
    shard_consumer_streams,
)
from repro.obs.ledger import ActivityLedger, merged_ledger_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.trace import TelemetrySnapshot
from repro.p2p.hashing import stable_hash
from repro.services.invocation import InvocationEngine
from repro.services.provider import TruthTable
from repro.sim.kernel import Simulator
from repro.sim.network import MessageStats, Network, stats_from_snapshot
from repro.store import EventStore

__all__ = [
    "DEFAULT_SHARD_WORLD",
    "SERIAL",
    "PROCESS",
    "ShardDelta",
    "ShardDispatchReport",
    "ShardRuntime",
    "ShardedRunReport",
    "ShardedRunSpec",
    "register_shard_world_builder",
    "run_sharded_experiment",
    "shard_of",
    "shard_world_builder",
]

#: Execution modes reported by :class:`ShardDispatchReport`.
SERIAL = "serial"
PROCESS = "process"

#: The Figure-2 activity shards charge their feedback rows to.
ACTIVITY = "feedback"


def shard_of(entity_id: EntityId, shards: int) -> int:
    """Home shard of *entity_id* under an N-way key-space partition.

    Maps :func:`~repro.p2p.hashing.stable_hash`'s 64-bit output onto
    ``range(shards)`` by range partitioning (multiply-shift), so for
    ``shards == 2**d`` the result is exactly the top *d* hash bits —
    the :func:`~repro.p2p.pgrid.shard_path` subtree prefix.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if shards == 1:
        return 0
    return (stable_hash(str(entity_id), bits=64) * shards) >> 64


# ---------------------------------------------------------------------------
# Shard-world-builder registry
# ---------------------------------------------------------------------------

DEFAULT_SHARD_WORLD = "make_shard_world"

_SHARD_WORLD_BUILDERS: Dict[str, Callable[..., World]] = {
    DEFAULT_SHARD_WORLD: make_shard_world,
}


def register_shard_world_builder(
    name: str, builder: Callable[..., World], overwrite: bool = False
) -> None:
    """Register *builder* under *name* for use in :class:`ShardedRunSpec`.

    Builders must accept ``seed=<int>``, ``consumer_indices=<list>``
    plus the spec's ``world_params`` as keyword arguments and build
    only the requested consumers (the catalog side must not depend on
    which consumers are built — see :func:`make_shard_world`).
    Register at module import time so forked workers see the same
    table.
    """
    if not overwrite and name in _SHARD_WORLD_BUILDERS:
        raise ConfigurationError(f"duplicate shard world builder: {name!r}")
    _SHARD_WORLD_BUILDERS[name] = builder


def shard_world_builder(name: str) -> Callable[..., World]:
    try:
        return _SHARD_WORLD_BUILDERS[name]
    except KeyError:
        raise UnknownEntityError(
            f"unknown shard world builder: {name!r}"
        ) from None


# ---------------------------------------------------------------------------
# Specs and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardedRunSpec:
    """A picklable description of one sharded single-world run.

    The shard count is deliberately *not* part of the spec: the same
    spec run at any N must produce byte-identical canonical output, so
    N is a dispatch argument of :func:`run_sharded_experiment`.
    """

    model: str = "beta"
    seed: int = 0
    epochs: int = 4
    rounds_per_epoch: int = 4
    world: str = DEFAULT_SHARD_WORLD
    world_params: Mapping[str, Any] = field(default_factory=dict)
    round_length: float = 1.0
    epsilon: float = 0.1
    optimality_tolerance: float = 0.02
    telemetry: bool = False
    label: str = "sharded"

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1: {self.epochs}")
        if self.rounds_per_epoch < 1:
            raise ConfigurationError(
                f"rounds_per_epoch must be >= 1: {self.rounds_per_epoch}"
            )
        if self.round_length <= 0:
            raise ConfigurationError(
                f"round_length must be positive: {self.round_length}"
            )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigurationError(
                f"epsilon must be in [0, 1]: {self.epsilon}"
            )

    @property
    def total_rounds(self) -> int:
        return self.epochs * self.rounds_per_epoch

    @property
    def n_consumers(self) -> int:
        return int(dict(self.world_params).get("n_consumers", 20))

    def epoch_start(self, epoch: int) -> float:
        return epoch * self.rounds_per_epoch * self.round_length


@dataclass
class ShardDelta:
    """One shard's buffered output for one epoch.

    ``store`` holds the feedback rows in the shard's local append
    order; ``rounds``/``consumers`` are aligned int64 key columns the
    coordinator lexsorts on to recover the canonical global row order
    (a consumer lives on exactly one shard and files one row per
    round, so the key is unique per row).
    """

    shard: int
    epoch: int
    store: EventStore
    rounds: np.ndarray
    consumers: np.ndarray
    regrets: np.ndarray
    #: tolerance-accurate selections per round of this epoch
    accurate: np.ndarray
    #: feedback rows by home shard of the rated service
    home_counts: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(len(self.regrets))


@dataclass
class ShardDispatchReport:
    """Everything shard-count dependent about one run.

    Kept out of the canonical telemetry so the N-invariance gate can
    compare whole snapshots; ``feedback_stats`` / ``load_imbalance``
    come from the *merged* per-shard network registries
    (:func:`~repro.sim.network.stats_from_snapshot`), so shards whose
    nodes stayed silent still count in the denominator.
    """

    shards: int
    mode: str
    wall_ns: int
    consumers_per_shard: List[int]
    rows_per_shard: List[int]
    #: feedback rows whose rated service homes on a different shard
    cross_shard_rows: int
    #: max/mean feedback rows landing per home shard (merged registries)
    load_imbalance: float
    feedback_stats: MessageStats
    #: coordinator-side barrier protocol traffic (score broadcasts, deltas)
    exchange_stats: MessageStats
    #: merged per-shard Figure-2 ledger (priced once across registries)
    fig2: List[Dict[str, Any]]


@dataclass
class ShardedRunReport:
    """Outcome of :func:`run_sharded_experiment`."""

    spec: ShardedRunSpec
    shards: int
    store: EventStore
    result: ScenarioResult
    final_scores: List[float]
    service_ids: List[EntityId]
    telemetry: Optional[TelemetrySnapshot]
    dispatch: ShardDispatchReport

    def canonical_bytes(self) -> bytes:
        """The invariance gate: identical for every shard count."""
        return self.store.canonical_bytes()


# ---------------------------------------------------------------------------
# Shard runtime (one partition of the world)
# ---------------------------------------------------------------------------


class ShardRuntime:
    """Runs one shard's consumers on a private sim kernel.

    Selection follows the harness's epsilon-greedy discipline against
    the scores frozen at the epoch start; accuracy/regret accounting
    mirrors :class:`~repro.core.scenarios.DirectSelectionScenario`
    (same optimality tolerance, same per-round bookkeeping).
    """

    def __init__(
        self, spec: ShardedRunSpec, shard_index: int, n_shards: int
    ) -> None:
        if not 0 <= shard_index < n_shards:
            raise ConfigurationError(
                f"shard index {shard_index} outside [0, {n_shards})"
            )
        self.spec = spec
        self.shard = shard_index
        self.n_shards = n_shards
        builder = shard_world_builder(spec.world)
        params = dict(spec.world_params)
        n_consumers = int(params.pop("n_consumers", 20))
        self.owned = [
            i
            for i in range(n_consumers)
            if shard_of(shard_consumer_id(i), n_shards) == shard_index
        ]
        self.world = builder(
            seed=spec.seed,
            n_consumers=n_consumers,
            consumer_indices=self.owned,
            **params,
        )
        self.consumers = self.world.consumers
        self._services = list(self.world.services)
        self.service_ids = [svc.service_id for svc in self._services]
        self._n_services = len(self._services)
        self._service_home = [
            shard_of(sid, n_shards) for sid in self.service_ids
        ]
        # One truth row per distinct taste per round: heterogeneous
        # worlds get one per (weights, segment); homogeneous worlds
        # collapse to n_segments rows.
        self._truth = TruthTable(self._services)
        self._truth_keys = [
            TruthTable.taste_key(c.preferences.weights, c.segment)
            for c in self.consumers
        ]
        self._policy_rngs = []
        self._invokers = []
        for i in self.owned:
            streams = shard_consumer_streams(self.world.seeds, i)
            self._policy_rngs.append(streams.rng("policy"))
            self._invokers.append(
                InvocationEngine(self.world.taxonomy, rng=streams.rng("invoke"))
            )
        self.sim = Simulator(start=0.0)
        # Shard-local accounting: one registry carries both the net.*
        # traffic counters and the fig2.* ledger, snapshotted once at
        # the end and merged by the coordinator.  Registering every
        # shard node up front keeps silent shards in the merged
        # universe (the load-imbalance denominator).
        self.network = Network(base_latency=0.0, jitter=0.0, rng=0)
        for s in range(n_shards):
            self.network.register_node(f"shard-{s}")
        self.ledger = ActivityLedger(self.network.metrics)
        self.ledger.touch(ACTIVITY)
        self._epochs_run = 0

    def run_epoch(self, epoch: int, scores: Sequence[float]) -> ShardDelta:
        """Run one epoch against *scores* and return the buffered delta."""
        spec = self.spec
        if epoch != self._epochs_run:
            raise ConfigurationError(
                f"epoch {epoch} out of order (expected {self._epochs_run})"
            )
        if len(scores) != self._n_services:
            raise ConfigurationError(
                f"expected {self._n_services} scores, got {len(scores)}"
            )
        n_rounds = spec.rounds_per_epoch
        n_own = len(self.owned)
        rows = n_own * n_rounds
        store = EventStore(time_dtype="int64")
        rounds_col = np.empty(rows, dtype=np.int64)
        consumers_col = np.empty(rows, dtype=np.int64)
        regrets = np.empty(rows, dtype=np.float64)
        accurate = np.zeros(n_rounds, dtype=np.int64)
        home_counts = np.zeros(self.n_shards, dtype=np.int64)
        # Scores are frozen for the whole epoch, so the exploit arm is
        # a constant: the harness's (score, id) tie-break, computed once.
        exploit = 0
        if self._n_services:
            exploit = max(
                range(self._n_services),
                key=lambda j: (scores[j], self.service_ids[j]),
            )
        epoch_start = spec.epoch_start(epoch)
        state = {"round": 0, "row": 0}

        def fire_round() -> None:
            r_local = state["round"]
            t = epoch_start + r_local * spec.round_length
            row = state["row"]
            for k in range(n_own):
                consumer = self.consumers[k]
                rng = self._policy_rngs[k]
                if float(rng.random()) < spec.epsilon:
                    j = int(rng.integers(self._n_services))
                else:
                    j = exploit
                best, quals = self._truth.row(
                    t,
                    consumer.preferences.weights,
                    consumer.segment,
                    self._truth_keys[k],
                )
                chosen_quality = quals[j]
                optimal_quality = quals[best]
                if (
                    j == best
                    or optimal_quality - chosen_quality
                    <= spec.optimality_tolerance
                ):
                    accurate[r_local] += 1
                interaction = self._invokers[k].invoke(
                    consumer, self._services[j], t
                )
                feedback = consumer.rate(interaction, self.world.taxonomy)
                store.append(
                    feedback.rater,
                    feedback.target,
                    feedback.rating,
                    to_ticks(feedback.time),
                )
                rounds_col[row] = epoch * n_rounds + r_local
                consumers_col[row] = self.owned[k]
                regrets[row] = optimal_quality - chosen_quality
                home_counts[self._service_home[j]] += 1
                row += 1
            state["row"] = row
            state["round"] = r_local + 1

        self.sim.schedule_every(
            spec.round_length,
            fire_round,
            start=epoch_start,
            count=n_rounds,
        )
        self.sim.run(until=epoch_start + n_rounds * spec.round_length)
        if state["row"] != rows:
            raise ConfigurationError(
                f"shard {self.shard} produced {state['row']} rows, "
                f"expected {rows}"
            )
        src = f"shard-{self.shard}"
        for dst in range(self.n_shards):
            self.network.record_traffic(
                src,
                f"shard-{dst}",
                kind="feedback",
                messages=int(home_counts[dst]),
            )
        self.ledger.charge(ACTIVITY, feedback=rows)
        self._epochs_run += 1
        return ShardDelta(
            shard=self.shard,
            epoch=epoch,
            store=store,
            rounds=rounds_col,
            consumers=consumers_col,
            regrets=regrets,
            accurate=accurate,
            home_counts=home_counts,
        )

    def finalize(self) -> Dict[str, Any]:
        """The shard's metrics snapshot (net.* traffic + fig2 ledger)."""
        return self.network.metrics.snapshot()


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    """Owns the reference model, the global store, and all merging."""

    def __init__(self, spec: ShardedRunSpec, shards: int) -> None:
        from repro.core.registry import default_registry

        self.spec = spec
        self.shards = shards
        self.model = default_registry(rng_seed=spec.seed).create(spec.model)
        # Catalog-only build: consumer_indices=[] materializes zero
        # consumers but the identical provider/service side.
        params = dict(spec.world_params)
        params["consumer_indices"] = []
        world = shard_world_builder(spec.world)(seed=spec.seed, **params)
        self.service_ids: List[EntityId] = [
            svc.service_id for svc in world.services
        ]
        self.store = EventStore(time_dtype="int64")
        self._accurate = np.zeros(spec.total_rounds, dtype=np.int64)
        self._regret_chunks: List[np.ndarray] = []
        self._selection_counts: Dict[EntityId, int] = {}
        self._selections = 0
        self._rows_per_shard = [0] * shards
        self._cross_rows = 0
        self.recorder = Recorder() if spec.telemetry else None
        self.ledger = (
            ActivityLedger(self.recorder.registry) if self.recorder else None
        )
        if self.ledger is not None:
            self.ledger.touch(ACTIVITY)
        # Barrier-protocol accounting (N-dependent, dispatch-only).
        self.exchange_net = Network(base_latency=0.0, jitter=0.0, rng=0)
        self.exchange_net.register_node("coordinator")
        for s in range(shards):
            self.exchange_net.register_node(f"shard-{s}")

    def epoch_scores(self, epoch: int) -> List[float]:
        """Scores frozen for *epoch*, broadcast to every shard."""
        scores = self.model.score_many(
            self.service_ids, now=self.spec.epoch_start(epoch)
        )
        for s in range(self.shards):
            self.exchange_net.record_traffic(
                "coordinator",
                f"shard-{s}",
                kind="shard-scores",
                messages=1,
                size=len(scores),
            )
        return scores

    def apply(self, epoch: int, deltas: Sequence[ShardDelta]) -> None:
        """Merge one epoch's shard deltas in canonical order.

        *deltas* arrive as a list in shard-index order; the merged rows
        are then re-sorted by the ``(round, consumer index)`` key so
        the global append order — and every interner code downstream —
        matches the 1-shard run exactly.
        """
        spec = self.spec
        epoch_store = EventStore(time_dtype="int64")
        for delta in deltas:  # shard-index order: the canonical merge
            epoch_store.merge_from(delta.store)
        rounds = np.concatenate([d.rounds for d in deltas])
        consumers = np.concatenate([d.consumers for d in deltas])
        regrets = np.concatenate([d.regrets for d in deltas])
        order = np.lexsort((consumers, rounds))
        cols = epoch_store.snapshot()
        names = np.array(list(epoch_store.entities.values()), dtype=object)
        raters = [str(r) for r in names[cols.rater[order]]]
        targets = [str(t) for t in names[cols.target[order]]]
        values = cols.value[order]
        ticks = cols.time[order]
        self.store.extend(raters, targets, values.tolist(), ticks)
        feedbacks = [
            Feedback(rater=r, target=t, time=from_ticks(tk), rating=v)
            for r, t, v, tk in zip(
                raters, targets, values.tolist(), ticks.tolist()
            )
        ]
        self.model.record_many(feedbacks)
        lo = epoch * spec.rounds_per_epoch
        for delta in deltas:
            self._accurate[lo : lo + spec.rounds_per_epoch] += delta.accurate
            self._rows_per_shard[delta.shard] += delta.n_rows
            self._cross_rows += int(
                delta.home_counts.sum() - delta.home_counts[delta.shard]
            )
            self.exchange_net.record_traffic(
                f"shard-{delta.shard}",
                "coordinator",
                kind="shard-delta",
                messages=1,
                size=delta.n_rows,
            )
        self._regret_chunks.append(regrets[order])
        for target in targets:
            self._selection_counts[target] = (
                self._selection_counts.get(target, 0) + 1
            )
        self._selections += len(raters)
        if self.recorder is not None:
            start = spec.epoch_start(epoch)
            self.recorder.span(
                "sharded.epoch",
                duration=spec.rounds_per_epoch * spec.round_length,
                attrs={"epoch": epoch, "rows": len(raters)},
                time=start,
            )
            self.recorder.advance(spec.epoch_start(epoch + 1))
            self.recorder.count("sharded.rows", len(raters))
        if self.ledger is not None:
            self.ledger.charge(ACTIVITY, feedback=len(raters))

    def finish(
        self,
        mode: str,
        consumers_per_shard: List[int],
        shard_snapshots: List[Dict[str, Any]],
        wall_ns: int,
    ) -> ShardedRunReport:
        spec = self.spec
        n_consumers = spec.n_consumers
        regrets = (
            np.concatenate(self._regret_chunks)
            if self._regret_chunks
            else np.empty(0, dtype=np.float64)
        )
        optimal = int(self._accurate.sum())
        result = ScenarioResult(
            rounds=spec.total_rounds,
            selections=self._selections,
            optimal_selections=optimal,
            regrets=[float(r) for r in regrets],
            round_accuracy=[
                count / n_consumers if n_consumers else 0.0
                for count in self._accurate.tolist()
            ],
            selection_counts=dict(self._selection_counts),
        )
        final_scores = self.model.score_many(
            self.service_ids, now=spec.total_rounds * spec.round_length
        )
        telemetry = None
        if self.recorder is not None:
            telemetry = TelemetrySnapshot.capture(
                self.recorder.tracer,
                self.recorder.registry,
                meta={
                    "kind": "sharded",
                    "label": spec.label,
                    "model": spec.model,
                    "seed": spec.seed,
                    "epochs": spec.epochs,
                    "rounds_per_epoch": spec.rounds_per_epoch,
                    "world": spec.world,
                },
            )
        merged = MetricsRegistry.merge_snapshots(shard_snapshots)
        feedback_stats = stats_from_snapshot(merged)
        dispatch = ShardDispatchReport(
            shards=self.shards,
            mode=mode,
            wall_ns=wall_ns,
            consumers_per_shard=consumers_per_shard,
            rows_per_shard=list(self._rows_per_shard),
            cross_shard_rows=self._cross_rows,
            load_imbalance=feedback_stats.load_imbalance(),
            feedback_stats=feedback_stats,
            exchange_stats=self.exchange_net.stats,
            fig2=merged_ledger_table(shard_snapshots),
        )
        return ShardedRunReport(
            spec=spec,
            shards=self.shards,
            store=self.store,
            result=result,
            final_scores=list(final_scores),
            service_ids=list(self.service_ids),
            telemetry=telemetry,
            dispatch=dispatch,
        )


# ---------------------------------------------------------------------------
# Worker protocol
# ---------------------------------------------------------------------------


def _worker_main(
    conn: Any, spec: ShardedRunSpec, shard_index: int, n_shards: int
) -> None:
    """One shard process: build once, then serve epochs over the pipe."""
    try:
        runtime = ShardRuntime(spec, shard_index, n_shards)
        conn.send(("ready", len(runtime.owned)))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "epoch":
                conn.send(("delta", runtime.run_epoch(message[1], message[2])))
            elif command == "stats":
                conn.send(("stats", runtime.finalize()))
            elif command == "stop":
                return
            else:
                raise ConfigurationError(f"unknown command: {command!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        # Grandfathered: best-effort error forwarding on an already-dying
        # worker.  If the pipe itself is gone there is nobody left to
        # tell; the coordinator sees the broken pipe and raises anyway.
        except Exception:  # reprolint: disable=R011
            pass
    finally:
        conn.close()


def _expect(conn: Any, tag: str) -> Any:
    message = conn.recv()
    if message[0] == "error":
        raise RuntimeError(f"shard worker failed:\n{message[1]}")
    if message[0] != tag:
        raise RuntimeError(
            f"protocol error: expected {tag!r}, got {message[0]!r}"
        )
    return message[1]


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_sharded_experiment(
    spec: ShardedRunSpec,
    shards: int = 1,
    mode: Optional[str] = None,
) -> ShardedRunReport:
    """Run *spec* partitioned over *shards*, canonical at any N.

    Args:
        shards: number of partitions (and worker processes in
            ``process`` mode).
        mode: ``None`` picks processes when ``shards > 1`` and the
            spec/builder survive a pickling pre-check, else falls back
            to an in-process loop over the same :class:`ShardRuntime`
            (identical results by construction).  ``"serial"`` forces
            the loop; ``"process"`` insists and raises when the spec
            cannot cross a process boundary.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if mode not in (None, SERIAL, PROCESS):
        raise ConfigurationError(f"unknown mode: {mode!r}")
    builder = shard_world_builder(spec.world)
    can_pickle = picklable(spec, builder)
    if mode == PROCESS and not can_pickle:
        raise ConfigurationError(
            "process mode requires a picklable spec and a module-level "
            "world builder"
        )
    use_pool = shards > 1 and mode != SERIAL and can_pickle
    coordinator = _Coordinator(spec, shards)
    start_ns = _time.perf_counter_ns()
    if use_pool:
        consumers_per_shard, shard_snapshots = _run_process(
            spec, shards, coordinator
        )
        mode_used = PROCESS
    else:
        consumers_per_shard, shard_snapshots = _run_serial(
            spec, shards, coordinator
        )
        mode_used = SERIAL
    wall_ns = _time.perf_counter_ns() - start_ns
    return coordinator.finish(
        mode_used, consumers_per_shard, shard_snapshots, wall_ns
    )


def _run_serial(
    spec: ShardedRunSpec, shards: int, coordinator: _Coordinator
) -> Tuple[List[int], List[Dict[str, Any]]]:
    runtimes = [ShardRuntime(spec, s, shards) for s in range(shards)]
    for epoch in range(spec.epochs):
        scores = coordinator.epoch_scores(epoch)
        deltas = [runtime.run_epoch(epoch, scores) for runtime in runtimes]
        coordinator.apply(epoch, deltas)
    return (
        [len(runtime.owned) for runtime in runtimes],
        [runtime.finalize() for runtime in runtimes],
    )


def _run_process(
    spec: ShardedRunSpec, shards: int, coordinator: _Coordinator
) -> Tuple[List[int], List[Dict[str, Any]]]:
    processes: List[mp.Process] = []
    conns: List[Any] = []
    try:
        for s in range(shards):
            parent, child = mp.Pipe()
            process = mp.Process(
                target=_worker_main,
                args=(child, spec, s, shards),
                daemon=True,
            )
            process.start()
            child.close()
            processes.append(process)
            conns.append(parent)
        consumers_per_shard = [_expect(conn, "ready") for conn in conns]
        for epoch in range(spec.epochs):
            scores = coordinator.epoch_scores(epoch)
            for conn in conns:
                conn.send(("epoch", epoch, scores))
            # Receiving in shard order is deadlock-free: every worker
            # computes independently and blocks only on its own pipe.
            deltas = [_expect(conn, "delta") for conn in conns]
            coordinator.apply(epoch, deltas)
        for conn in conns:
            conn.send(("stats",))
        shard_snapshots = [_expect(conn, "stats") for conn in conns]
        for conn in conns:
            conn.send(("stop",))
        return consumers_per_shard, shard_snapshots
    finally:
        for conn in conns:
            conn.close()
        for process in processes:
            process.join(timeout=30)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
