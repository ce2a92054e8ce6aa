"""Sharded single-world execution with epoch-barrier feedback exchange.

:mod:`repro.experiments.parallel` scales *across* worlds: every trial
is independent, so processes never talk.  This module scales *one*
world: consumers are deterministically partitioned over N shard
processes, each shard runs select-invoke-rate rounds on its own sim
kernel for a fixed epoch, and shards exchange feedback only at the
epoch barrier as code-column deltas (:class:`ShardDelta`).
The hard contract mirrors the parallel layer's:

    ``1 shard == 2 shards == 8 shards``, byte for byte.

Four design rules enforce it:

* **Keyed partitioning, not enumeration order.**  Consumer *i* lives
  on the multiply-shift bucket of one Philox word of its global index
  under the constant :data:`PARTITION_KEY` — a pure function of
  ``(i, N)``, so the owner of any agent is computable by every process
  without coordination, and adding consumers re-homes nobody.
  Services and every other entity keep :func:`shard_of`, SHA-256 of
  the id via :func:`repro.p2p.hashing.stable_hash`; for a power-of-two
  shard count that partition coincides with the P-Grid key-space
  split: ``shard_of(e, 2**d) == int(shard_path(e, d), 2)``.
  The coordinator computes every consumer's home once per run and
  hands the resulting column to each shard.
* **Frozen-score epochs (BSP).**  Rankings inside an epoch use the
  reputation scores broadcast at the epoch start; new feedback is
  buffered in per-shard delta columns and applied only at the barrier.
  No shard ever observes mid-epoch feedback, so results cannot depend
  on which shard produced a row first.
* **Canonical merge order.**  The coordinator concatenates delta
  columns in shard-index order (a list, never a set), then re-sorts
  rows by the ``(round, consumer index)`` key columns every delta
  carries, with one lexsort.  The merged row order — and, through the
  first-appearance coded append
  (:meth:`~repro.store.EventStore.extend_coded`), every interner code
  and ``canonical_bytes()`` — equals what the 1-shard run appends
  directly.
* **Keyed counter draws.**  Every draw of a round — explore, choice,
  success, QoS noise, rating noise — is Philox4x32-10 of the counter
  ``(global consumer index, purpose, global round, block)`` under one
  key per world (:func:`~repro.common.randomness.keyed_uniforms`).  A
  consumer's trajectory given the broadcast scores is a pure function
  of the seed and its index, whichever shard hosts it, and one call
  draws a whole round for every consumer a shard owns.

Feedback crossing the barrier is the row ``(rater, target, overall
rating, int64 tick)``, ids as indices into the shard's consumer list
and the shared service catalog: facet detail and the backing
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

import numbers
import time as _time
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.common.errors import (
    ConfigurationError,
    UnknownEntityError,
    WorkerError,
)
from repro.common.ids import EntityId
from repro.common.randomness import keyed_draws, keyed_words
from repro.common.simtime import times_array, to_ticks
from repro.core.scenarios import ScenarioResult
from repro.experiments.parallel import WorkerGroup, picklable
from repro.experiments.workloads import (
    NOISE_DRAWS,
    SELECT_DRAWS,
    World,
    make_shard_world,
    shard_draw_key,
)

# Not used here: profilers (perfbench's layer table) patch this name on
# both modules to time the builder's keyed draws, so it must stay
# resolvable on this module too.
from repro.experiments.workloads import shard_consumer_streams  # noqa: F401
from repro.obs.ledger import ActivityLedger, merged_ledger_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.trace import TelemetrySnapshot
from repro.p2p.hashing import stable_hash, stable_hashes
from repro.services.consumer import (
    PreferenceProfile,
    honest_rating_strategy,
    rate_many,
)
from repro.services.provider import TruthTable
from repro.services.qos import sample_many
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
    "shard_homes",
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


def shard_homes(entity_ids: Sequence[EntityId], shards: int) -> np.ndarray:
    """:func:`shard_of` of every id in one pass, as an ``int64`` array."""
    if shards == 1:
        return np.zeros(len(entity_ids), dtype=np.int64)
    return _buckets(stable_hashes(entity_ids), shards)


def _buckets(hashes: np.ndarray, shards: int) -> np.ndarray:
    """``(hash * shards) >> 64`` of every ``uint64`` hash, as ``int64``.

    The multiply-shift runs on the two 32-bit halves of each hash, so
    every product fits in 64 bits (hence ``shards < 2**32``).
    """
    if not 1 <= shards < 2**32:
        raise ConfigurationError(f"shards must be in [1, 2**32), got {shards}")
    n = np.uint64(shards)
    low = ((hashes & np.uint64(0xFFFFFFFF)) * n) >> np.uint64(32)
    high = (hashes >> np.uint64(32)) * n + low
    return (high >> np.uint64(32)).astype(np.int64)


#: The Philox key of the consumer partition: the 64-bit golden-ratio
#: constant, fixed and independent of the seed, so a consumer's home is
#: a pure function of (index, shard count) that any process computes.
PARTITION_KEY = 0x9E3779B97F4A7C15


def _consumer_homes(n_consumers: int, shards: int) -> np.ndarray:
    """Home shard of every consumer index ``0 .. n_consumers - 1``.

    Consumer *i* homes on the multiply-shift bucket of the Philox word
    of counter ``(i, 0, 0, 0)`` under :data:`PARTITION_KEY`: no id is
    formatted or hashed, and a home never depends on how many consumers
    follow, so a growing world re-homes nobody.
    """
    if shards == 1:
        return np.zeros(n_consumers, dtype=np.int64)
    words = keyed_words(PARTITION_KEY, np.arange(n_consumers), 0, 0)
    return _buckets(words, shards)


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
    Register at module import time so forked/spawned workers see the
    same table; a builder registered inside a function reaches only
    workers forked after it, and nothing checks that.
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
        if self.optimality_tolerance < 0:
            raise ConfigurationError(
                "optimality_tolerance must be >= 0: "
                f"{self.optimality_tolerance}"
            )
        n_consumers = dict(self.world_params).get("n_consumers", 20)
        if (
            isinstance(n_consumers, bool)
            or not isinstance(n_consumers, numbers.Integral)
            or n_consumers < 1
        ):
            raise ConfigurationError(
                f"n_consumers must be a positive int: {n_consumers!r}"
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
    """One shard's buffered output for one epoch, as code columns.

    Row *i* is consumer ``raters[rater[i]]`` rating catalog service
    ``service[i]`` (an index into the service list every shard and
    the coordinator build alike) with ``rating[i]`` at int64 tick
    ``tick[i]``.  ``rounds``/``consumers`` are aligned int64 key
    columns the coordinator lexsorts on to recover the canonical
    global row order (a consumer lives on exactly one shard and files
    one row per round, so the key is unique per row).  Every per-row
    column (:data:`ROW_FIELDS`) holds ``len(raters) * rounds`` rows.
    """

    shard: int
    epoch: int
    #: the owned consumers' ids, once per shard (never once per row)
    raters: List[EntityId]
    rater: np.ndarray
    service: np.ndarray
    rating: np.ndarray
    tick: np.ndarray
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


#: The per-row columns of a :class:`ShardDelta`.
ROW_FIELDS = (
    "rater", "service", "rating", "tick", "rounds", "consumers", "regrets"
)


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
    #: the whole run, coordinator set-up (and the partition) included
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
    (same optimality tolerance, same per-round bookkeeping).  Each
    round is a few array operations over every owned consumer
    (:func:`~repro.services.qos.sample_many`,
    :func:`~repro.services.consumer.rate_many`).  They cover honest
    raters over profiles that carry exactly the taxonomy's metrics;
    any other world raises :class:`ConfigurationError` here, naming
    the consumer or service.

    *homes* is the home shard of every consumer index (the run's
    partition, computed once by the coordinator); without it the
    runtime computes the partition itself.
    """

    def __init__(
        self,
        spec: ShardedRunSpec,
        shard_index: int,
        n_shards: int,
        homes: Optional[np.ndarray] = None,
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
        if homes is None:
            homes = _consumer_homes(n_consumers, n_shards)
        elif len(homes) != n_consumers:
            raise ConfigurationError(
                f"homes covers {len(homes)} consumers, expected {n_consumers}"
            )
        self.owned = np.flatnonzero(homes == shard_index).tolist()
        self.world = builder(
            seed=spec.seed,
            n_consumers=n_consumers,
            consumer_indices=self.owned,
            **params,
        )
        self.consumers = self.world.consumers
        self._taxonomy = self.world.taxonomy
        metrics = self._taxonomy.names()
        self._n_metrics = len(metrics)
        self._raters: List[EntityId] = []
        noise: List[float] = []
        # Consumers sharing a profile object share its weight vector,
        # taste and segment: each is computed once per distinct profile
        # and gathered into per-consumer columns.
        profile_codes: Dict[int, int] = {}
        profiles: List[PreferenceProfile] = []
        profile_of: List[int] = []
        for consumer in self.consumers:
            if consumer.rating_strategy is not honest_rating_strategy:
                raise ConfigurationError(
                    f"consumer {consumer.consumer_id}: the shard runtime "
                    "rates honestly only, got rating strategy "
                    f"{getattr(consumer.rating_strategy, '__name__', '?')}"
                )
            self._raters.append(consumer.consumer_id)
            noise.append(consumer.rating_noise)
            code = profile_codes.setdefault(
                id(consumer.preferences), len(profiles)
            )
            if code == len(profiles):
                profiles.append(consumer.preferences)
            profile_of.append(code)
        self._rating_noise = np.array(noise, dtype=np.float64)
        self._services = list(self.world.services)
        for svc in self._services:
            if list(svc.profile.quality) != metrics:
                raise ConfigurationError(
                    f"service {svc.service_id}: profile metrics "
                    f"{list(svc.profile.quality)} differ from the "
                    f"taxonomy's {metrics}"
                )
        self.service_ids = [svc.service_id for svc in self._services]
        self._n_services = len(self._services)
        self._service_home = shard_homes(self.service_ids, n_shards)
        # Draws are keyed counters: a pure function of (world key,
        # global consumer index, purpose, global round), whichever
        # shard hosts the consumer.
        self._key = shard_draw_key(self.world.seeds)
        self._streams = np.array(self.owned, dtype=np.int64)
        gather = np.array(profile_of, dtype=np.int64)
        self._weights = np.array(
            [p.weight_vector(metrics) for p in profiles], dtype=np.float64
        ).reshape(len(profiles), self._n_metrics)[gather]
        # One truth row per distinct taste per round: heterogeneous
        # worlds get one per (weights, segment); homogeneous worlds
        # collapse to n_segments rows.
        self._truth = TruthTable(self._services)
        tastes: Dict[Hashable, int] = {}
        self._tastes: List[Tuple[Mapping[str, float], int, Hashable]] = []
        segments: Dict[int, int] = {}
        taste_of, segment_of = [], []
        for p in profiles:
            key = p.taste_key
            if key not in tastes:
                tastes[key] = len(self._tastes)
                self._tastes.append((p.weights, p.segment, key))
            taste_of.append(tastes[key])
            segment_of.append(segments.setdefault(p.segment, len(segments)))
        self._taste_of = np.array(taste_of, dtype=np.int64)[gather]
        self._segments = list(segments)
        self._segment_of = np.array(segment_of, dtype=np.int64)[gather]
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

    def round_draws(
        self, global_round: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every owned consumer's draws for one round.

        Returns the ``(n, 3)`` uniforms (explore, choice, success), then
        the ``(n, n_metrics)`` QoS and rating normals, rows in
        :attr:`owned` order.
        """
        m = self._n_metrics
        streams = self._streams  # global consumer indices
        uniforms, normals = keyed_draws(
            self._key,
            streams,
            global_round,
            (SELECT_DRAWS, 3),
            (NOISE_DRAWS, 2 * m),
        )
        return uniforms, normals[:, :m], normals[:, m:]

    def _round(
        self, global_round: int, t: float, exploit: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One select-invoke-rate round over every owned consumer.

        Returns the chosen service index, the rating, the regret and the
        tolerance-accuracy flag of each consumer, in :attr:`owned` order.
        """
        spec = self.spec
        uniforms, qos_normals, rating_normals = self.round_draws(global_round)
        choice = np.where(
            uniforms[:, 0] < spec.epsilon,
            np.minimum(
                (uniforms[:, 1] * self._n_services).astype(np.int64),
                self._n_services - 1,
            ),
            exploit,
        )
        rows = [self._truth.row(t, w, seg, key) for w, seg, key in self._tastes]
        best = np.array([b for b, _ in rows], dtype=np.int64)[self._taste_of]
        quals = np.array([q for _, q in rows], dtype=np.float64).reshape(
            len(rows), self._n_services
        )
        chosen_q = quals[self._taste_of, choice]
        optimal_q = quals[self._taste_of, best]
        regret = optimal_q - chosen_q
        accurate = (choice == best) | (regret <= spec.optimality_tolerance)
        profiles = [svc.profile_at(t) for svc in self._services]
        truth = np.array(
            [[p._truth_vector(seg) for p in profiles] for seg in self._segments],
            dtype=np.float64,
        ).reshape(len(self._segments), self._n_services, self._n_metrics)
        noise = np.array([p.noise for p in profiles], dtype=np.float64)
        success_rate = np.array(
            [p.success_rate for p in profiles], dtype=np.float64
        )
        observations = sample_many(
            truth[self._segment_of, choice],
            noise[choice],
            qos_normals,
            self._taxonomy,
        )
        ratings = rate_many(
            observations,
            uniforms[:, 2] < success_rate[choice],
            rating_normals,
            self._rating_noise,
            self._weights,
            self._taxonomy,
        )
        return choice, ratings, regret, accurate

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
        accurate = np.zeros(n_rounds, dtype=np.int64)
        home_counts = np.zeros(self.n_shards, dtype=np.int64)
        services: List[np.ndarray] = []
        ratings: List[np.ndarray] = []
        ticks: List[np.ndarray] = []
        regrets: List[np.ndarray] = []
        # Scores are frozen for the whole epoch, so the exploit arm is
        # a constant: the harness's (score, id) tie-break, computed once.
        exploit = 0
        if self._n_services:
            exploit = max(
                range(self._n_services),
                key=lambda j: (scores[j], self.service_ids[j]),
            )
        epoch_start = spec.epoch_start(epoch)
        first_round = epoch * n_rounds

        def fire_round() -> None:
            r_local = len(regrets)
            t = epoch_start + r_local * spec.round_length
            choice, rating, regret, hits = self._round(
                first_round + r_local, t, exploit
            )
            services.append(choice)
            ratings.append(rating)
            ticks.append(np.full(n_own, to_ticks(t), dtype=np.int64))
            accurate[r_local] = int(hits.sum())
            home_counts[:] += np.bincount(
                self._service_home[choice], minlength=self.n_shards
            )
            regrets.append(regret)

        self.sim.schedule_every(
            spec.round_length,
            fire_round,
            start=epoch_start,
            count=n_rounds,
        )
        self.sim.run(until=epoch_start + n_rounds * spec.round_length)
        if len(regrets) != n_rounds:
            raise ConfigurationError(
                f"shard {self.shard} ran {len(regrets)} rounds, "
                f"expected {n_rounds}"
            )
        rows = n_own * n_rounds
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
            raters=self._raters,
            rater=np.tile(np.arange(n_own, dtype=np.int64), n_rounds),
            service=np.concatenate(services),
            rating=np.concatenate(ratings),
            tick=np.concatenate(ticks),
            rounds=np.repeat(
                np.arange(first_round, first_round + n_rounds, dtype=np.int64),
                n_own,
            ),
            consumers=np.tile(self._streams, n_rounds),
            regrets=np.concatenate(regrets),
            accurate=accurate,
            home_counts=home_counts,
        )

    def finalize(self) -> Tuple[int, Dict[str, Any]]:
        """Consumer count and metrics snapshot (net.* traffic + fig2)."""
        return len(self.owned), self.network.metrics.snapshot()


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
        # The partition, computed once per run and handed to every shard.
        self.homes = _consumer_homes(spec.n_consumers, shards)
        self.store = EventStore(time_dtype="int64")
        # A model sharing the store's entity table skips interning.
        self._shared = self.model.share_entities(self.store)
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

    def epoch_scores(self, epoch: int) -> Tuple[float, ...]:
        """Scores frozen for *epoch*, broadcast to every shard.

        A tuple: serial mode hands this one object to every shard."""
        scores = tuple(self.model.score_many(
            self.service_ids, now=self.spec.epoch_start(epoch)
        ))
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

        *deltas* arrive as a list in shard-index order; the concatenated
        rows are then re-sorted by the ``(round, consumer index)`` key
        so the global append order — and every interner code downstream
        — matches the 1-shard run exactly.  One coded append interns
        the rows into the global store; a model sharing its entity table
        takes the appended code columns as they are, any other one gets
        :meth:`~repro.models.base.ReputationModel.ingest_columns`.
        """
        spec = self.spec
        self._check_deltas(epoch, deltas)
        names: List[EntityId] = list(self.service_ids)
        rater_parts: List[np.ndarray] = []
        for delta in deltas:  # shard-index order: the canonical merge
            rater_parts.append(delta.rater + len(names))
            names.extend(delta.raters)
        rounds = np.concatenate([d.rounds for d in deltas])
        consumers = np.concatenate([d.consumers for d in deltas])
        order = np.lexsort((consumers, rounds))
        raters = np.concatenate(rater_parts)[order]
        services = np.concatenate([d.service for d in deltas])[order]
        ratings = np.concatenate([d.rating for d in deltas])[order]
        ticks = np.concatenate([d.tick for d in deltas])[order]
        regrets = np.concatenate([d.regrets for d in deltas])[order]
        first_row = len(self.store)
        self.store.extend_coded(names, raters, services, ratings, ticks)
        if self._shared:
            self.model.ingest_coded(self.store.columns_from(first_row))
        else:
            self.model.ingest_columns(
                names, raters, services, ratings, times_array(ticks)
            )
        n_rows = len(ratings)
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
        self._regret_chunks.append(regrets)
        # New keys go in first-appearance order, as a per-row loop would.
        counts = np.bincount(services, minlength=len(self.service_ids))
        _, first = np.unique(services, return_index=True)
        for j in services[np.sort(first)].tolist():
            target = self.service_ids[j]
            self._selection_counts[target] = self._selection_counts.get(
                target, 0
            ) + int(counts[j])
        self._selections += n_rows
        if self.recorder is not None:
            start = spec.epoch_start(epoch)
            self.recorder.span(
                "sharded.epoch",
                duration=spec.rounds_per_epoch * spec.round_length,
                attrs={"epoch": epoch, "rows": n_rows},
                time=start,
            )
            self.recorder.advance(spec.epoch_start(epoch + 1))
            self.recorder.count("sharded.rows", n_rows)
        if self.ledger is not None:
            self.ledger.charge(ACTIVITY, feedback=n_rows)

    def _check_deltas(self, epoch: int, deltas: Sequence[ShardDelta]) -> None:
        """Raise :class:`WorkerError`, naming the shard and the field,
        for a delta that breaks the barrier protocol."""
        n_rounds = self.spec.rounds_per_epoch
        for position, delta in enumerate(deltas):
            rows = len(delta.raters) * n_rounds
            checks = [
                ("shard", delta.shard, position),
                ("epoch", delta.epoch, epoch),
            ] + [
                (f"{name} length", len(getattr(delta, name)), rows)
                for name in ROW_FIELDS
            ]
            for what, got, want in checks:
                if got != want:
                    raise WorkerError(
                        "shard",
                        position,
                        "run_epoch",
                        f"delta {what} is {got}, expected {want}",
                    )

    def finish(
        self,
        mode: str,
        finals: Sequence[Tuple[int, Dict[str, Any]]],
        wall_ns: int,
    ) -> ShardedRunReport:
        """The report, given each shard's ``finalize()`` in shard order."""
        spec = self.spec
        shard_snapshots = [snapshot for _, snapshot in finals]
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
            regrets=regrets.tolist(),
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
            consumers_per_shard=[count for count, _ in finals],
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
    start_ns = _time.perf_counter_ns()
    coordinator = _Coordinator(spec, shards)
    factory = partial(
        ShardRuntime, spec, n_shards=shards, homes=coordinator.homes
    )
    with WorkerGroup(factory, shards, "shard", use_pool) as group:
        for epoch in range(spec.epochs):
            scores = coordinator.epoch_scores(epoch)
            coordinator.apply(epoch, group.call("run_epoch", epoch, scores))
        finals = group.call("finalize")
    wall_ns = _time.perf_counter_ns() - start_ns
    return coordinator.finish(PROCESS if use_pool else SERIAL, finals, wall_ns)
