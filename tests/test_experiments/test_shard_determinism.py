"""Shard-count invariance: 1 shard == 2 shards == 8 shards, byte for byte.

The sharded runner's headline contract — partitioning one world over N
processes must be invisible in every canonical output: the merged
:class:`~repro.store.EventStore`'s ``canonical_bytes()``, the scenario
result, the final score table, the telemetry metrics, and the exported
trace JSONL (compared by sha256, the way CI baselines compare them).
"""

from __future__ import annotations

import hashlib
import io
import multiprocessing as mp
import os

import pytest

from repro.common.errors import ConfigurationError, WorkerError
from repro.experiments.sharded import (
    PROCESS,
    SERIAL,
    ShardRuntime,
    ShardedRunSpec,
    register_shard_world_builder,
    run_sharded_experiment,
    shard_of,
)
from repro.experiments.workloads import (
    make_shard_world,
    shard_consumer_id,
)
from repro.obs.trace import write_jsonl
from repro.p2p.pgrid import shard_path
from repro.robustness.attacks import badmouth_strategy
from repro.store import EventStore
from repro.services.provider import DegradingBehavior

SMALL_WORLD = dict(n_providers=3, services_per_provider=2, n_consumers=11)

#: per-consumer weights, two taste segments with subjective offsets,
#: and a service whose quality drops mid-run
HETEROGENEOUS_WORLD = dict(
    SMALL_WORLD,
    n_consumers=13,
    preference_heterogeneity=0.5,
    n_segments=2,
    segment_spread=0.2,
    behaviors={1: DegradingBehavior(drop=0.3, onset=2.0)},
)


def _spec(seed: int, **overrides) -> ShardedRunSpec:
    params = dict(
        model="beta",
        seed=seed,
        epochs=2,
        rounds_per_epoch=2,
        world_params=SMALL_WORLD,
        telemetry=True,
    )
    params.update(overrides)
    return ShardedRunSpec(**params)


def trace_sha256(report) -> str:
    buffer = io.StringIO()
    write_jsonl(report.telemetry, buffer)
    return hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()


class TestShardCountInvariance:
    def test_one_two_eight_shards_byte_identical(self, global_random_seed):
        spec = _spec(global_random_seed)
        reports = {
            n: run_sharded_experiment(spec, shards=n, mode=SERIAL)
            for n in (1, 2, 8)
        }
        base = reports[1]
        base_bytes = base.canonical_bytes()
        base_trace = trace_sha256(base)
        for n in (2, 8):
            report = reports[n]
            assert report.canonical_bytes() == base_bytes
            assert report.result == base.result
            assert report.final_scores == base.final_scores
            assert report.telemetry.metrics == base.telemetry.metrics
            assert trace_sha256(report) == base_trace

    def test_heterogeneous_world_one_two_eight_identical(
        self, global_random_seed
    ):
        spec = _spec(global_random_seed, world_params=HETEROGENEOUS_WORLD)
        reports = {
            n: run_sharded_experiment(spec, shards=n, mode=SERIAL)
            for n in (1, 2, 8)
        }
        base = reports[1]
        for n in (2, 8):
            assert reports[n].canonical_bytes() == base.canonical_bytes()
            assert reports[n].result == base.result
            assert trace_sha256(reports[n]) == trace_sha256(base)

    def test_partition_covers_and_is_disjoint(self, global_random_seed):
        n_consumers = 40
        shards = 4
        owners = [
            shard_of(shard_consumer_id(i), shards)
            for i in range(n_consumers)
        ]
        assert all(0 <= s < shards for s in owners)
        runtime_owned = [
            ShardRuntime(
                _spec(
                    global_random_seed,
                    world_params=dict(SMALL_WORLD, n_consumers=n_consumers),
                ),
                s,
                shards,
            ).owned
            for s in range(shards)
        ]
        flat = sorted(i for owned in runtime_owned for i in owned)
        assert flat == list(range(n_consumers))

    def test_shard_of_matches_pgrid_prefix(self):
        for entity in ("consumer-0000003", "svc-0001", "provider-0002"):
            for depth in (1, 2, 3):
                assert shard_of(entity, 2 ** depth) == int(
                    shard_path(entity, depth), 2
                )


class TestMergedOrder:
    """The coordinator's merge yields rows in (round, consumer index)
    order.  Every shard count goes through the same sort, so the
    N-invariance gate alone cannot see a wrong sort key."""

    @pytest.mark.parametrize("shards", [1, 3])
    def test_rows_in_round_then_consumer_order(self, shards):
        spec = _spec(7, world_params=dict(SMALL_WORLD, n_consumers=17))
        store = run_sharded_experiment(spec, shards=shards, mode=SERIAL).store
        assert store.times_monotonic
        cols = store.snapshot()
        names = list(store.entities.values())
        raters = [names[code] for code in cols.rater.tolist()]
        ticks = cols.time.tolist()
        expected = sorted(set(ticks))
        assert len(expected) == spec.total_rounds
        for tick in expected:
            in_tick = [r for r, t in zip(raters, ticks) if t == tick]
            assert in_tick == [shard_consumer_id(i) for i in range(17)]


    @pytest.mark.parametrize("shards", [1, 3])
    def test_store_equals_append_loop_over_its_rows(self, shards):
        """The coded append interns ids in the order an append loop
        over the merged rows would.  Every shard count interns alike
        and the scalar replay compares ids, not codes, so only this
        rebuild sees a different interning order."""
        spec = _spec(7, world_params=dict(SMALL_WORLD, n_consumers=17))
        store = run_sharded_experiment(spec, shards=shards, mode=SERIAL).store
        rebuilt = EventStore(time_dtype="int64")
        names = store.entities.values()
        for rater, target, _facet, value, tick in store.iter_rows():
            rebuilt.append(names[rater], names[target], value, tick)
        assert rebuilt.canonical_bytes() == store.canonical_bytes()


def _badmouthing_world(seed, consumer_indices=None, **params):
    world = make_shard_world(
        seed=seed, consumer_indices=consumer_indices, **params
    )
    for consumer in world.consumers:
        if consumer.consumer_id == shard_consumer_id(4):
            consumer.rating_strategy = badmouth_strategy
    return world


def _partial_profile_world(seed, consumer_indices=None, **params):
    world = make_shard_world(
        seed=seed, consumer_indices=consumer_indices, **params
    )
    del world.services[2].profile.quality["cost"]
    return world


class TestUnsupportedShapes:
    """The vector rounds cover honest raters over full-taxonomy
    profiles; anything else fails at runtime construction, by name."""

    def test_dishonest_rating_strategy_names_the_consumer(self):
        register_shard_world_builder(
            "badmouthing-shard-world", _badmouthing_world, overwrite=True
        )
        spec = _spec(3, world="badmouthing-shard-world")
        with pytest.raises(ConfigurationError, match="consumer-0000004"):
            ShardRuntime(spec, 0, 1)
        with pytest.raises(ConfigurationError, match="rates honestly"):
            run_sharded_experiment(spec, shards=2, mode=SERIAL)

    def test_profile_off_the_taxonomy_names_the_service(self):
        register_shard_world_builder(
            "partial-profile-shard-world",
            _partial_profile_world,
            overwrite=True,
        )
        spec = _spec(3, world="partial-profile-shard-world")
        with pytest.raises(ConfigurationError, match="svc-0002"):
            ShardRuntime(spec, 0, 1)


class TestProcessMode:
    def test_process_pool_matches_serial(self):
        spec = _spec(17)
        serial = run_sharded_experiment(spec, shards=2, mode=SERIAL)
        pooled = run_sharded_experiment(spec, shards=2)
        assert pooled.dispatch.mode == PROCESS
        assert serial.dispatch.mode == SERIAL
        assert pooled.canonical_bytes() == serial.canonical_bytes()
        assert pooled.result == serial.result
        assert pooled.telemetry.metrics == serial.telemetry.metrics
        assert (
            pooled.dispatch.consumers_per_shard
            == serial.dispatch.consumers_per_shard
        )
        assert (
            pooled.dispatch.rows_per_shard == serial.dispatch.rows_per_shard
        )

    def test_unpicklable_builder_falls_back_to_serial(self):
        register_shard_world_builder(
            "lambda-shard-world",  # reprolint only scans src/repro
            lambda seed, consumer_indices=None, **params: make_shard_world(
                seed=seed, consumer_indices=consumer_indices, **params
            ),
            overwrite=True,
        )
        spec = _spec(5, world="lambda-shard-world")
        report = run_sharded_experiment(spec, shards=2)
        assert report.dispatch.mode == SERIAL
        named = run_sharded_experiment(_spec(5), shards=2, mode=SERIAL)
        assert report.canonical_bytes() == named.canonical_bytes()
        assert report.result == named.result

    def test_forced_process_mode_rejects_unpicklable(self):
        register_shard_world_builder(
            "lambda-shard-world-2",
            lambda seed, consumer_indices=None, **params: make_shard_world(
                seed=seed, consumer_indices=consumer_indices, **params
            ),
            overwrite=True,
        )
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(
                _spec(5, world="lambda-shard-world-2"),
                shards=2,
                mode=PROCESS,
            )


def _dying_shard_world(seed, consumer_indices=None, **params):
    """Builds normally, except in the worker process of shard 1 of 2,
    which exits without a word (a crash the worker cannot report)."""
    if (
        mp.parent_process() is not None
        and consumer_indices
        and shard_of(shard_consumer_id(consumer_indices[0]), 2) == 1
    ):
        os._exit(3)
    return make_shard_world(
        seed=seed, consumer_indices=consumer_indices, **params
    )


class TestWorkerFailure:
    def test_dead_worker_names_its_shard(self):
        register_shard_world_builder(
            "dying-shard-world", _dying_shard_world, overwrite=True
        )
        spec = _spec(5, world="dying-shard-world")
        with pytest.raises(WorkerError, match="shard 1") as info:
            run_sharded_experiment(spec, shards=2, mode=PROCESS)
        assert info.value.worker == 1
        assert info.value.expected == "ready"


def _break_shard_one(monkeypatch, breach):
    """Patch ``run_epoch`` so shard 1's delta goes through *breach*."""
    run_epoch = ShardRuntime.run_epoch

    def patched(self, epoch, scores):
        delta = run_epoch(self, epoch, scores)
        if delta.shard == 1:
            breach(delta)
        return delta

    monkeypatch.setattr(ShardRuntime, "run_epoch", patched)


class TestProtocolBreach:
    """A delta that breaks the barrier protocol surfaces as a
    WorkerError naming the shard and the field, before any merge."""

    @pytest.mark.parametrize(
        "breach, field",
        [
            (lambda d: setattr(d, "shard", 0), "delta shard is 0, expected 1"),
            (lambda d: setattr(d, "epoch", d.epoch + 1), "delta epoch is 1"),
            (
                lambda d: setattr(d, "rating", d.rating[:-1]),
                "delta rating length",
            ),
        ],
        ids=["shard", "epoch", "short-column"],
    )
    def test_breach_names_shard_and_field(self, monkeypatch, breach, field):
        _break_shard_one(monkeypatch, breach)
        spec = _spec(5)
        with pytest.raises(WorkerError, match="shard 1") as info:
            run_sharded_experiment(spec, shards=2, mode=SERIAL)
        assert field in str(info.value)
        assert info.value.worker == 1


class TestDispatchAccounting:
    def test_silent_shards_count_in_load_imbalance(self):
        # 1 consumer over 4 shards: three shards never receive a
        # feedback row, yet the merged universe must still average over
        # all four (satellite: silent shards are not dropped).
        spec = _spec(3, world_params=dict(SMALL_WORLD, n_consumers=1))
        report = run_sharded_experiment(spec, shards=4, mode=SERIAL)
        stats = report.dispatch.feedback_stats
        assert stats.universe is not None and stats.universe >= 4
        assert report.dispatch.load_imbalance >= 3.9

    def test_cross_shard_rows_and_fig2_rows(self):
        spec = _spec(11)
        report = run_sharded_experiment(spec, shards=4, mode=SERIAL)
        total_rows = spec.total_rounds * spec.n_consumers
        assert sum(report.dispatch.rows_per_shard) == total_rows
        assert 0 <= report.dispatch.cross_shard_rows <= total_rows
        fig2 = {row["activity"]: row for row in report.dispatch.fig2}
        assert fig2["feedback"]["feedback"] == total_rows

    def test_single_shard_has_no_cross_traffic(self):
        report = run_sharded_experiment(_spec(2), shards=1, mode=SERIAL)
        assert report.dispatch.cross_shard_rows == 0
        assert report.dispatch.load_imbalance == pytest.approx(1.0)


class TestSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(epochs=0)
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(rounds_per_epoch=0)
        with pytest.raises(ConfigurationError):
            ShardedRunSpec(epsilon=1.5)
        with pytest.raises(ConfigurationError, match="optimality_tolerance"):
            ShardedRunSpec(optimality_tolerance=-1.0)
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(ShardedRunSpec(), shards=0)
        with pytest.raises(ConfigurationError):
            run_sharded_experiment(ShardedRunSpec(), shards=1, mode="bogus")
        with pytest.raises(ConfigurationError):
            shard_of("x", 0)

    @pytest.mark.parametrize("bad", [-3, 0, 2.7, "5", True, None])
    def test_rejects_bad_consumer_counts(self, bad):
        with pytest.raises(ConfigurationError, match="n_consumers"):
            ShardedRunSpec(world_params=dict(SMALL_WORLD, n_consumers=bad))
