"""End to end, the fast paths replay their scalar ground truth.

Shards: the vector rounds (keyed Philox draws over every consumer a
shard owns) are replayed one row at a time.  The replay calls the same
keyed draw functions on length-1 stream arrays, then walks the scalar
objects: :meth:`Service.profile_at`, :meth:`MetricDef.denormalize` /
``normalize``, :meth:`PreferenceProfile.overall` and a fresh model fed
the replayed rows at every epoch barrier.  Draws, choices, success
flags, ticks, regrets and ratings must match bit for bit: the vector
path runs the scalar arithmetic element by element, and shard-world
weights list the metrics in taxonomy order, which is the order the
vector path accumulates the weighted mean in.

Trials: :mod:`tests.test_services.scalar_oracle` puts the
one-draw-per-metric ``sample``/``rate``/``quality_scores`` and an
uncached truth table back in, and serial trials must produce the same
outcomes as the batched path.  Trials run in-process so the patches
reach them.
"""

from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.common.mathutils import clamp
from repro.common.randomness import keyed_normals, keyed_uniforms
from repro.common.records import Feedback
from repro.common.simtime import from_ticks, to_ticks
from repro.core.registry import default_registry
from repro.experiments.parallel import AttackSpec, replication_specs, run_trials
from repro.experiments.sharded import (
    NOISE_DRAWS,
    SELECT_DRAWS,
    SERIAL,
    ShardedRunSpec,
    ShardRuntime,
    run_sharded_experiment,
)
from repro.experiments.workloads import make_shard_world
from repro.services.provider import DegradingBehavior
from tests.test_services import scalar_oracle

WORLDS = {
    "homogeneous": dict(n_providers=3, services_per_provider=2, n_consumers=23),
    "heterogeneous": dict(
        n_providers=3,
        services_per_provider=2,
        n_consumers=19,
        preference_heterogeneity=0.5,
        n_segments=2,
        segment_spread=0.2,
        behaviors={3: DegradingBehavior(drop=0.35, onset=3.0)},
    ),
}


def _spec(world: str) -> ShardedRunSpec:
    return ShardedRunSpec(
        model="beta",
        seed=11,
        epochs=3,
        rounds_per_epoch=2,
        epsilon=0.3,
        world_params=WORLDS[world],
    )


Row = Tuple[str, str, float, int, bool]


def scalar_replay(spec: ShardedRunSpec) -> Tuple[List[Row], List[float]]:
    """Every row of *spec*'s run in canonical order, one at a time.

    Returns ``(rater, target, rating, tick, success)`` per row and the
    per-row regrets.
    """
    params = dict(spec.world_params)
    world = make_shard_world(seed=spec.seed, **params)
    key = world.seeds.spawn("shard-draws")
    taxonomy = world.taxonomy
    m = len(taxonomy)
    services = world.services
    ids = [svc.service_id for svc in services]
    n = len(services)
    model = default_registry(rng_seed=spec.seed).create(spec.model)
    rows: List[Row] = []
    regrets: List[float] = []
    for epoch in range(spec.epochs):
        scores = model.score_many(ids, now=spec.epoch_start(epoch))
        exploit = max(range(n), key=lambda j: (scores[j], ids[j]))
        feedbacks = []
        for r_local in range(spec.rounds_per_epoch):
            global_round = epoch * spec.rounds_per_epoch + r_local
            t = spec.epoch_start(epoch) + r_local * spec.round_length
            for i, consumer in enumerate(world.consumers):
                stream = np.array([i])
                u = keyed_uniforms(key, stream, SELECT_DRAWS, global_round, 3)
                z = keyed_normals(
                    key, stream, NOISE_DRAWS, global_round, 2 * m
                )
                u, z = u[0].tolist(), z[0].tolist()
                j = min(int(u[1] * n), n - 1) if u[0] < spec.epsilon else exploit
                weights = consumer.preferences.weights
                quals = [
                    svc.true_overall(t, weights, consumer.segment)
                    for svc in services
                ]
                best = max(range(n), key=lambda x: (quals[x], ids[x]))
                regrets.append(quals[best] - quals[j])
                profile = services[j].profile_at(t)
                success = u[2] < profile.success_rate
                rating = 0.0
                if success:
                    filed: Dict[str, float] = {}
                    for k, name in enumerate(profile.quality):
                        metric = taxonomy.get(name)
                        truth = profile.true_quality(name, consumer.segment)
                        raw = metric.denormalize(truth + profile.noise * z[k])
                        score = metric.normalize(raw)
                        filed[name] = clamp(
                            score + consumer.rating_noise * z[m + k], 0.0, 1.0
                        )
                    rating = clamp(consumer.preferences.overall(filed), 0.0, 1.0)
                tick = to_ticks(t)
                rows.append((consumer.consumer_id, ids[j], rating, tick, success))
                feedbacks.append(
                    Feedback(
                        rater=consumer.consumer_id,
                        target=ids[j],
                        time=from_ticks(tick),
                        rating=rating,
                    )
                )
        model.record_many(feedbacks)
    return rows, regrets


def _assert_rows_equal_scalar_replay(spec: ShardedRunSpec, shards: int):
    rows, regrets = scalar_replay(spec)
    report = run_sharded_experiment(spec, shards=shards, mode=SERIAL)
    store = report.store
    cols = store.snapshot()
    names = list(store.entities.values())
    assert len(store) == len(rows)
    assert [names[c] for c in cols.rater.tolist()] == [r[0] for r in rows]
    assert [names[c] for c in cols.target.tolist()] == [r[1] for r in rows]
    assert cols.time.tolist() == [r[3] for r in rows]
    ratings = cols.value.tolist()
    for (_, _, expected, _, success), got in zip(rows, ratings):
        if success:
            # a successful call never rates exactly 0 here, so the
            # 0.0 of a failed call pins the success flag bit for bit
            assert expected > 0.0
            assert got == expected
        else:
            assert got == 0.0
    assert any(not r[4] for r in rows) and any(r[4] for r in rows)
    assert report.result.regrets == regrets
    # selection counts keep first-appearance order over the merged rows
    assert list(report.result.selection_counts) == list(
        dict.fromkeys(r[1] for r in rows)
    )
    explored = {r[1] for r in rows}
    assert len(explored) > 1


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_bytes_equal_scalar_path(shards):
    for world in sorted(WORLDS):
        _assert_rows_equal_scalar_replay(_spec(world), shards)


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_round_draws_equal_single_stream_calls(world):
    spec = _spec(world)
    runtime = ShardRuntime(spec, 1, 2)
    key = runtime.world.seeds.spawn("shard-draws")
    m = len(runtime.world.taxonomy)
    for global_round in range(spec.total_rounds):
        uniforms, qos, rating = runtime.round_draws(global_round)
        for row, i in enumerate(runtime.owned):
            u = keyed_uniforms(key, np.array([i]), SELECT_DRAWS, global_round, 3)
            z = keyed_normals(
                key, np.array([i]), NOISE_DRAWS, global_round, 2 * m
            )
            assert uniforms[row].tobytes() == u[0].tobytes()
            assert qos[row].tobytes() == z[0, :m].tobytes()
            assert rating[row].tobytes() == z[0, m:].tobytes()


def _specs():
    params = dict(n_providers=3, services_per_provider=2, n_consumers=6)
    specs = [
        replication_specs(name, 1, base_seed=3, rounds=6, world_params=params)[0]
        for name in ("beta", "sporas", "peertrust", "wang_vassileva")
    ]
    specs += replication_specs(
        "beta", 1, base_seed=4, rounds=6, world_params=params,
        attack=AttackSpec("collusion", liar_fraction=0.5,
                          params={"allies": ["svc-0000", "svc-0001"]}),
    )
    return specs


def test_trial_outcomes_equal_scalar_path():
    def run():
        return run_trials(_specs(), max_workers=1).outcomes

    batched = run()
    with scalar_oracle.installed():
        scalar = run()
    # repr: outcomes may carry NaN, which == would never match
    assert repr(batched) == repr(scalar)
