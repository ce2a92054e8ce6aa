"""End to end, the batched observation path replays the scalar one.

:mod:`tests.test_services.scalar_oracle` puts the one-draw-per-metric
``sample``/``rate``/``quality_scores`` and an uncached truth table back
in.  A sharded world must then produce the same ``canonical_bytes()``
at 1 and 2 shards, and serial trials the same outcomes, as the batched
path does.  Trials run in-process so the patches reach them.
"""

import pytest

from repro.experiments.parallel import AttackSpec, replication_specs, run_trials
from repro.experiments.sharded import SERIAL, ShardedRunSpec, run_sharded_experiment
from tests.test_services import scalar_oracle

SHARD_SPEC = ShardedRunSpec(
    model="beta",
    seed=11,
    epochs=2,
    rounds_per_epoch=2,
    world_params=dict(n_providers=3, services_per_provider=2, n_consumers=23),
)


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_bytes_equal_scalar_path(shards):
    def run() -> bytes:
        return run_sharded_experiment(
            SHARD_SPEC, shards=shards, mode=SERIAL
        ).canonical_bytes()

    batched = run()
    with scalar_oracle.installed():
        scalar = run()
    assert batched == scalar


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
