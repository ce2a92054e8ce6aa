"""Tests for the deterministic process experiment runtime.

The load-bearing property: ``parallel == serial``, exactly.  The
hypothesis suite replays the same spec list through a 4-worker pool,
the 1-worker fallback, and a bare sequential loop of
``run_selection_experiment`` calls, and requires score-level agreement
to 1e-12 (in fact the comparisons are exact) for a local model (beta)
and a graph model (eigentrust).
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing as mp
import os
import pickle
import pkgutil
from typing import Callable, Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.errors import (
    ConfigurationError,
    UnknownEntityError,
    WorkerError,
)
from repro.common.randomness import SeedSequenceFactory
from repro.core.registry import default_registry
from repro.experiments import parallel, sharded
from repro.experiments.harness import run_selection_experiment
from repro.experiments.parallel import (
    PROCESS_POOL,
    SERIAL,
    AttackSpec,
    TrialSpec,
    group_sweep,
    jobs_from_env,
    parallel_map,
    register_world_builder,
    replication_specs,
    run_replications,
    run_sweep,
    run_trial,
    run_trials,
    sweep_specs,
    world_builder,
)
from repro.experiments.workloads import make_world

#: Small worlds keep the pooled hypothesis examples fast.
SMALL_WORLD = dict(n_providers=3, services_per_provider=1, n_consumers=5)


def _module_double(x):
    return 2 * x


def _lenient_builder(seed=0, _probe=None, **kwargs):
    """A builder that tolerates (and drops) an unpicklable probe param."""
    return make_world(seed=seed, **kwargs)


register_world_builder("lenient-test-world", _lenient_builder, overwrite=True)

#: The trial seed whose world build kills its worker process.
DYING_SEED = 5


def _dying_builder(seed=0, **kwargs):
    """Builds normally, except for :data:`DYING_SEED` in a worker
    process, which exits without a word (a crash it cannot report)."""
    if seed == DYING_SEED and mp.parent_process() is not None:
        os._exit(3)
    return make_world(seed=seed, **kwargs)


register_world_builder("dying-test-world", _dying_builder, overwrite=True)


def assert_outcomes_equal(lhs, rhs, tol: float = 1e-12) -> None:
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert a.model_name == b.model_name
        assert set(a.final_scores) == set(b.final_scores)
        for sid, score in a.final_scores.items():
            assert abs(score - b.final_scores[sid]) <= tol, sid
        assert a.result.regrets == pytest.approx(b.result.regrets, abs=tol)
        assert a.result.round_accuracy == b.result.round_accuracy
        assert a.result.selection_counts == b.result.selection_counts
        assert a.ranking == b.ranking


class TestTaskProtocol:
    def test_spec_and_result_are_picklable(self):
        spec = TrialSpec(
            model="beta",
            seed=123,
            rounds=4,
            world_params=dict(SMALL_WORLD),
            attack=AttackSpec("badmouth", liar_fraction=0.4),
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        result = run_trial(spec)
        wire = pickle.loads(pickle.dumps(result))
        assert wire.spec == spec
        assert wire.outcome.final_scores == result.outcome.final_scores

    def test_run_trial_matches_manual_harness_call(self):
        spec = TrialSpec(
            model="beta", seed=77, rounds=5, world_params=dict(SMALL_WORLD)
        )
        result = run_trial(spec)
        world = make_world(seed=77, **SMALL_WORLD)
        model = default_registry(rng_seed=77).create("beta")
        manual = run_selection_experiment(model, world, rounds=5)
        assert_outcomes_equal([result.outcome], [manual])

    def test_unknown_model_and_world_rejected(self):
        with pytest.raises(UnknownEntityError):
            run_trial(TrialSpec(model="not-a-model", seed=0, rounds=1))
        with pytest.raises(UnknownEntityError):
            world_builder("not-a-world")
        with pytest.raises(UnknownEntityError):
            AttackSpec("not-an-attack").build()

    def test_rounds_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="rounds"):
            TrialSpec(model="beta", seed=0, rounds=0)

    def test_world_builder_registration(self):
        def tiny(seed=0, **kwargs):
            return make_world(seed=seed, **{**SMALL_WORLD, **kwargs})

        register_world_builder("tiny-test-world", tiny, overwrite=True)
        spec = TrialSpec(
            model="beta", seed=5, rounds=3, world="tiny-test-world"
        )
        result = run_trial(spec)
        assert len(result.outcome.final_scores) == SMALL_WORLD["n_providers"]
        with pytest.raises(ConfigurationError):
            register_world_builder("tiny-test-world", tiny)


def _unpicklable_builders(
    prefix: str, registry: Dict[str, Callable]
) -> List[str]:
    """Names in *registry* whose builder is defined in a module starting
    with *prefix* and does not come back from a pickle round trip as
    itself (lambdas, closures and local defs do not)."""
    flagged = []
    for name, builder in sorted(registry.items()):
        if not getattr(builder, "__module__", "").startswith(prefix):
            continue
        try:
            survives = pickle.loads(pickle.dumps(builder)) is builder
        except (pickle.PicklingError, AttributeError, TypeError):
            survives = False
        if not survives:
            flagged.append(name)
    return flagged


def _local_builder():
    def local_builder(seed=0, **params):
        return make_world(seed=seed, **params)

    return local_builder


class TestWorldBuildersPickle:
    """Every builder the package registers crosses a process boundary by
    reference, so a spec naming it runs in the pool.  Registration
    itself accepts any callable: the tests below and perfbench's traced
    runs register closures, which take the serial fallback."""

    def test_every_repro_builder_survives_pickle(self):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith(".__main__"):
                importlib.import_module(module.name)
        for registry in (
            parallel._WORLD_BUILDERS, sharded._SHARD_WORLD_BUILDERS
        ):
            assert _unpicklable_builders("repro.", registry) == []
        defaults = (
            parallel.world_builder(parallel.DEFAULT_WORLD),
            sharded.shard_world_builder(sharded.DEFAULT_SHARD_WORLD),
        )
        # the prefix must select the defaults, or the check is vacuous
        assert all(b.__module__.startswith("repro.") for b in defaults)

    def test_lambda_and_closure_flagged(self):
        registry = {
            "ok-world": _lenient_builder,
            "lambda-world": lambda seed, **params: make_world(seed=seed),
            "local-world": _local_builder(),
            "lambda-shard": lambda seed, consumer_indices=None, **params: (
                make_world(seed=seed)
            ),
        }
        assert _unpicklable_builders(__name__, registry) == [
            "lambda-shard", "lambda-world", "local-world",
        ]


class TestDeterminism:
    """The parallel==serial contract, exact replay."""

    @settings(max_examples=4, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=2 ** 16),
        replications=st.integers(min_value=2, max_value=4),
        model=st.sampled_from(["beta", "eigentrust"]),
    )
    def test_pool_equals_serial_equals_sequential(
        self, base_seed, replications, model
    ):
        pooled = run_replications(
            model,
            replications,
            base_seed=base_seed,
            rounds=4,
            world_params=SMALL_WORLD,
            max_workers=4,
        )
        serial = run_replications(
            model,
            replications,
            base_seed=base_seed,
            rounds=4,
            world_params=SMALL_WORLD,
            max_workers=1,
        )
        assert serial.mode == SERIAL
        assert pooled.mode == PROCESS_POOL
        # n bare sequential run_selection_experiment calls, no pool
        # layer involved at all.
        seeds = SeedSequenceFactory(base_seed)
        sequential = []
        for i in range(replications):
            seed = seeds.spawn(f"replication/{i}")
            world = make_world(seed=seed, **SMALL_WORLD)
            instance = default_registry(rng_seed=seed).create(model)
            sequential.append(
                run_selection_experiment(instance, world, rounds=4)
            )
        assert_outcomes_equal(pooled.outcomes, serial.outcomes)
        assert_outcomes_equal(serial.outcomes, sequential)

    def test_chunking_cannot_change_results(self):
        specs = replication_specs(
            "beta", 5, base_seed=11, rounds=3, world_params=SMALL_WORLD
        )
        # 2 and 3 workers split the 5 specs into different slices.
        two = run_trials(specs, max_workers=2)
        three = run_trials(specs, max_workers=3)
        assert (two.workers, three.workers) == (2, 3)
        assert_outcomes_equal(two.outcomes, three.outcomes)

    def test_results_merge_in_spec_order(self):
        specs = replication_specs(
            "beta", 4, base_seed=3, rounds=2, world_params=SMALL_WORLD
        )
        report = run_trials(specs, max_workers=2)
        assert [r.spec for r in report.results] == specs

    def test_attacked_replications_deterministic_and_effective(self):
        attack = AttackSpec("badmouth", liar_fraction=0.6)
        kwargs = dict(
            base_seed=9, rounds=5, world_params=SMALL_WORLD, attack=attack
        )
        pooled = run_replications("beta", 3, max_workers=2, **kwargs)
        serial = run_replications("beta", 3, max_workers=1, **kwargs)
        assert_outcomes_equal(pooled.outcomes, serial.outcomes)
        honest = run_replications(
            "beta", 3, base_seed=9, rounds=5, world_params=SMALL_WORLD
        )
        assert [o.final_scores for o in pooled.outcomes] != [
            o.final_scores for o in honest.outcomes
        ]


class TestSeedDerivation:
    def test_trial_seeds_are_scheduling_independent(self):
        first = replication_specs("beta", 4, base_seed=21)
        again = replication_specs("ebay", 4, base_seed=21)
        assert [s.seed for s in first] == [s.seed for s in again]
        assert len({s.seed for s in first}) == 4

    def test_sweep_pairs_models_on_identical_worlds(self):
        specs = sweep_specs(
            ["beta", "ebay"], "n_consumers", [4, 6], replications=2,
            base_seed=2,
        )
        beta = [s.seed for s in specs if s.model == "beta"]
        ebay = [s.seed for s in specs if s.model == "ebay"]
        assert beta == ebay
        assert len(set(beta)) == 4  # 2 values x 2 replications


class TestPool:
    def test_parallel_map_orders_results(self):
        items = list(range(7))
        assert parallel_map(_module_double, items, max_workers=3) == [
            2 * x for x in items
        ]

    def test_unpicklable_callable_falls_back_to_serial(self):
        # A lambda cannot cross a process boundary; the pool must
        # degrade to the in-process loop rather than raise.
        assert parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=4) == [
            2, 3, 4,
        ]

    def test_unpicklable_world_params_fall_back_to_serial(self):
        # A live callable in the params defeats pickling: the runtime
        # must degrade to the serial loop, not raise — and the trial
        # must still produce the exact serial result.
        def make_specs(probe):
            return [
                TrialSpec(
                    model="beta",
                    seed=seed,
                    rounds=2,
                    world="lenient-test-world",
                    world_params={**SMALL_WORLD, "_probe": probe},
                )
                for seed in (4, 5)
            ]

        report = run_trials(make_specs(lambda: None), max_workers=4)
        assert report.mode == SERIAL
        clean = run_trials(make_specs(None), max_workers=4)
        assert clean.mode == PROCESS_POOL
        assert_outcomes_equal(report.outcomes, clean.outcomes)

    def test_single_item_runs_in_process(self):
        specs = replication_specs(
            "beta", 1, base_seed=8, rounds=2, world_params=SMALL_WORLD
        )
        report = run_trials(specs, max_workers=4)
        assert report.mode == SERIAL  # nothing to fan out

    def test_pool_start_leaves_no_frozen_heap(self):
        """Workers fork from a frozen heap; the coordinator's thaws once
        they are started, on success and on failure alike."""
        specs = replication_specs(
            "beta", 2, base_seed=8, rounds=2, world_params=SMALL_WORLD
        )
        assert run_trials(specs, max_workers=2).mode == PROCESS_POOL
        assert gc.get_freeze_count() == 0
        with pytest.raises(WorkerError):
            run_trials(
                [
                    TrialSpec(
                        model="beta",
                        seed=DYING_SEED,
                        rounds=2,
                        world="dying-test-world",
                        world_params=dict(SMALL_WORLD),
                    ),
                    specs[0],
                ],
                max_workers=2,
            )
        assert gc.get_freeze_count() == 0

    def test_dead_worker_names_itself(self):
        # Worker 1 of 2 runs specs[1::2], i.e. the dying seed alone.
        specs = [
            TrialSpec(
                model="beta",
                seed=seed,
                rounds=2,
                world="dying-test-world",
                world_params=dict(SMALL_WORLD),
            )
            for seed in (4, DYING_SEED, 6)
        ]
        with pytest.raises(WorkerError, match="slice 1") as info:
            run_trials(specs, max_workers=2)
        assert info.value.worker == 1
        assert info.value.expected == "run"

    def test_run_sweep_and_grouping(self):
        report = run_sweep(
            ["beta"],
            "n_consumers",
            [4, 6],
            replications=2,
            base_seed=13,
            rounds=3,
            world_params=dict(n_providers=3, services_per_provider=1),
            max_workers=2,
        )
        grouped = group_sweep(report, "n_consumers")
        assert set(grouped) == {"beta"}
        assert set(grouped["beta"]) == {4, 6}
        assert all(len(v) == 2 for v in grouped["beta"].values())
        assert len(report.trial_ns) == 4
        assert report.ns_per_trial > 0


class TestJobsFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs_from_env() == 1
        assert jobs_from_env(3) == 3

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert jobs_from_env() == 6

    def test_auto_uses_cpu_count(self, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert jobs_from_env() == max(1, os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert jobs_from_env() == max(1, os.cpu_count() or 1)

    def test_garbage_rejected(self, monkeypatch):
        for raw in ("many", "-4"):
            monkeypatch.setenv("REPRO_JOBS", raw)
            with pytest.raises(ConfigurationError, match="REPRO_JOBS"):
                jobs_from_env()
