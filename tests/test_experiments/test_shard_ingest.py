"""The coordinator's two stores hold one set of rows.

A store-backed model shares the global store's entity table, so the
coordinator interns each epoch's rows once and the model appends the
code columns just written (``ingest_coded``).  A model whose ingest is
not the plain coded append (PeerTrust) keeps ``ingest_columns``.
Either way, after a run the model's store must hold the global store's
rows code for code, with times ``times_array(ticks)``, at every shard
count and in both modes — and a rating outside [0, 1] must still raise
the error ``check_unit_ratings`` raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.records import Feedback
from repro.common.simtime import times_array
from repro.core.registry import default_registry
from repro.experiments import sharded
from repro.experiments.sharded import (
    PROCESS,
    SERIAL,
    ShardRuntime,
    ShardedRunSpec,
    run_sharded_experiment,
)
from repro.models.base import StoreBackedModel
from repro.store import EventStore

WORLD = dict(n_providers=3, services_per_provider=2, n_consumers=17)

#: beta takes the shared-table path, PeerTrust the ingest_columns one
MODELS = {"beta": True, "peertrust": False}

RUNS = [(1, SERIAL), (2, SERIAL), (8, SERIAL), (2, PROCESS), (8, PROCESS)]


def _spec(model: str) -> ShardedRunSpec:
    return ShardedRunSpec(
        model=model, seed=7, epochs=3, rounds_per_epoch=2, world_params=WORLD
    )


@pytest.fixture
def coordinator_models(monkeypatch):
    """The reference model of every run, kept as the run finishes."""
    kept = []
    finish = sharded._Coordinator.finish

    def keep(self, *args):
        kept.append(self.model)
        return finish(self, *args)

    monkeypatch.setattr(sharded._Coordinator, "finish", keep)
    return kept


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("shards, mode", RUNS)
def test_model_store_holds_the_global_rows(
    coordinator_models, model, shards, mode
):
    report = run_sharded_experiment(_spec(model), shards=shards, mode=mode)
    [reference] = coordinator_models
    mine, theirs = reference._store, report.store
    assert (mine.entities is theirs.entities) is MODELS[model]
    assert mine.entities.values() == theirs.entities.values()
    got, want = mine.snapshot(), theirs.snapshot()
    assert want.n == WORLD["n_consumers"] * 6
    for column in ("rater", "target", "facet", "value"):
        assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
    times = got.time if got.time.dtype == np.float64 else times_array(got.time)
    assert times.tobytes() == times_array(want.time).tobytes()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_out_of_range_rating_still_raises(monkeypatch, model):
    run_epoch = ShardRuntime.run_epoch

    def bad_rating(self, epoch, scores):
        delta = run_epoch(self, epoch, scores)
        if epoch == 1 and len(delta.rating):
            delta.rating[-1] = 1.5
        return delta

    monkeypatch.setattr(ShardRuntime, "run_epoch", bad_rating)
    with pytest.raises(ValueError, match=r"rating must be in \[0, 1\], got 1.5"):
        run_sharded_experiment(_spec(model), shards=2, mode=SERIAL)


@pytest.mark.parametrize("name", default_registry().names())
def test_ingest_coded_equals_ingest_columns(name):
    """Every registered model: a shared table plus ``ingest_coded`` of
    the rows a global store just appended ingests exactly what
    ``ingest_columns`` of the same batch does."""
    names = ["svc-a", "svc-b", "c-0", "c-1", "c-2"]
    batches = [
        ([2, 3, 4, 2], [0, 1, 0, 1], [0.9, 0.2, 0.6, 0.8], [0, 0, 1, 1]),
        ([4, 3, 2, 3], [1, 1, 0, 0], [0.1, 0.7, 0.5, 0.3], [2, 2, 3, 3]),
    ]
    coded = default_registry(rng_seed=3).create(name)
    plain = default_registry(rng_seed=3).create(name)
    store = EventStore(time_dtype="int64")
    shared = coded.share_entities(store)
    assert shared == (
        isinstance(coded, StoreBackedModel) and name != "peertrust"
    )
    for raters, targets, ratings, ticks in batches:
        start = len(store)
        store.extend_coded(names, raters, targets, ratings, ticks)
        columns = (raters, targets, ratings, times_array(np.array(ticks)))
        if shared:
            coded.ingest_coded(store.columns_from(start))
        else:
            coded.ingest_columns(names, *columns)
        plain.ingest_columns(names, *columns)
    now = 4.0
    targets = ["svc-a", "svc-b", "c-0", "unknown"]
    assert repr(coded.score_many(targets, now=now)) == repr(
        plain.score_many(targets, now=now)
    )
    if shared:
        assert coded._store.canonical_bytes() == plain._store.canonical_bytes()


#: registered models whose scores move with ``now``
NOW_AWARE = ["amazon", "maximilien_singh"]


@pytest.mark.parametrize("model", NOW_AWARE)
def test_epoch_scores_are_taken_at_the_epoch_start(monkeypatch, model):
    """Each epoch's broadcast scores are a fresh model's scores, at the
    epoch's start, over the rows the coordinator holds then."""
    checked = []
    epoch_scores = sharded._Coordinator.epoch_scores

    def check(self, epoch):
        scores = epoch_scores(self, epoch)
        fresh = default_registry(rng_seed=self.spec.seed).create(model)
        rows = self.store.snapshot()
        fresh.ingest_columns(
            self.store.entities.values(), rows.rater, rows.target,
            rows.value, times_array(rows.time),
        )
        now = self.spec.epoch_start(epoch)
        assert scores == tuple(fresh.score_many(self.service_ids, now=now))
        checked.append(epoch)
        return scores

    monkeypatch.setattr(sharded._Coordinator, "epoch_scores", check)
    run_sharded_experiment(_spec(model), shards=2, mode=SERIAL)
    assert checked == [0, 1, 2]


def test_only_an_empty_table_is_shared():
    store = EventStore(time_dtype="int64")
    store.append("x", "y", 0.5, 0)
    used = default_registry().create("beta")
    used.record(Feedback(rater="a", target="b", time=0.0, rating=0.5))
    assert not used.share_entities(store)
    assert used._store.entities.values() == ("a", "b")
    fresh = default_registry().create("beta")
    assert fresh.share_entities(store)
    assert fresh._store.entities is store.entities
