"""Every model's serve ranking is its public ranking, bit for bit.

The serve core, policies, experiments and callers all rank through
``SelectionEngine.rank``, which returns plain ``(target, score)``
tuples.  For every registered model, Liu–Ngu–Zeng's own ranking among
them, a rank response must list the same targets with the same score
bits as the public ranking taken at the same sim time on the same
state.  Each rank, served or selected, also goes through both public
``rank`` methods once, so a tracer that wraps them sees every rank.
"""

import collections
import dataclasses
import random

import pytest

from repro.core.registry import default_registry
from repro.core.selection import SelectionEngine
from repro.models.base import ReputationModel
from repro.serve.core import ServeConfig
from repro.serve.loadgen import LoadSpec, build_world, make_core
from repro.serve.protocol import STATUS_OK, feedback_arrival, rank_arrival

SPEC = LoadSpec(
    tenants=1,
    clients_per_tenant=3,
    n_providers=4,
    services_per_provider=2,
    seed=11,
    config=ServeConfig(seed=11),
)
RATERS = ("c0", "c1", "c2")


@pytest.mark.parametrize("name", default_registry().names())
def test_serve_ranking_is_the_engine_ranking(name):
    spec = dataclasses.replace(SPEC, model=name)
    core = make_core(spec)
    services = [svc.service_id for svc in build_world(spec).services]
    rng = random.Random(name)
    feedback = [
        feedback_arrival(
            now=0.05 * seq,
            client_id=RATERS[seq % 3],
            client_seq=seq,
            tenant="t0",
            rater=RATERS[seq % 3],
            target=rng.choice(services),
            rating=round(rng.random(), 3),
        )
        for seq in range(30)
    ]
    assert all(r.status == STATUS_OK for r in core.ingest(feedback))
    for seq, perspective in enumerate(RATERS, start=100):
        (response,) = core.ingest(
            [
                rank_arrival(
                    now=2.0 + seq,
                    client_id=perspective,
                    client_seq=seq,
                    tenant="t0",
                    category=spec.category,
                    perspective=perspective,
                )
            ]
        )
        assert response.status == STATUS_OK
        public = core.engine.rank(
            spec.category, perspective, response.executed_at
        )
        assert all(type(entry) is tuple for entry in public)
        assert [(t, s.hex()) for t, s in response.ranking] == [
            (t, s.hex()) for t, s in public
        ]
        assert len(public) == len(services)


def _count_calls(monkeypatch, calls, cls):
    original = cls.rank

    def counted(self, *args, **kwargs):
        calls[cls.__name__] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "rank", counted)


@pytest.mark.parametrize("route", ["serve", "select"])
def test_every_rank_goes_through_both_rank_methods(route, monkeypatch):
    core = make_core(SPEC)
    calls = collections.Counter()
    _count_calls(monkeypatch, calls, SelectionEngine)
    _count_calls(monkeypatch, calls, ReputationModel)
    if route == "serve":
        (response,) = core.ingest(
            [
                rank_arrival(
                    now=1.0,
                    client_id="c0",
                    client_seq=0,
                    tenant="t0",
                    category=SPEC.category,
                    perspective="c0",
                )
            ]
        )
        assert response.status == STATUS_OK and response.ranking
    else:
        assert core.engine.select(SPEC.category, "c0", 1.0) is not None
    assert calls == {"SelectionEngine": 1, "ReputationModel": 1}
