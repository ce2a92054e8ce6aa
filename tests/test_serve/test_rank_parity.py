"""Every model's serve ranking is its public ranking, bit for bit.

The serve core ranks through ``SelectionEngine.rank_pairs`` (plain
``(target, score)`` pairs); policies, experiments and callers rank
through ``SelectionEngine.rank`` (``ScoredTarget``s).  For every
registered model, Liu–Ngu–Zeng's own ranking among them, a rank
response must list the same targets with the same score bits as the
public ranking taken at the same sim time on the same state.
"""

import dataclasses
import random

import pytest

from repro.core.registry import default_registry
from repro.models.base import ReputationModel, ScoredTarget
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
        assert all(type(entry) is ScoredTarget for entry in public)
        assert [(t, s.hex()) for t, s in response.ranking] == [
            (entry.target, entry.score.hex()) for entry in public
        ]
        assert len(public) == len(services)


def test_rank_is_not_overridable():
    with pytest.raises(TypeError, match="override rank_pairs"):

        class Own(ReputationModel):  # noqa: F841 - defining it raises
            def record(self, feedback):
                pass

            def score(self, target, perspective=None, now=None):
                return 0.5

            def rank(self, candidates, perspective=None, now=None):
                return []
