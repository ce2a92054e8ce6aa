"""Batch-vs-scalar scoring equivalence across the whole registry.

The batch ranking API (``score_many``) and the incremental caches
behind the graph models must be *pure optimizations*: under any
interleaving of feedback and queries, the batched scores, the
per-candidate scalar scores, and the scores of a fresh model replaying
the same history have to agree to 1e-9.  A stale dirty flag, a missed
invalidation, or a warm start landing on a different fixed point shows
up exactly as one of these three paths diverging.
"""

from __future__ import annotations

import random
from functools import partial
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.models.base import ReputationModel, StoreBackedModel
from repro.models.eigentrust import EigenTrustModel
from repro.models.pagerank import PageRankModel
from repro.models.socialnetwork import SocialNetworkModel

REGISTRY = default_registry(rng_seed=0)
MODEL_NAMES = REGISTRY.names()
#: Referral-network adaptation mutates weights on query, so consecutive
#: queries legitimately differ (same exemption as test_properties).
QUERY_MUTATING = {"yolum_singh"}

RATERS = [f"r{i}" for i in range(6)]
RATED = ["svc-a", "svc-b", "svc-c", "svc-d"]
#: Queried set includes an id no feedback ever mentions — the cache
#: index maps must not choke on (or invent evidence for) unknowns.
QUERIED = RATED + ["never-seen"]


@st.composite
def chunked_streams(draw) -> List[List[Feedback]]:
    """A feedback stream split into chunks; queries run between chunks,
    so caches get invalidated and re-warmed several times per example."""
    n_chunks = draw(st.integers(1, 4))
    chunks: List[List[Feedback]] = []
    t = 0
    for _ in range(n_chunks):
        size = draw(st.integers(0, 12))
        chunk = []
        for _ in range(size):
            chunk.append(
                Feedback(
                    rater=draw(st.sampled_from(RATERS)),
                    target=draw(st.sampled_from(RATED)),
                    time=float(t),
                    rating=draw(st.floats(0.0, 1.0, allow_nan=False)),
                )
            )
            t += 1
        chunks.append(chunk)
    return chunks


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    chunks=chunked_streams(),
    perspective=st.sampled_from([None, "r0", "r5"]),
)
def test_property_batch_equals_scalar_equals_fresh(name, chunks, perspective):
    """score_many == per-candidate score() == fresh-model replay, at
    every point of an interleaved record/query history."""
    if name in QUERY_MUTATING:
        pytest.skip("query-time adaptation makes consecutive queries differ")
    live = REGISTRY.create(name)
    seen: List[Feedback] = []
    for chunk in chunks:
        live.record_many(chunk)
        seen.extend(chunk)
        now = seen[-1].time + 1.0 if seen else 0.0
        batch = live.score_many(QUERIED, perspective, now)
        assert len(batch) == len(QUERIED)
        scalar = [live.score(t, perspective, now) for t in QUERIED]
        assert batch == pytest.approx(scalar, abs=1e-9), (
            f"{name}: batched scores diverge from per-candidate scores"
        )
        fresh = REGISTRY.create(name)
        fresh.record_many(seen)
        fresh_batch = fresh.score_many(QUERIED, perspective, now)
        assert batch == pytest.approx(fresh_batch, abs=1e-9), (
            f"{name}: warm incremental scores diverge from a cold replay"
        )


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chunks=chunked_streams())
def test_property_batch_matches_base_fallback(name, chunks):
    """A custom score_many kernel must return exactly what the
    base-class score() loop would (the naive reference path)."""
    if name in QUERY_MUTATING:
        pytest.skip("query-time adaptation makes consecutive queries differ")
    model = REGISTRY.create(name)
    for chunk in chunks:
        model.record_many(chunk)
    now = float(sum(len(c) for c in chunks)) + 1.0
    batch = model.score_many(QUERIED, "r0", now)
    fallback = ReputationModel.score_many(model, QUERIED, "r0", now)
    assert batch == pytest.approx(fallback, abs=1e-9)


#: Models whose score_many runs a columnar numpy kernel over their
#: EventStore: every registered StoreBackedModel, found here so that a
#: new one is gated with no test written.  The base score() loop over
#: its scalar replay is the ground truth each kernel is checked against.
COLUMNAR = [
    name for name in MODEL_NAMES
    if isinstance(REGISTRY.create(name), StoreBackedModel)
]
FACET_NAMES = ["latency", "accuracy", "cost"]


def _random_stream(
    rng, n: int, raters: List[str], targets: List[str], facets: bool = False
) -> List[Feedback]:
    stream = []
    for t in range(n):
        facet_ratings = {}
        if facets and rng.random() < 0.5:
            for facet in rng.sample(FACET_NAMES, rng.randint(1, 3)):
                facet_ratings[facet] = rng.random()
        stream.append(
            Feedback(
                rater=rng.choice(raters),
                target=rng.choice(targets),
                time=float(t) if rng.random() < 0.8 else float(rng.randint(0, n)),
                rating=rng.random(),
                facet_ratings=facet_ratings,
            )
        )
    return stream


def _assert_three_way_parity(name, model, seen, perspectives, now):
    """Columnar kernel == base score() loop == cold replay, to 1e-9."""
    for persp in perspectives:
        batch = model.score_many(QUERIED, persp, now)
        fallback = ReputationModel.score_many(model, QUERIED, persp, now)
        assert batch == pytest.approx(fallback, abs=1e-9), (
            f"{name}: columnar kernel diverges from scalar loop ({persp=})"
        )
        fresh = REGISTRY.create(name)
        fresh.record_many(seen)
        assert fresh.score_many(QUERIED, persp, now) == pytest.approx(
            batch, abs=1e-9
        ), f"{name}: warm kernel diverges from cold replay ({persp=})"


class TestSeededColumnarParity:
    """Rotating-seed randomized parity sweeps (sklearn's
    global_random_seed idiom: must hold for every seed in [0, 99])."""

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_disjoint_stream_parity(self, name, global_random_seed):
        rng = random.Random(global_random_seed)
        model = REGISTRY.create(name)
        seen: List[Feedback] = []
        for _ in range(3):
            chunk = _random_stream(
                rng, rng.randint(0, 40), RATERS, RATED, facets=True
            )
            model.record_many(chunk)
            seen.extend(chunk)
            now = (max((f.time for f in seen), default=0.0)) + 1.0
            _assert_three_way_parity(
                name, model, seen, [None, "r0", "never-seen"], now
            )

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_coupled_stream_parity(self, name, global_random_seed):
        """Raters that are also rated couple the entity graph (Sporas'
        rank kernel must detect this and fall back to the base loop)."""
        rng = random.Random(global_random_seed)
        everyone = RATERS + RATED
        model = REGISTRY.create(name)
        seen = _random_stream(rng, rng.randint(10, 50), everyone, everyone)
        model.record_many(seen)
        now = max(f.time for f in seen) + 1.0
        _assert_three_way_parity(name, model, seen, [None, "r0"], now)

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_chunk_size_invariance(self, name, global_random_seed):
        """Scores are bitwise independent of the store's chunking."""
        from repro.store import EventStore

        rng = random.Random(global_random_seed)
        seen = _random_stream(rng, 60, RATERS, RATED, facets=True)
        scores = []
        for chunk_size in (1, 7, 64, 4096):
            model = REGISTRY.create(name)
            model._store = EventStore(chunk_size=chunk_size)
            model.record_many(seen)
            scores.append(model.score_many(QUERIED, "r0", 61.0))
        assert all(s == scores[0] for s in scores[1:]), name

    def test_wang_recommendations_and_facet_weights(self, global_random_seed):
        from repro.models.wang_vassileva import WangVassilevaModel

        rng = random.Random(global_random_seed)
        model = WangVassilevaModel(
            facet_weights={"latency": 2.0, "accuracy": 1.0}
        )
        mirror = WangVassilevaModel(
            facet_weights={"latency": 2.0, "accuracy": 1.0}
        )
        seen = _random_stream(rng, 40, RATERS, RATED, facets=True)
        for i, fb in enumerate(seen):
            model.record(fb)
            if i % 5 == 0:
                # Recommenders drawn from the rated pool too: a pair
                # whose target also receives feedback from other raters
                # exercises the recommendation-only-pair pooling path.
                args = (
                    rng.choice(RATERS),
                    rng.choice(RATERS + RATED),
                    rng.random(),
                    rng.random(),
                )
                model.record_recommendation(*args)
                mirror.record_recommendation(*args)
        mirror.record_many(seen)
        # Query everyone — recommenders included — so pair-universe
        # mismatches between kernel and scalar paths can't hide.
        queried = QUERIED + RATERS
        for persp in (None, "r0", "r5", "never-seen"):
            batch = model.score_many(queried, persp, 41.0)
            assert batch == pytest.approx(
                ReputationModel.score_many(model, queried, persp, 41.0),
                abs=1e-9,
            )
            # Recommendation ordering relative to ratings doesn't matter.
            assert mirror.score_many(queried, persp, 41.0) == pytest.approx(
                batch, abs=1e-9
            )

    def test_wang_recommendation_only_pair_parity(self):
        """Regression: an entity named only as a *recommender* joins the
        pooled reputation as an empty partner model (trust 0.5) on every
        path — columnar kernel and scalar score() alike."""
        from repro.models.wang_vassileva import WangVassilevaModel

        model = WangVassilevaModel()
        model.record(Feedback(rater="c", target="x", time=0.0, rating=1.0))
        model.record(Feedback(rater="c", target="x", time=1.0, rating=1.0))
        model.record_recommendation("a", "x", 0.8, 0.8)
        batch = model.score_many(["x"], "b", 2.0)
        # Pooled over b's view: c's 0.75 and a's empty 0.5, equal weight.
        assert batch == pytest.approx([0.625], abs=1e-9)
        assert batch == pytest.approx(
            [model.score("x", "b", 2.0)], abs=1e-9
        )

    def test_peertrust_tvm_parity(self, global_random_seed):
        from repro.models.peertrust import CredibilityMeasure, PeerTrustModel

        rng = random.Random(global_random_seed)
        def tvm_model():
            return PeerTrustModel(
                credibility=CredibilityMeasure.TVM, window=8, tvm_depth=3
            )

        model = tvm_model()
        seen = _random_stream(rng, rng.randint(20, 60), RATERS, RATED)
        # Warm the kernel caches halfway, so the cold replay below
        # checks their invalidation.
        half = len(seen) // 2
        model.record_many(seen[:half])
        model.score_many(QUERIED, "r0", float(half))
        model.record_many(seen[half:])
        fresh = tvm_model()
        fresh.record_many(seen)
        now = max(f.time for f in seen) + 1.0
        for persp in (None, "r0", "never-seen"):
            batch = model.score_many(QUERIED, persp, now)
            assert batch == pytest.approx(
                ReputationModel.score_many(model, QUERIED, persp, now),
                abs=1e-9,
            )
            assert fresh.score_many(QUERIED, persp, now) == pytest.approx(
                batch, abs=1e-9
            )

    def test_amazon_votes_parity(self, global_random_seed):
        from repro.models.amazon import AmazonModel

        rng = random.Random(global_random_seed)
        model = AmazonModel()
        seen = _random_stream(rng, 40, RATERS, RATED)
        # votes[i] applies right after seen[i] is recorded — a vote only
        # reaches the reviews existing at vote time, so the cold replay
        # must interleave identically.
        votes = {}
        for i, fb in enumerate(seen):
            model.record(fb)
            if i % 4 == 0:
                vote = (rng.choice(RATED), fb.rater, rng.randint(1, 3))
                model.vote_helpful(*vote)
                votes[i] = vote
        now = max(f.time for f in seen) + 1.0
        batch = model.score_many(QUERIED, None, now)
        assert batch == pytest.approx(
            ReputationModel.score_many(model, QUERIED, None, now), abs=1e-9
        )
        fresh = AmazonModel()
        for i, fb in enumerate(seen):
            fresh.record(fb)
            if i in votes:
                fresh.vote_helpful(*votes[i])
        assert fresh.score_many(QUERIED, None, now) == pytest.approx(
            batch, abs=1e-9
        )


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_score_many_empty_and_rank_shape(name):
    model = REGISTRY.create(name)
    assert model.score_many([]) == []
    model.record_many(
        [
            Feedback(rater=f"r{i % 3}", target=RATED[i % 4], time=float(i),
                     rating=(i % 10) / 10.0)
            for i in range(20)
        ]
    )
    ranking = model.rank(QUERIED, perspective="r0", now=21.0)
    assert sorted(st_.target for st_ in ranking) == sorted(QUERIED)
    scores = [st_.score for st_ in ranking]
    assert scores == sorted(scores, reverse=True)


def _coded_chunks(rng, names: List[str]):
    """Code-column chunks over *names* (the last entry never used)."""
    chunks, t = [], 0
    for _ in range(3):
        n = rng.randint(0, 25)
        raters = [rng.randrange(len(RATERS)) for _ in range(n)]
        targets = [len(RATERS) + rng.randrange(len(RATED)) for _ in range(n)]
        ratings = [rng.choice([0.0, 1.0, rng.random()]) for _ in range(n)]
        times = [float(t + i) for i in range(n)]
        t += n
        chunks.append((raters, targets, ratings, times))
    return chunks


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_ingest_columns_equals_record_many(name, global_random_seed):
    """Columnar ingest == record_many over the decoded Feedback rows:
    bitwise scores, equal store bytes, the same range error."""
    rng = random.Random(global_random_seed)
    names = RATERS + RATED + ["never-referenced"]
    coded, looped = REGISTRY.create(name), REGISTRY.create(name)
    queried = QUERIED + RATERS
    for raters, targets, ratings, times in _coded_chunks(rng, names):
        coded.ingest_columns(
            names, np.array(raters), np.array(targets), np.array(ratings),
            np.array(times),
        )
        looped.record_many(
            [
                Feedback(rater=names[r], target=names[t], time=tm, rating=v)
                for r, t, v, tm in zip(raters, targets, ratings, times)
            ]
        )
        now = (times[-1] if times else 0.0) + 1.0
        for persp in (None, "r0"):
            assert coded.score_many(queried, persp, now) == (
                looped.score_many(queried, persp, now)
            ), name
    for bad in (1.5, -0.25, float("nan")):
        with pytest.raises(ValueError) as info:
            coded.ingest_columns(
                names, [0, 1], [len(RATERS)] * 2, [0.5, bad], [1.0, 2.0]
            )
        with pytest.raises(ValueError) as expected:
            Feedback(rater="r0", target="svc-a", time=1.0, rating=bad)
        assert str(info.value) == str(expected.value)
    # the store holds the same rows, none from the rejected batches
    if hasattr(looped, "_store"):
        expected_bytes = looped._store.canonical_bytes()
        assert coded._store.canonical_bytes() == expected_bytes


def _steps(rng, stream: List[Feedback]) -> List[List[Feedback]]:
    """*stream* cut into steps: one-row records mixed with random-size
    chunks (empty ones too), so folds see every delta shape."""
    steps, i = [], 0
    while i < len(stream):
        size = 1 if rng.random() < 0.5 else rng.randint(0, 8)
        steps.append(stream[i:i + size])
        i += size
    return steps


def _beta(chunk_size: int, lam: float = 1.0):
    from repro.models.beta import BetaReputation
    from repro.store import EventStore

    model = BetaReputation(lam=lam)
    model._store = EventStore(chunk_size=chunk_size)
    return model


def _sporas(chunk_size: int):
    from repro.models.sporas import SporasModel
    from repro.store import EventStore

    model = SporasModel()
    model._store = EventStore(chunk_size=chunk_size)
    return model


#: The damped-walk models and configurations the parity test covers.
WALKS = {
    "pagerank": PageRankModel,
    "social_network": SocialNetworkModel,
    "eigentrust_pretrusted": partial(
        EigenTrustModel, pre_trusted=["r0", "svc-a"]
    ),
    "eigentrust_uniform": EigenTrustModel,
    "eigentrust_alpha0": partial(EigenTrustModel, alpha=0.0),
}


def _normalized(vector, targets) -> List[float]:
    """Scores from a stationary vector the way the walk models' score_many
    reads them: share over the top share, 0.5 while the graph is empty."""
    top = max(vector.values(), default=0.0)
    if top <= 0:
        return [0.5] * len(targets)
    return [vector.get(t, 0.0) / top for t in targets]


@pytest.mark.parametrize(
    "cls", [PageRankModel, SocialNetworkModel, EigenTrustModel]
)
@pytest.mark.parametrize("param, value", [
    ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")),
    ("max_iter", 0), ("max_iter", -3),
])
def test_walk_iteration_controls_validated(cls, param, value):
    """A walk that could never converge (or never step) is refused
    up front, with the offending parameter named."""
    with pytest.raises(ConfigurationError, match=param):
        cls(**{param: value})


class TestFoldInterleaving:
    """The O(delta) folds (every store-backed model's kept kernel state
    and scalar replay, the damped walks' graph-change invalidation and
    warm start, the personalised models' memos) equal a cold rebuild at
    every point of an interleaved record/query history."""

    @staticmethod
    def _assert_sporas_fold(model, seen):
        """Fold == cold clone's kernel bitwise, == base loop to 1e-9,
        and the coupling latch == the rater/target sets intersecting."""
        cold = _sporas(4096)
        cold.record_many(seen)
        fold, expected = model._kernel(), cold._kernel()
        coupled = bool({f.rater for f in seen} & {f.target for f in seen})
        assert (fold is None) == (expected is None) == coupled
        if fold is not None:
            n = len(model._store.entities)
            assert fold[:n].tobytes() == expected[:n].tobytes()
        batch = model.score_many(QUERIED + RATERS)
        fallback = ReputationModel.score_many(model, QUERIED + RATERS)
        assert batch == pytest.approx(fallback, abs=1e-9)

    @pytest.mark.parametrize("turn", ["target_rates", "rater_is_rated"])
    def test_sporas_fold_turns_coupled(self, turn, global_random_seed):
        """Disjoint rows, then a one-row step that couples the stream (a
        rated service rates, or a rater is rated), then rows over
        everyone.  svc-a's twelve top ratings lift its reputation past
        the newcomer floor, so a missed latch also moves the scores."""
        rng = random.Random(global_random_seed)
        prefix = _random_stream(rng, rng.randint(0, 20), RATERS, RATED)
        prefix += [
            Feedback(rater=rng.choice(RATERS), target="svc-a",
                     time=float(len(prefix) + i), rating=1.0)
            for i in range(12)
        ]
        rater, target = (
            ("svc-a", rng.choice(RATED[1:])) if turn == "target_rates"
            else (rng.choice(RATERS), prefix[-1].rater)
        )
        coupling = Feedback(rater=rater, target=target,
                            time=float(len(prefix)), rating=0.9)
        rest = _random_stream(rng, rng.randint(0, 20), RATERS + RATED,
                              RATERS + RATED)
        model = _sporas(rng.choice([1, 3, 7, 4096]))
        seen: List[Feedback] = []
        for step in _steps(rng, prefix) + [[coupling]] + _steps(rng, rest):
            model.record_many(step)
            seen.extend(step)
            self._assert_sporas_fold(model, seen)
        assert model._kernel() is None

    def test_sporas_models_sharing_a_store(self, global_random_seed):
        """Each model keeps its own fold position over a shared store;
        swapping in another store restarts the fold from row 0."""
        rng = random.Random(global_random_seed)
        first, second = _sporas(rng.choice([1, 5, 4096])), _sporas(4096)
        second._store = first._store
        stream = _random_stream(rng, rng.randint(20, 60), RATERS, RATED)
        seen: List[Feedback] = []
        for i, step in enumerate(_steps(rng, stream)):
            (first if i % 2 else second).record_many(step)
            seen.extend(step)
            self._assert_sporas_fold(first, seen)
            if i % 3 == 0:
                self._assert_sporas_fold(second, seen)
        self._assert_sporas_fold(second, seen)
        half = seen[: len(seen) // 2]
        swapped = _sporas(4096)
        swapped.record_many(half)
        second._store = swapped._store
        assert second.score_many(QUERIED) == swapped.score_many(QUERIED)
        assert [second.score(t) for t in QUERIED] == [
            swapped.score(t) for t in QUERIED
        ]

    @staticmethod
    def _assert_beta_fold(model, seen, queried):
        """Fold == a fresh model's cold kernel and == one bincount over
        the fresh store, bitwise; == the base score() loop to 1e-9."""
        cold = _beta(4096)
        cold.record_many(seen)
        columns = cold._store.snapshot()
        n = len(cold._store.entities)
        alpha = np.bincount(columns.target, columns.value, minlength=n)
        beta = np.bincount(columns.target, minlength=n) - alpha
        assert len(model._store.entities) == n
        for fold, kernel, direct in zip(
            model._kernel(), cold._kernel(), (alpha, beta)
        ):
            assert fold[:n].tobytes() == kernel[:n].tobytes()
            assert fold[:n].tobytes() == direct.tobytes()
        batch = model.score_many(queried)
        fallback = ReputationModel.score_many(model, queried)
        assert batch == pytest.approx(fallback, abs=1e-9)

    def test_beta_fold_interleaving(self, global_random_seed):
        """One-row records, random-size chunks and ids that grow the
        interner, checked after every step, beside a forgetting model
        (``lam < 1``, the closed form)."""
        rng = random.Random(global_random_seed)
        grown = [f"svc-new-{i}" for i in range(8)]
        stream = []
        for t in range(rng.randint(20, 60)):
            pool = RATED + grown[: t // 6]
            stream.append(Feedback(rater=rng.choice(RATERS + grown[:2]),
                                   target=rng.choice(pool), time=float(t),
                                   rating=rng.random()))
        queried = QUERIED + RATERS + grown
        model, forgetting = _beta(rng.choice([1, 3, 7, 4096])), _beta(5, 0.9)
        seen: List[Feedback] = []
        for step in _steps(rng, stream):
            model.record_many(step)
            forgetting.record_many(step)
            seen.extend(step)
            self._assert_beta_fold(model, seen, queried)
            assert forgetting.score_many(queried) == pytest.approx(
                ReputationModel.score_many(forgetting, queried), abs=1e-9
            )

    @staticmethod
    def _assert_recomputes_only_on_graph_change(cls, rng):
        """Record in steps and score after each: compute runs only after
        steps that add a node or a new edge, a step that changes neither
        returns the previous scores bitwise, a twin replaying the same
        steps and queries answers bitwise alike, and the scores equal
        compute_naive's to 1e-9."""
        everyone = RATERS + RATED
        # a new edge, a repeated one, a new node with no edge, a self-loop
        stream = [
            Feedback(rater="r0", target="svc-a", time=0.0, rating=0.9),
            Feedback(rater="r0", target="svc-a", time=1.0, rating=0.8),
            Feedback(rater="r1", target="svc-a", time=2.0, rating=0.1),
            Feedback(rater="svc-b", target="svc-b", time=3.0, rating=0.9),
        ]
        stream += _random_stream(rng, rng.randint(20, 60), everyone, everyone)
        model, twin = cls(), cls()
        computes = []
        compute = model.compute

        def counting_compute():
            computes.append(1)
            return compute()

        model.compute = counting_compute
        nodes: set = set()
        edges: set = set()
        queried = QUERIED + RATERS
        before = previous = None  # the first query always computes
        for step in [[fb] for fb in stream[:4]] + _steps(rng, stream[4:]):
            for fb in step:
                nodes.update((fb.rater, fb.target))
                if fb.rating > model.positive_threshold and (
                    fb.rater != fb.target
                ):
                    edges.add((fb.rater, fb.target))
            model.record_many(step)
            twin.record_many(step)
            computes.clear()
            batch = model.score_many(queried)
            changed = (len(nodes), len(edges)) != before
            assert len(computes) == (1 if changed else 0)
            if not changed:
                assert batch == previous
            before, previous = (len(nodes), len(edges)), batch
            assert batch == twin.score_many(queried)
            assert batch == pytest.approx(
                _normalized(model.compute_naive(), queried), abs=1e-9
            )

    def test_social_network_recomputes_only_on_graph_change(
        self, global_random_seed
    ):
        self._assert_recomputes_only_on_graph_change(
            SocialNetworkModel, random.Random(global_random_seed)
        )

    def test_pagerank_recomputes_only_on_graph_change(
        self, global_random_seed
    ):
        self._assert_recomputes_only_on_graph_change(
            PageRankModel, random.Random(global_random_seed)
        )

    @pytest.mark.parametrize("walk", sorted(WALKS))
    def test_walk_compute_matches_naive(self, walk, global_random_seed):
        """Records interleaved with score_many: compute() == the scalar
        compute_naive() to 1e-9, and so are the scores served.  Services
        never rate, so their dangling mass must go to the prior (the
        pre-trusted set, where there is one)."""
        rng = random.Random(global_random_seed)
        stream = _random_stream(rng, rng.randint(20, 60), RATERS,
                                RATERS + RATED)
        model = WALKS[walk]()
        queried = QUERIED + RATERS
        for step in _steps(rng, stream):
            model.record_many(step)
            batch = model.score_many(queried)
            fast, naive = model.compute(), model.compute_naive()
            assert fast.keys() == naive.keys()
            assert list(fast.values()) == pytest.approx(
                [naive[node] for node in fast], abs=1e-9
            )
            assert batch == pytest.approx(
                _normalized(naive, queried), abs=1e-9
            )

    def test_eigentrust_memory_is_linear(self, global_random_seed):
        """2,000 peers rating 5 others each: scoring peaks under 8 MB
        (two dense n x n arrays would take 64 MB)."""
        import tracemalloc

        rng = random.Random(global_random_seed)
        peers = [f"p{i:04d}" for i in range(2000)]
        model = EigenTrustModel(pre_trusted=peers[:3])
        model.record_many(
            Feedback(rater=rater, target=rng.choice(peers), time=float(t),
                     rating=rng.random())
            for t, rater in enumerate(peers * 5)
        )
        tracemalloc.start()
        try:
            scores = model.score_many(peers[:100])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(scores) <= 1.0
        assert peak < 8 * 2**20

    def test_subjective_logic_memoised_referrals(self, global_random_seed):
        """score_many == the base score() loop exactly, personalized or
        not, as evidence arrives."""
        from repro.models.subjective_logic import SubjectiveLogicModel

        rng = random.Random(global_random_seed)
        everyone = RATERS + RATED
        stream = _random_stream(rng, rng.randint(20, 60), RATERS, everyone)
        model = SubjectiveLogicModel()
        queried = QUERIED + RATERS
        for step in _steps(rng, stream):
            model.record_many(step)
            for persp in (None, "r0", "never-seen"):
                assert model.score_many(queried, persp) == (
                    ReputationModel.score_many(model, queried, persp)
                )

    # -- the memos and folds, replayed against a cold clone -------------

    @staticmethod
    def _assert_replay(factory, ops, queried, nows, probe=None, loop=0.0):
        """Apply *ops* (records and other state changes, and queries
        marked by :func:`_query`) one by one, querying between them so
        every memo and fold warms up and then meets new state.  After
        each op, at every ``now`` of ``nows(i)`` and every perspective,
        score_many and rank on the live model equal those of a fresh
        model given the same ops but the queries (one cold fold),
        bitwise, and so does the base score() loop, up to *loop*;
        ``probe(live, fresh, now)`` compares what else a memo backs."""
        model = factory()
        for i in range(len(ops)):
            ops[i](model)
            cold = factory()
            for op in ops[: i + 1]:
                if not getattr(op, "query", False):
                    op(cold)
            for now in nows(i):
                if probe is not None:
                    probe(model, cold, now)
                for persp in (None, "r0", "r3"):
                    expected = cold.score_many(queried, persp, now)
                    assert model.score_many(queried, persp, now) == (
                        expected
                    ), (i, now, persp)
                    assert ReputationModel.score_many(
                        model, queried, persp, now
                    ) == pytest.approx(expected, rel=0, abs=loop), (
                        i, now, persp
                    )
                    assert model.rank(queried, persp, now) == (
                        cold.rank(queried, persp, now)
                    ), (i, now, persp)

    def test_subjective_logic_functional_memo(self, global_random_seed):
        """Functional opinions memoised on their evidence tuple equal a
        fresh model's after every record."""
        from repro.models.subjective_logic import SubjectiveLogicModel

        def probe(model, cold, now):
            for rater in RATERS:
                for target in QUERIED:
                    assert model.functional_opinion(rater, target) == (
                        cold.functional_opinion(rater, target)
                    ), (rater, target)

        rng = random.Random(global_random_seed)
        stream = _random_stream(rng, rng.randint(20, 60), RATERS, RATED)
        self._assert_replay(
            SubjectiveLogicModel, self._record_ops(rng, stream), QUERIED,
            lambda i: [None], probe,
        )

    def test_yu_singh_mass_memo(self, global_random_seed):
        """Histories with equal times (the stable time sort keeps them in
        append order), most of them longer than ``history``: every
        memoised local mass equals a fresh model's after each step."""
        from repro.models.yu_singh import YuSinghModel

        def probe(model, cold, now):
            for rater in RATERS:
                for target in RATED:
                    assert model.local_mass(rater, target) == (
                        cold.local_mass(rater, target)
                    ), (rater, target)

        rng = random.Random(global_random_seed)
        stream = [
            Feedback(rater=rng.choice(RATERS), target=rng.choice(RATED),
                     time=float(rng.randint(0, 4)), rating=rng.random())
            for _ in range(rng.randint(30, 70))
        ]
        self._assert_replay(
            partial(YuSinghModel, history=3, min_local=4),
            self._record_ops(rng, stream), QUERIED, lambda i: [None], probe,
        )

    def test_aberer_population_memo(self, global_random_seed):
        """Complaints filed out of band between records move the
        population average score_many computes once per call."""
        from repro.models.aberer import AbererDespotovicModel

        rng = random.Random(global_random_seed)
        stream = _random_stream(rng, rng.randint(20, 60), RATERS, RATED)
        ops = self._record_ops(rng, stream)
        for at in sorted(rng.sample(range(len(ops)), len(ops) // 3)):
            pair = (rng.choice(RATERS), rng.choice(RATERS + RATED))
            ops.insert(at + 1, lambda m, pair=pair: m.file_complaint(*pair))
        self._assert_replay(
            AbererDespotovicModel, ops, QUERIED + RATERS, lambda i: [None]
        )

    def test_epinions_weight_memo(self, global_random_seed):
        """Trust and block edits between records change reviewers'
        weights, which score_many memoises within one call only."""
        from repro.models.epinions import EpinionsModel

        rng = random.Random(global_random_seed)
        stream = _random_stream(rng, rng.randint(20, 60), RATERS, RATED)
        ops = self._record_ops(rng, stream)
        for at in sorted(rng.sample(range(len(ops)), len(ops) // 2)):
            edit = (rng.choice(["trust", "trust", "block"]),
                    rng.choice(RATERS), rng.choice(RATERS))
            ops.insert(
                at + 1,
                lambda m, edit=edit: getattr(m, edit[0])(*edit[1:]),
            )
        self._assert_replay(
            EpinionsModel, ops, QUERIED, lambda i: [None]
        )

    @pytest.mark.parametrize("window", [None, 5.0], ids=["all", "window"])
    def test_liu_ngu_zeng_row_memo(self, window, global_random_seed):
        """Quality rows are memoised only while no freshness window
        applies; policing, preferences and a caller mutating a returned
        row leave every row and ranking equal to a fresh model's."""
        from repro.models.liu_ngu_zeng import LiuNguZengModel

        def probe(model, cold, now):
            for target in QUERIED:
                row = model.quality_row(target, now)
                assert row == cold.quality_row(target, now), (target, now)
                if row:
                    row.clear()  # must not reach the memo

        rng = random.Random(global_random_seed)
        stream = _random_stream(
            rng, rng.randint(20, 60), RATERS, RATED, facets=True
        )
        ops = self._record_ops(rng, stream)
        for at in sorted(rng.sample(range(len(ops)), len(ops) // 4)):
            now = float(rng.randint(0, len(stream)))
            ops.insert(at + 1, lambda m, now=now: m.police(now))
        ops.insert(0, lambda m: m.set_preferences(
            "r0", {"latency": 2.0, "overall": 1.0}
        ))
        self._assert_replay(
            partial(LiuNguZengModel, freshness_window=window), ops, QUERIED,
            lambda i: [None, float(i), float(i) + 6.0], probe,
        )

    def test_yolum_singh_memo_matches_score_loop(self, global_random_seed):
        """score_many (one neighbour-ranking memo per call, for every
        agent but the asker) == a score() loop on a twin seeded alike:
        the same scores, and the same weights and neighbours after."""
        from repro.models.yolum_singh import YolumSinghModel

        rng = random.Random(global_random_seed)
        raters = [f"r{i}" for i in range(12)]
        stream = _random_stream(rng, rng.randint(40, 90), raters, RATED)
        live = YolumSinghModel(rng=global_random_seed)
        twin = YolumSinghModel(rng=global_random_seed)
        for step in _steps(rng, stream):
            live.record_many(step)
            twin.record_many(step)
            for persp in (None, "r0", rng.choice(raters), "never-seen"):
                assert live.score_many(QUERIED, persp) == [
                    twin.score(target, persp) for target in QUERIED
                ], persp
                assert live.network._weights == twin.network._weights
                assert [a.neighbors for a in live.network.agents()] == [
                    a.neighbors for a in twin.network.agents()
                ]
        assert live.messages_used == twin.messages_used

    @staticmethod
    def _record_ops(rng, stream):
        return [
            lambda m, step=step: m.record_many(step)
            for step in _steps(rng, stream)
        ]

    @pytest.mark.parametrize("name", COLUMNAR)
    def test_fold_interleaving(self, name, global_random_seed):
        """The cursor protocol of every registered StoreBackedModel:
        one-row records, chunks and coded ingest that grow the interner,
        queries at other ``now``s and perspectives, and swaps to another
        store.  ``now`` moves now and then, so kernels keyed on it both
        restart and fold on.  A swapped-in store holds no more rows than
        were recorded: PeerTrust's row-aligned transaction contexts stay
        beside the store, and these reports carry no interaction, so
        every context is 1.0."""
        rng = random.Random(global_random_seed)
        stream = _growing_stream(rng, rng.randint(30, 60), facets=True)
        names = RATERS + RATED + GROWN
        factory = partial(REGISTRY.create, name)
        steps = _steps(rng, stream)
        ops, clocks, recorded = [], [], 0
        for i, step in enumerate(steps):
            kind = rng.random()
            if len(step) == 1 and kind < 0.5:
                ops.append(lambda m, fb=step[0]: m.record(fb))
            elif kind < 0.7:
                columns = [[names.index(f.rater) for f in step],
                           [names.index(f.target) for f in step],
                           [f.rating for f in step], [f.time for f in step]]
                ops.append(lambda m, c=columns: m.ingest_columns(names, *c))
            else:
                ops.append(lambda m, step=step: m.record_many(step))
            recorded += len(step)
            if rng.random() < 0.3:
                args = (rng.choice(QUERIED), rng.choice([None, "r0", "r3"]),
                        rng.choice([None, float(rng.randint(0, 60))]))
                ops.append(_query(lambda m, a=args: m.score(*a)))
                ops.append(_query(
                    lambda m, a=args[1:]: m.score_many(QUERIED, *a)
                ))
            if i == len(steps) // 2 or rng.random() < 0.15:
                rows = rng.sample(stream[:recorded], rng.randint(0, recorded))
                ops.append(lambda m, rows=rows: setattr(
                    m, "_store", _filled_store(factory, rows)
                ))
            while len(clocks) < len(ops):
                if not clocks or rng.random() < 0.2:
                    clocks.append(rng.choice([None, recorded + 0.5]))
                else:
                    clocks.append(clocks[-1])
        self._assert_replay(
            factory, ops, QUERIED + GROWN + RATERS, lambda i: [clocks[i]],
            loop=1e-9,
        )

    def test_amazon_fold_interleaving(self, global_random_seed):
        """Helpful votes between records restart the fold; ``now``
        moves between steps and, within one, away and back."""
        from repro.models.amazon import AmazonModel

        rng = random.Random(global_random_seed)
        stream = _growing_stream(rng, rng.randint(20, 60))
        ops = self._record_ops(rng, stream)
        for at in sorted(rng.sample(range(len(ops)), len(ops) // 4)):
            vote = (rng.choice(RATED), rng.choice(RATERS), rng.randint(1, 3))
            ops.insert(at + 1, lambda m, vote=vote: m.vote_helpful(*vote))
        self._assert_replay(
            AmazonModel, ops, QUERIED + GROWN,
            lambda i: [None, i + 1.0, i + 1.0, i + 4.5], loop=1e-9,
        )

    def test_maximilien_singh_fold_interleaving(self, global_random_seed):
        """Overall and facet rows, claims and preferences; ``now`` moves
        between steps and, within one, away and back."""
        from repro.models.maximilien_singh import MaximilienSinghModel

        def factory():
            model = MaximilienSinghModel()
            model.register_advertisement("svc-a", {"latency": 0.9})
            model.set_preferences("r0", {"latency": 2.0, "cost": 1.0})
            return model

        rng = random.Random(global_random_seed)
        stream = _growing_stream(rng, rng.randint(20, 60), facets=True)
        self._assert_replay(
            factory, self._record_ops(rng, stream), QUERIED + GROWN,
            lambda i: [None, i + 1.0, i + 1.0, i + 4.5], loop=1e-9,
        )

    @pytest.mark.parametrize(
        "weights", [None, {"latency": 2.0, "cost": 1.0}],
        ids=["unweighted", "weighted"],
    )
    def test_wang_vassileva_fold_interleaving(
        self, weights, global_random_seed
    ):
        """Facet rows and recommendations (which restart the fold, and
        whose pairs may or may not have store rows) between records."""
        from repro.models.wang_vassileva import WangVassilevaModel

        rng = random.Random(global_random_seed)
        stream = _growing_stream(rng, rng.randint(20, 60), facets=True)
        ops = self._record_ops(rng, stream)
        for at in sorted(rng.sample(range(len(ops)), len(ops) // 4)):
            args = (rng.choice(RATERS), rng.choice(RATERS + RATED),
                    rng.random(), rng.random())
            ops.insert(
                at + 1, lambda m, args=args: m.record_recommendation(*args)
            )
        self._assert_replay(
            partial(WangVassilevaModel, facet_weights=weights), ops,
            QUERIED + GROWN + RATERS, lambda i: [None], loop=1e-9,
        )

    @pytest.mark.parametrize("kind", ["ordered", "unordered", "tvm"])
    def test_peertrust_fold_interleaving(self, kind, global_random_seed):
        """More than 50 rows per target, so the default window drops
        rows; "unordered" times take the cold window; TVM with a window
        of 5 churns it."""
        from repro.models.peertrust import CredibilityMeasure, PeerTrustModel

        factory = PeerTrustModel
        if kind == "tvm":
            factory = partial(PeerTrustModel, window=5, tvm_depth=2,
                              credibility=CredibilityMeasure.TVM)
        rng = random.Random(global_random_seed)
        stream = _growing_stream(
            rng, rng.randint(120, 150), targets=RATED[:1],
            ordered=kind != "unordered",
        )
        assert sum(f.target == "svc-a" for f in stream) > 50
        self._assert_replay(
            factory, self._record_ops(rng, stream), QUERIED + GROWN,
            lambda i: [None], loop=1e-9,
        )

    @pytest.mark.parametrize(
        "name", [name for name in COLUMNAR if name != "histos"]
    )
    def test_one_row_fold_reads_no_snapshot(
        self, name, global_random_seed, monkeypatch
    ):
        """A warm fold over one new row at an unchanged ``now`` reads
        only the delta: with EventStore.snapshot raising, it still
        scores like a cold model.  Histos is exempt: a new row can
        replace an edge's latest rating, so its kernel rebuilds the
        latest-edge sums from snapshot()."""
        from repro.store import EventStore

        rng = random.Random(global_random_seed)
        stream = _growing_stream(rng, rng.randint(10, 40), facets=True)
        now = len(stream) + 1.0
        queried = QUERIED + GROWN
        model = REGISTRY.create(name)
        model.record_many(stream[:-1])
        model.score_many(queried, "r0", now)
        cold = REGISTRY.create(name)
        cold.record_many(stream)
        expected = cold.score_many(queried, "r0", now)

        def no_snapshot(self):
            raise AssertionError("a one-row fold rebuilt the whole store")

        monkeypatch.setattr(EventStore, "snapshot", no_snapshot)
        model.record(stream[-1])
        assert model.score_many(queried, "r0", now) == expected


#: services that join the stream as it goes, so folds grow the interner
GROWN = [f"svc-new-{i}" for i in range(4)]


def _query(op):
    """*op* marked as a query: a cold clone replaying the ops skips it."""
    op.query = True
    return op


def _filled_store(factory, rows: List[Feedback]):
    """The store of a fresh ``factory()`` model that recorded *rows*."""
    donor = factory()
    donor.record_many(rows)
    return donor._store


def _growing_stream(
    rng,
    n: int,
    targets: List[str] = RATED,
    facets: bool = False,
    ordered: bool = True,
) -> List[Feedback]:
    """*n* reports on *targets* plus GROWN services joining one by one;
    times rise with the row unless not *ordered*, which makes about a
    fifth of them random."""
    stream = []
    for t in range(n):
        facet_ratings = {}
        if facets and rng.random() < 0.5:
            for facet in rng.sample(FACET_NAMES, rng.randint(1, 3)):
                facet_ratings[facet] = rng.random()
        ordered_time = ordered or rng.random() < 0.8
        stream.append(Feedback(
            rater=rng.choice(RATERS),
            target=rng.choice(targets + GROWN[: t * len(GROWN) // n]),
            time=float(t) if ordered_time else float(rng.randint(0, n)),
            rating=rng.random(),
            facet_ratings=facet_ratings,
        ))
    return stream
