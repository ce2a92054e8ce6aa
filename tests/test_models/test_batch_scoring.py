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
from typing import List

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.models.base import ReputationModel

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


#: Models whose score_many runs a columnar numpy kernel over the shared
#: EventStore; the base score() loop over its scalar replay is the
#: ground truth each kernel is checked against.
COLUMNAR = [
    "amazon", "beta", "ebay", "histos", "maximilien_singh", "peertrust",
    "sporas", "wang_vassileva",
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


def _sporas(chunk_size: int):
    from repro.models.sporas import SporasModel
    from repro.store import EventStore

    model = SporasModel()
    model._store = EventStore(chunk_size=chunk_size)
    return model


class TestFoldInterleaving:
    """The O(delta) folds (Sporas' kept per-target state, Social
    network's graph-change invalidation, Subjective logic's memoised
    referrals) equal a cold rebuild at every point of an interleaved
    record/query history."""

    @staticmethod
    def _assert_sporas_fold(model, seen):
        """Fold == cold clone's kernel bitwise, == base loop to 1e-9,
        and the coupling latch == the rater/target sets intersecting."""
        cold = _sporas(4096)
        cold.record_many(seen)
        fold, expected = model._kernel_array(), cold._kernel_array()
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
        assert model._kernel_array() is None

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

    def test_sporas_one_row_fold_reads_no_snapshot(
        self, global_random_seed, monkeypatch
    ):
        """A warm fold over one new row reads only the delta: with
        EventStore.snapshot raising, it still scores correctly."""
        from repro.store import EventStore

        rng = random.Random(global_random_seed)
        stream = _random_stream(rng, rng.randint(10, 40), RATERS, RATED)
        model = _sporas(rng.choice([1, 4, 4096]))
        model.record_many(stream[:-1])
        model.score_many(QUERIED)
        cold = _sporas(4096)
        cold.record_many(stream)
        expected = cold.score_many(QUERIED)

        def no_snapshot(self):
            raise AssertionError("a one-row fold rebuilt the whole store")

        monkeypatch.setattr(EventStore, "snapshot", no_snapshot)
        model.record(stream[-1])
        assert model.score_many(QUERIED) == expected

    def test_social_network_recomputes_only_on_graph_change(
        self, global_random_seed
    ):
        """Bitwise equal to a fresh model after every step; compute runs
        only after steps that add a node or a new edge."""
        from repro.models.socialnetwork import SocialNetworkModel

        rng = random.Random(global_random_seed)
        everyone = RATERS + RATED
        # a new edge, a repeated one, a new node with no edge, a self-loop
        stream = [
            Feedback(rater="r0", target="svc-a", time=0.0, rating=0.9),
            Feedback(rater="r0", target="svc-a", time=1.0, rating=0.8),
            Feedback(rater="r1", target="svc-a", time=2.0, rating=0.1),
            Feedback(rater="svc-b", target="svc-b", time=3.0, rating=0.9),
        ]
        stream += _random_stream(rng, rng.randint(20, 60), everyone, everyone)
        model = SocialNetworkModel()
        computes = []
        compute = model.compute

        def counting_compute():
            computes.append(1)
            return compute()

        model.compute = counting_compute
        nodes: set = set()
        edges: set = set()
        seen: List[Feedback] = []
        queried = QUERIED + RATERS
        before = None  # the first query always computes
        for step in [[fb] for fb in stream[:4]] + _steps(rng, stream[4:]):
            for fb in step:
                nodes.update((fb.rater, fb.target))
                if fb.rating > model.positive_threshold and (
                    fb.rater != fb.target
                ):
                    edges.add((fb.rater, fb.target))
            model.record_many(step)
            seen.extend(step)
            computes.clear()
            batch = model.score_many(queried)
            changed = (len(nodes), len(edges)) != before
            assert len(computes) == (1 if changed else 0)
            before = (len(nodes), len(edges))
            fresh = SocialNetworkModel()
            fresh.record_many(seen)
            assert batch == fresh.score_many(queried)

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
