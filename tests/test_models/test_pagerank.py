"""Tests for the PageRank model."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.models.pagerank import PageRankModel

from tests.conftest import feedback


class TestPowerIteration:
    def test_rank_sums_to_one(self):
        model = PageRankModel()
        model.add_edge("a", "b")
        model.add_edge("b", "c")
        model.add_edge("c", "a")
        ranks = model.compute()
        assert math.isclose(sum(ranks.values()), 1.0, rel_tol=1e-9)

    def test_symmetric_cycle_is_uniform(self):
        model = PageRankModel()
        model.add_edge("a", "b")
        model.add_edge("b", "c")
        model.add_edge("c", "a")
        ranks = model.compute()
        assert ranks["a"] == pytest.approx(ranks["b"])
        assert ranks["b"] == pytest.approx(ranks["c"])

    def test_authority_concentrates_on_popular_node(self):
        model = PageRankModel()
        for source in ["a", "b", "c", "d"]:
            model.add_edge(source, "hub")
        ranks = model.compute()
        assert ranks["hub"] == max(ranks.values())

    def test_dangling_nodes_handled(self):
        model = PageRankModel()
        model.add_edge("a", "sink")  # sink has no outlinks
        ranks = model.compute()
        assert math.isclose(sum(ranks.values()), 1.0, rel_tol=1e-9)

    def test_converges_quickly(self):
        model = PageRankModel(tol=1e-10)
        for i in range(20):
            model.add_edge(f"n{i}", f"n{(i + 1) % 20}")
        model.compute()
        assert model.iterations_last_run < 200

    def test_self_loops_ignored(self):
        model = PageRankModel()
        model.add_edge("a", "a")
        model.add_edge("a", "b")
        ranks = model.compute()
        assert ranks["b"] > ranks["a"]


class TestFeedbackIntegration:
    def test_positive_feedback_creates_edge(self):
        model = PageRankModel()
        model.record(feedback(rater="u1", target="svc", rating=0.9))
        model.record(feedback(rater="u2", target="svc", rating=0.9))
        model.record(feedback(rater="u1", target="other", rating=0.1))
        assert model.score("svc") > model.score("other")

    def test_score_normalized_to_unit(self):
        model = PageRankModel()
        for i in range(5):
            model.record(feedback(rater=f"u{i}", target="svc", rating=0.9))
        assert model.score("svc") == 1.0  # the top-ranked node

    def test_empty_graph_scores_half(self):
        assert PageRankModel().score("anything") == 0.5

    def test_recording_invalidates_cache(self):
        model = PageRankModel()
        model.record(feedback(rater="u1", target="a", rating=0.9))
        first = model.score("a")
        for i in range(5):
            model.record(feedback(rater=f"v{i}", target="b", rating=0.9))
        assert model.score("b") >= first  # recomputed with new edges

    def test_damping_validation(self):
        with pytest.raises(ConfigurationError):
            PageRankModel(damping=1.0)
        with pytest.raises(ConfigurationError):
            PageRankModel(damping=0.0)


class TestIncrementalCache:
    """The warm-started vectorized engine must match the naive path."""

    def test_compute_matches_naive_interleaved(self):
        model = PageRankModel()
        nodes = [f"n{i}" for i in range(8)]
        for i in range(160):
            model.record(feedback(rater=nodes[i % 8],
                                  target=nodes[(i + 1 + i // 9) % 8],
                                  rating=(i % 10) / 10.0, time=float(i)))
            if i % 13 == 0:
                model.score(nodes[i % 8])  # exercise the warm start
        incremental = model.compute()
        naive = model.compute_naive()
        assert set(incremental) == set(naive)
        for node, rank in naive.items():
            assert incremental[node] == pytest.approx(rank, abs=1e-9)

    def test_duplicate_edges_not_reindexed(self):
        model = PageRankModel()
        for _ in range(5):
            model.add_edge("u", "v")
        model.compute()
        assert len(model._edge_pairs) == 1

    def test_queries_reuse_cached_vector(self):
        model = PageRankModel()
        model.record(feedback(rater="u1", target="a", rating=0.9))
        model.record(feedback(rater="u2", target="a", rating=0.9))
        calls = {"n": 0}
        original = model.compute

        def counting():
            calls["n"] += 1
            return original()

        model.compute = counting
        model.score("a")
        model.score("u1")
        model.score_many(["a", "u1", "never-seen"])
        assert calls["n"] == 1
        model.record(feedback(rater="u1", target="b", rating=0.9, time=50.0))
        model.score("b")
        assert calls["n"] == 2
