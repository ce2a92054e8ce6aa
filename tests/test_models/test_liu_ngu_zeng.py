"""Tests for the Liu, Ngu & Zeng QoS computation model."""

import pytest

from repro.common.errors import ConfigurationError
from repro.models.liu_ngu_zeng import LiuNguZengModel

from tests.conftest import feedback


def facet_fb(rater, target, facets, time=0.0):
    rating = sum(facets.values()) / len(facets)
    return feedback(rater=rater, target=target, time=time, rating=rating,
                    facets=facets)


def build_candidates(model):
    data = {
        "fast-pricey": {"speed": 0.9, "cost": 0.2},
        "slow-cheap": {"speed": 0.2, "cost": 0.9},
        "balanced": {"speed": 0.6, "cost": 0.6},
    }
    for svc, facets in data.items():
        for i in range(3):
            model.record(facet_fb(f"c{i}", svc, facets))
    return list(data)


class TestMatrixNormalization:
    def test_preferences_flip_the_winner(self):
        model = LiuNguZengModel()
        candidates = build_candidates(model)
        model.set_preferences("racer", {"speed": 1.0})
        model.set_preferences("saver", {"cost": 1.0})
        racer_rank = model.rank(candidates, perspective="racer")
        saver_rank = model.rank(candidates, perspective="saver")
        assert racer_rank[0][0] == "fast-pricey"
        assert saver_rank[0][0] == "slow-cheap"

    def test_normalization_is_relative_to_candidate_set(self):
        model = LiuNguZengModel()
        build_candidates(model)
        model.set_preferences("racer", {"speed": 1.0})
        # Within {slow-cheap, balanced}, balanced is the fastest and
        # must normalize to 1.0 on speed.
        ranking = model.rank(["slow-cheap", "balanced"], perspective="racer")
        assert ranking[0][0] == "balanced"
        assert ranking[0][1] == pytest.approx(1.0)

    def test_tied_column_contributes_half(self):
        model = LiuNguZengModel()
        for svc in ["a", "b"]:
            for i in range(2):
                model.record(facet_fb(f"c{i}", svc, {"same": 0.7}))
        ranking = model.rank(["a", "b"])
        assert ranking[0][1] == pytest.approx(0.5)
        assert ranking[1][1] == pytest.approx(0.5)

    def test_unreported_candidate_scores_prior(self):
        model = LiuNguZengModel()
        build_candidates(model)
        ranking = model.rank(["fast-pricey", "unknown-svc"])
        assert dict(ranking)["unknown-svc"] == 0.5


class TestPolicing:
    def test_min_reports_gate(self):
        model = LiuNguZengModel(min_reports=3)
        model.record(facet_fb("c0", "thin", {"speed": 0.9}))
        assert model.quality_row("thin") is None
        assert model.score("thin") == 0.5

    def test_freshness_window_drops_stale(self):
        model = LiuNguZengModel(freshness_window=10.0)
        model.record(facet_fb("c0", "svc", {"speed": 0.9}, time=0.0))
        model.record(facet_fb("c1", "svc", {"speed": 0.1}, time=95.0))
        row = model.quality_row("svc", now=100.0)
        assert row["speed"] == pytest.approx(0.1)

    def test_police_removes_permanently(self):
        model = LiuNguZengModel(freshness_window=10.0)
        model.record(facet_fb("c0", "svc", {"speed": 0.9}, time=0.0))
        model.record(facet_fb("c1", "svc", {"speed": 0.5}, time=95.0))
        removed = model.police(now=100.0)
        assert removed == 1
        # Even a query without `now` no longer sees the stale report.
        assert model.quality_row("svc")["speed"] == pytest.approx(0.5)

    def test_facetless_feedback_uses_overall(self):
        model = LiuNguZengModel()
        model.record(feedback(rater="c0", target="svc", rating=0.8))
        assert model.quality_row("svc") == {"overall": 0.8}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LiuNguZengModel(freshness_window=0.0)
        with pytest.raises(ConfigurationError):
            LiuNguZengModel(min_reports=0)
