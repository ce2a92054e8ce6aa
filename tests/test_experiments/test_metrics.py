"""Tests for experiment metrics."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.experiments.metrics import (
    kendall_tau,
    ranking_quality,
    score_mae,
    spearman_rho,
    top_k_precision,
)


class TestScoreMae:
    def test_exact_match(self):
        assert score_mae({"a": 0.5}, {"a": 0.5}) == 0.0

    def test_mean_error(self):
        assert score_mae(
            {"a": 0.5, "b": 0.9}, {"a": 0.7, "b": 0.5}
        ) == pytest.approx(0.3)

    def test_only_intersection_compared(self):
        assert score_mae({"a": 0.5, "x": 0.0}, {"a": 0.5, "y": 1.0}) == 0.0

    def test_no_overlap_is_nan_not_perfect(self):
        # 0.0 would read as "perfect estimates"; no overlap is "no data".
        assert math.isnan(score_mae({"x": 0.0}, {"y": 1.0}))

    def test_empty(self):
        assert math.isnan(score_mae({}, {"a": 1.0}))

    def test_empty_override(self):
        assert score_mae({}, {"a": 1.0}, empty=0.0) == 0.0


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_inverse(self):
        assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_nonlinear_monotone_still_one(self):
        assert spearman_rho([1, 2, 3], [1, 100, 10000]) == pytest.approx(1.0)

    def test_ties_averaged(self):
        rho = spearman_rho([1, 1, 2], [1, 2, 3])
        assert rho is not None and 0 < rho < 1

    def test_constant_is_none(self):
        assert spearman_rho([1, 1, 1], [1, 2, 3]) is None

    def test_too_short(self):
        assert spearman_rho([1], [2]) is None

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="spearman_rho: xs.*2 and 1"):
            spearman_rho([1, 2], [1])


class TestKendall:
    def test_perfect(self):
        assert kendall_tau([1, 2, 3], [4, 5, 6]) == pytest.approx(1.0)

    def test_inverse(self):
        assert kendall_tau([1, 2, 3], [6, 5, 4]) == pytest.approx(-1.0)

    def test_one_swap(self):
        assert kendall_tau([1, 2, 3], [2, 1, 3]) == pytest.approx(1 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="kendall_tau: xs.*1 and 2"):
            kendall_tau([1], [1, 2])


class TestTopKPrecision:
    def test_correct_leader(self):
        assert top_k_precision({"a": 0.9, "b": 0.1},
                               {"a": 0.8, "b": 0.2}) == 1.0

    def test_wrong_leader(self):
        assert top_k_precision({"a": 0.1, "b": 0.9},
                               {"a": 0.8, "b": 0.2}) == 0.0

    def test_top2_partial_overlap(self):
        estimated = {"a": 0.9, "b": 0.8, "c": 0.1}
        truth = {"a": 0.9, "b": 0.1, "c": 0.8}
        assert top_k_precision(estimated, truth, k=2) == 0.5

    def test_k_larger_than_universe(self):
        assert top_k_precision({"a": 0.5}, {"a": 0.7}, k=5) == 1.0

    def test_empty(self):
        assert top_k_precision({}, {"a": 1.0}) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ConfigurationError, match="top_k_precision: k.*0"):
            top_k_precision({"a": 0.5}, {"a": 0.5}, k=0)


class TestRankingQuality:
    def test_bundle(self):
        out = ranking_quality(
            {"a": 0.1, "b": 0.5, "c": 0.9},
            {"a": 0.2, "b": 0.6, "c": 0.8},
        )
        assert out["spearman"] == pytest.approx(1.0)
        assert out["kendall"] == pytest.approx(1.0)
        assert out["mae"] == pytest.approx(0.1, abs=0.05)
        assert out["top1"] == 1.0
