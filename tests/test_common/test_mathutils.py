"""Tests for repro.common.mathutils, incl. hypothesis properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.mathutils import (
    clamp,
    cosine_similarity,
    exponential_decay,
    normalize_weights,
    pearson_correlation,
    safe_mean,
    weighted_mean,
)


class TestClamp:
    def test_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_below(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0

    def test_above(self):
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_empty_interval_raises(self):
        with pytest.raises(ConfigurationError, match=r"clamp: low must be <= high"):
            clamp(0.5, 1.0, 0.0)

    @given(
        st.floats(-1e6, 1e6),
        st.floats(-100, 100),
        st.floats(0.001, 100),
    )
    def test_result_always_in_interval(self, value, low, width):
        high = low + width
        result = clamp(value, low, high)
        assert low <= result <= high


class TestSafeMean:
    def test_mean(self):
        assert safe_mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_default(self):
        assert safe_mean([], default=0.7) == 0.7

    def test_generator_input(self):
        assert safe_mean(x for x in [2.0, 4.0]) == 3.0


class TestWeightedMean:
    def test_basic(self):
        assert weighted_mean([1.0, 3.0], [1.0, 1.0]) == 2.0

    def test_weighting(self):
        assert weighted_mean([0.0, 1.0], [1.0, 3.0]) == 0.75

    def test_zero_weights_default(self):
        assert weighted_mean([1.0, 2.0], [0.0, 0.0], default=9.0) == 9.0

    def test_length_mismatch(self):
        with pytest.raises(
            ConfigurationError,
            match=r"weighted_mean: values and weights .* got 1 and 2",
        ):
            weighted_mean([1.0], [1.0, 2.0])

    def test_negative_weight_raises(self):
        with pytest.raises(
            ConfigurationError,
            match=r"weighted_mean: weights must be non-negative",
        ):
            weighted_mean([1.0], [-1.0])


class TestNormalizeWeights:
    def test_sums_to_one(self):
        out = normalize_weights({"a": 2.0, "b": 2.0})
        assert out == {"a": 0.5, "b": 0.5}

    def test_all_zero_becomes_uniform(self):
        out = normalize_weights({"a": 0.0, "b": 0.0})
        assert out == {"a": 0.5, "b": 0.5}

    def test_empty(self):
        assert normalize_weights({}) == {}

    def test_negative_raises(self):
        with pytest.raises(
            ConfigurationError,
            match=r"normalize_weights: weights must be non-negative",
        ):
            normalize_weights({"a": -1.0})

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=5),
            st.floats(0.0, 100.0),
            min_size=1,
            max_size=8,
        )
    )
    def test_property_sums_to_one(self, weights):
        out = normalize_weights(weights)
        assert math.isclose(sum(out.values()), 1.0, rel_tol=1e-9)


class TestExponentialDecay:
    def test_zero_age_is_one(self):
        assert exponential_decay(0.0, 10.0) == 1.0

    def test_half_life(self):
        assert math.isclose(exponential_decay(10.0, 10.0), 0.5)

    def test_monotone_decreasing(self):
        w = [exponential_decay(a, 5.0) for a in [0, 1, 2, 5, 10, 100]]
        assert w == sorted(w, reverse=True)

    def test_negative_age_is_one(self):
        assert exponential_decay(-5.0, 10.0) == 1.0

    def test_bad_half_life(self):
        with pytest.raises(
            ConfigurationError,
            match=r"exponential_decay: half_life must be positive, got 0.0",
        ):
            exponential_decay(1.0, 0.0)

    @given(st.floats(0, 1e4), st.floats(0.01, 1e4))
    def test_property_in_unit_interval(self, age, half_life):
        # Extreme age/half_life ratios may underflow to exactly 0.0.
        w = exponential_decay(age, half_life)
        assert 0.0 <= w <= 1.0


class TestPearson:
    def test_perfect_positive(self):
        assert math.isclose(
            pearson_correlation([1, 2, 3], [2, 4, 6]), 1.0
        )

    def test_perfect_negative(self):
        assert math.isclose(
            pearson_correlation([1, 2, 3], [6, 4, 2]), -1.0
        )

    def test_no_variance_is_none(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) is None

    def test_too_few_points(self):
        assert pearson_correlation([1], [2]) is None

    def test_length_mismatch(self):
        with pytest.raises(
            ConfigurationError,
            match=r"pearson_correlation: xs and ys .* got 2 and 1",
        ):
            pearson_correlation([1, 2], [1])

    @given(
        st.lists(st.floats(-100, 100), min_size=2, max_size=20),
    )
    def test_property_bounded(self, xs):
        ys = [x * 0.5 + 1 for x in xs]
        r = pearson_correlation(xs, ys)
        if r is not None:
            assert -1.0 <= r <= 1.0


class TestCosine:
    def test_identical_direction(self):
        assert math.isclose(cosine_similarity([1, 2], [2, 4]), 1.0)

    def test_orthogonal(self):
        assert math.isclose(cosine_similarity([1, 0], [0, 1]), 0.0)

    def test_zero_vector_is_none(self):
        assert cosine_similarity([0, 0], [1, 2]) is None

    def test_empty_is_none(self):
        assert cosine_similarity([], []) is None

    def test_length_mismatch(self):
        with pytest.raises(
            ConfigurationError,
            match=r"cosine_similarity: xs and ys .* got 1 and 2",
        ):
            cosine_similarity([1], [1, 2])
