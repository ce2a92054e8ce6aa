"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import os
import random
from typing import List

import pytest

from repro.common.records import Feedback
from repro.experiments.workloads import World, make_world
from repro.services.qos import DEFAULT_METRICS, QoSTaxonomy, w3c_taxonomy

# -- global_random_seed (scikit-learn's rotating-seed idiom) -----------
#
# Parity/property suites that accept this fixture must pass for *any*
# seed in [0, 99].  Which seeds actually run is controlled by the
# REPRO_TESTS_GLOBAL_RANDOM_SEED environment variable:
#
#   REPRO_TESTS_GLOBAL_RANDOM_SEED="42"      run with seed 42
#   REPRO_TESTS_GLOBAL_RANDOM_SEED="40-42"   run seeds 40, 41 and 42
#   REPRO_TESTS_GLOBAL_RANDOM_SEED="any"     a random seed per run
#   REPRO_TESTS_GLOBAL_RANDOM_SEED="all"     every seed in [0, 99] (slow)
#
# Unset, the seed is the fixed _DEFAULT_SEED, so a test's id (which
# carries the seed, e.g. ``[81-beta]``) names the same test on every
# day and a recorded list of passing ids stays comparable.  CI's test
# job exports a date-derived seed to rotate coverage across days.

_SEED_ENV = "REPRO_TESTS_GLOBAL_RANDOM_SEED"
_DEFAULT_SEED = 81


def _parse_seed_spec() -> List[int]:
    spec = os.environ.get(_SEED_ENV)
    if spec is None:
        return [_DEFAULT_SEED]
    if spec == "any":
        return [random.randint(0, 99)]
    if spec == "all":
        return list(range(100))
    if "-" in spec:
        lo, hi = spec.split("-")
        seeds = list(range(int(lo), int(hi) + 1))
    else:
        seeds = [int(spec)]
    if any(seed < 0 or seed > 99 for seed in seeds):
        raise ValueError(
            f"{_SEED_ENV}={spec!r} is out of range: seeds must be in [0, 99]"
        )
    return seeds


_random_seeds = _parse_seed_spec()


def pytest_report_header() -> str:
    return (
        f"{_SEED_ENV}={_random_seeds} "
        f"(set {_SEED_ENV}=<int in [0, 99] | a-b | any | all> to override)"
    )


@pytest.fixture(params=_random_seeds)
def global_random_seed(request: pytest.FixtureRequest) -> int:
    """A seed in [0, 99]; tests using it must pass for every value."""
    seed: int = request.param
    return seed


@pytest.fixture
def taxonomy() -> QoSTaxonomy:
    """The compact 6-metric working set."""
    return DEFAULT_METRICS


@pytest.fixture
def full_taxonomy() -> QoSTaxonomy:
    """The full 23-metric W3C taxonomy (Figure 3)."""
    return w3c_taxonomy()


def feedback(
    rater: str = "c0",
    target: str = "svc",
    time: float = 0.0,
    rating: float = 0.8,
    facets: dict = None,
) -> Feedback:
    """Terse feedback constructor for tests."""
    return Feedback(
        rater=rater,
        target=target,
        time=time,
        rating=rating,
        facet_ratings=facets or {},
    )


def feedback_series(
    target: str,
    ratings: List[float],
    rater_prefix: str = "c",
    start_time: float = 0.0,
) -> List[Feedback]:
    """One feedback per rating, distinct raters, increasing times."""
    return [
        feedback(
            rater=f"{rater_prefix}{i}",
            target=target,
            time=start_time + i,
            rating=r,
        )
        for i, r in enumerate(ratings)
    ]


@pytest.fixture
def small_world() -> World:
    """A small deterministic world for integration-style tests."""
    return make_world(
        n_providers=4,
        services_per_provider=1,
        n_consumers=8,
        seed=7,
        quality_spread=0.3,
    )
