"""Tests for the ReputationModel base-class defaults."""

import importlib
import pkgutil
from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.models.base import ReputationModel
from repro.models.liu_ngu_zeng import LiuNguZengModel

from tests.conftest import feedback


class FixedScores(ReputationModel):
    """Minimal model: scores from a dict, records counted."""

    name = "fixed"

    def __init__(self, scores):
        self.scores = scores
        self.recorded = []

    def record(self, fb) -> None:
        self.recorded.append(fb)

    def score(self, target: EntityId, perspective=None,
              now: Optional[float] = None) -> float:
        return self.scores.get(target, 0.5)


class TestBaseDefaults:
    def test_record_many(self):
        model = FixedScores({})
        model.record_many([feedback(), feedback(rater="c1")])
        assert len(model.recorded) == 2

    def test_rank_sorted_desc_with_deterministic_ties(self):
        model = FixedScores({"a": 0.5, "b": 0.9, "c": 0.5})
        ranking = model.rank(["c", "a", "b"])
        assert ranking == [("b", 0.9), ("a", 0.5), ("c", 0.5)]

    def test_best(self):
        model = FixedScores({"a": 0.2, "b": 0.7})
        assert model.best(["a", "b"]) == "b"
        assert model.best([]) is None

    def test_rank_empty(self):
        assert FixedScores({}).rank([]) == []

    def test_repr(self):
        assert "FixedScores" in repr(FixedScores({}))


#: ids whose string order differs from their numeric order, and scores
#: rich in ties, signed zeros included
RANK_IDS = ["a", "b", "c", "svc-10", "svc-2", "svc-9"]
RANK_SCORES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


def _by_negated_score_then_id(ranking):
    """The documented ranking order, as a plain sort of the objects."""
    return sorted(ranking, key=lambda entry: (-entry[1], entry[0]))


def _exact(ranking):
    """Targets and score reprs, so 0.0 and -0.0 differ."""
    return [(target, repr(score)) for target, score in ranking]


class TestRankOrder:
    """Every ranking is (-score, target) order: ties by id, duplicates
    kept, signed zeros untouched."""

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.dictionaries(st.sampled_from(RANK_IDS), RANK_SCORES),
        picks=st.lists(st.sampled_from(RANK_IDS + ["unscored"]), max_size=12),
        as_tuple=st.booleans(),
    )
    def test_rank_equals_sort_by_negated_score_then_id(
        self, scores, picks, as_tuple
    ):
        model = FixedScores(scores)
        ranking = model.rank(tuple(picks) if as_tuple else iter(picks))
        expected = _by_negated_score_then_id(
            [(c, float(model.score(c))) for c in picks]
        )
        assert _exact(ranking) == _exact(expected)
        assert all(type(entry) is tuple for entry in ranking)

    @settings(max_examples=100, deadline=None)
    @given(
        reports=st.lists(
            st.tuples(
                st.sampled_from(RANK_IDS),
                st.dictionaries(
                    st.sampled_from(["latency", "cost"]),
                    st.sampled_from([0.0, 0.5, 1.0]),
                    min_size=1,
                ),
            ),
            max_size=10,
        ),
        picks=st.lists(st.sampled_from(RANK_IDS), max_size=8),
        weighted=st.booleans(),
    )
    def test_liu_ngu_zeng_rank_uses_the_same_order(
        self, reports, picks, weighted
    ):
        """Liu-Ngu-Zeng ranks natively (candidate-relative scores) and
        must still order its result like every other model."""
        model = LiuNguZengModel()
        for t, (target, facets) in enumerate(reports):
            model.record(Feedback(rater="c0", target=target, time=float(t),
                                  rating=0.5, facet_ratings=facets))
        if weighted:
            model.set_preferences("c0", {"latency": 2.0, "cost": 1.0})
        ranking = model.rank(picks, "c0" if weighted else None)
        assert sorted(target for target, _ in ranking) == sorted(picks)
        assert _exact(ranking) == _exact(_by_negated_score_then_id(ranking))


def _unregistered_kernels(prefix: str, registered) -> List[str]:
    """The ReputationModel subclasses, found recursively, whose
    qualified name starts with *prefix* and that override score_many
    without being in *registered*."""
    classes, stack = [], [ReputationModel]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in classes:
                classes.append(sub)
                stack.append(sub)
    return sorted(
        f"{cls.__module__}.{cls.__qualname__}"
        for cls in classes
        if f"{cls.__module__}.{cls.__qualname__}".startswith(prefix)
        and "score_many" in vars(cls)
        and cls not in registered
    )


class UnregisteredKernel(FixedScores):
    def score_many(self, targets, perspective=None, now=None):
        return [0.5 for _ in targets]


class RegisteredKernel(FixedScores):
    def score_many(self, targets, perspective=None, now=None):
        return [0.5 for _ in targets]


class ScalarOnly(FixedScores):
    """No override: the base loop the suites already cover."""


class TestBatchKernelsRegistered:
    """Every score_many override is a registered model, so the batch ==
    scalar suites, which parametrise over the registry's names, run
    its kernel."""

    def test_every_repro_override_is_registered(self):
        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith(".__main__"):
                importlib.import_module(module.name)
        registry = default_registry(rng_seed=0)
        registered = {type(registry.create(n)) for n in registry.names()}
        assert _unregistered_kernels("repro.", registered) == []
        # the walk must reach the zoo's kernels, not pass vacuously
        assert len(_unregistered_kernels("repro.", set())) >= 14

    def test_unregistered_override_flagged(self):
        assert _unregistered_kernels(__name__, {RegisteredKernel}) == [
            f"{__name__}.UnregisteredKernel"
        ]

    def test_registered_and_scalar_models_pass(self):
        flagged = _unregistered_kernels(__name__, {RegisteredKernel})
        assert f"{__name__}.RegisteredKernel" not in flagged
        assert f"{__name__}.ScalarOnly" not in flagged
