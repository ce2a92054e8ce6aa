"""The selection engine: discovery + reputation + choice.

Ties the pieces together the way Figure 2 describes: discover candidate
services from a :class:`~repro.registry.uddi.UDDIRegistry` by category,
score them with any :class:`~repro.models.base.ReputationModel` (from
the asking consumer's perspective when the model is personalized), and
pick via a :class:`SelectionPolicy`.

Pure reputation-greedy selection starves unexplored services of the
chance to earn reputation; the exploration policies (ε-greedy, softmax)
are the standard remedies and are what the benchmarks use.
"""

from __future__ import annotations

import abc
import math
from typing import List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError, ReproError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.faults.degradation import StaleRankingFallback
from repro.models.base import ReputationModel
from repro.obs.recorder import get_recorder
from repro.registry.uddi import UDDIRegistry

#: ``(target, score)`` pairs, best first
Ranking = Sequence[Tuple[EntityId, float]]


class SelectionPolicy(abc.ABC):
    """Chooses one candidate from a scored ranking."""

    @abc.abstractmethod
    def choose(self, ranking: Ranking) -> EntityId:
        """Pick one target from a non-empty, best-first ranking."""


class GreedyPolicy(SelectionPolicy):
    """Always the top-scored candidate (deterministic)."""

    def choose(self, ranking: Ranking) -> EntityId:
        if not ranking:
            raise ConfigurationError("empty ranking")
        return ranking[0][0]


class EpsilonGreedyPolicy(SelectionPolicy):
    """Top candidate with probability 1-ε, uniform otherwise.

    Candidates tied at the top score are chosen among uniformly —
    deterministic lexicographic tie-breaking would systematically
    starve every tied candidate but one of the chance to earn evidence.
    """

    def __init__(self, epsilon: float = 0.1, rng: RngLike = None) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = make_rng(rng)

    def choose(self, ranking: Ranking) -> EntityId:
        if not ranking:
            raise ConfigurationError("empty ranking")
        if len(ranking) > 1 and self._rng.random() < self.epsilon:
            index = int(self._rng.integers(0, len(ranking)))
            return ranking[index][0]
        top_score = ranking[0][1]
        tied = [target for target, score in ranking
                if score >= top_score - 1e-12]
        if len(tied) == 1:
            return tied[0]
        index = int(self._rng.integers(0, len(tied)))
        return tied[index]


class SoftmaxPolicy(SelectionPolicy):
    """Boltzmann exploration: P(i) ∝ exp(score_i / temperature)."""

    def __init__(self, temperature: float = 0.1, rng: RngLike = None) -> None:
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        self.temperature = temperature
        self._rng = make_rng(rng)

    def choose(self, ranking: Ranking) -> EntityId:
        if not ranking:
            raise ConfigurationError("empty ranking")
        peak = max(score for _, score in ranking)
        weights = [
            math.exp((score - peak) / self.temperature)
            for _, score in ranking
        ]
        total = sum(weights)
        draw = float(self._rng.random()) * total
        cumulative = 0.0
        for (target, _), weight in zip(ranking, weights):
            cumulative += weight
            if draw <= cumulative:
                return target
        return ranking[-1][0]


class SelectionEngine:
    """Automatic run-time web service selection (the paper's Q1).

    Args:
        registry: functional discovery (UDDI analogue).
        model: reputation mechanism scoring the candidates.
        policy: how the ranking becomes a choice.
        fallback: optional stale-ranking cache; when the scoring path
            raises a library error (registry outage, overlay partition,
            open circuit), the engine serves the last good ranking with
            age-discounted scores instead of propagating the failure.
    """

    def __init__(
        self,
        registry: UDDIRegistry,
        model: ReputationModel,
        policy: Optional[SelectionPolicy] = None,
        fallback: Optional[StaleRankingFallback] = None,
    ) -> None:
        self.registry = registry
        self.model = model
        self.policy = policy or GreedyPolicy()
        self.fallback = fallback
        self.selections_made = 0
        self.degraded_selections = 0
        self.failed_selections = 0
        #: category -> (registry version, service ids); discovery results
        #: are reused until the registry catalogue actually changes
        self._candidate_cache: dict = {}

    def candidates(self, category: str) -> Tuple[EntityId, ...]:
        """Service ids matching *category* in the registry.

        Cached per category against the registry's version counter, so
        the per-selection cost is one dict probe instead of a full
        catalogue scan until something is published or unpublished.
        The ids are an immutable tuple, so the cache hands out its own
        copy.
        """
        version = getattr(self.registry, "version", None)
        failed = getattr(self.registry, "is_failed", False)
        rec = get_recorder()
        if version is not None and not failed:
            # A down registry must still raise (the fallback machinery
            # depends on it), so the cache only answers healthy lookups.
            cached = self._candidate_cache.get(category)
            if cached is not None and cached[0] == version:
                if rec.enabled:
                    rec.count("selection.candidates.cache_hits")
                return cached[1]
        if rec.enabled:
            rec.count("selection.candidates.cache_misses")
        ids = tuple(d.service for d in self.registry.search(category))
        if version is not None:
            self._candidate_cache[category] = (version, ids)
        return ids

    def rank(
        self,
        category: str,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[Tuple[EntityId, float]]:
        """Batch-score the discovered candidates via the model's
        :meth:`~repro.models.base.ReputationModel.rank` (one
        ``score_many`` call, not one ``score`` per candidate), as plain
        ``(target, score)`` pairs best first."""
        targets = self.candidates(category)
        rec = get_recorder()
        if rec.enabled:
            start = rec.now if now is None else float(now)
            ranking = self.model.rank(targets, perspective, now)
            # Rank latency in *sim* time: how stale the scores were when
            # the selection landed, not how long the CPU took.
            rec.span(
                "selection.rank",
                time=start,
                duration=max(rec.now - start, 0.0),
                attrs={
                    "model": self.model.name,
                    "candidates": len(targets),
                    "category": category,
                },
            )
            return ranking
        return self.model.rank(targets, perspective, now)

    def select(
        self,
        category: str,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> Optional[EntityId]:
        """Choose a service for *category*; None when none published.

        With a :attr:`fallback` configured, a scoring failure degrades
        to the last cached ranking (scores shrunk toward the 0.5 prior
        by their age confidence) instead of raising; when there is no
        usable cache entry either, the failure counts in
        :attr:`failed_selections` and None is returned.
        """
        key = (category, perspective)
        try:
            ranking = self.rank(category, perspective, now)
        except ReproError:
            if self.fallback is None:
                raise
            ranking = self.fallback.recall(key, now or 0.0)
            rec = get_recorder()
            if not ranking:
                self.failed_selections += 1
                if rec.enabled:
                    rec.count("selection.failed")
                return None
            self.degraded_selections += 1
            if rec.enabled:
                rec.count("selection.degraded")
        else:
            if self.fallback is not None and ranking:
                self.fallback.remember(key, ranking, now or 0.0)
        if not ranking:
            return None
        self.selections_made += 1
        return self.policy.choose(ranking)
