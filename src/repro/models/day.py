"""Day's autonomic selection framework — centralized / resource /
personalized.

Day's thesis (University of Saskatchewan, 2005) proposes two selection
algorithms the survey highlights:

* a **rule-based expert system** — IF-THEN rules over per-facet
  reputation with certainty factors, combined MYCIN-style, and
* a **naive Bayes classifier** — predicts whether a service will be
  satisfactory from its discretized facet reputations, trained on the
  consumer's labelled past selections.

Both score services from the same facet-reputation substrate (a
recency-weighted mean per facet, per service).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.records import Feedback
from repro.core.typology import Architecture, Scope, Subject, Typology
from repro.models.base import ReputationModel


class _FacetSubstrate:
    """Shared facet-reputation bookkeeping for both Day algorithms."""

    def __init__(self) -> None:
        #: service -> facet -> list of ratings
        self._facets: Dict[EntityId, Dict[str, List[float]]] = {}
        self._overall: Dict[EntityId, List[float]] = {}
        #: service -> (its report count, facet vector).  Every report
        #: appends one overall rating, so an unchanged count means
        #: unchanged facet lists
        self._vectors: Dict[EntityId, Tuple[int, Dict[str, float]]] = {}

    def add(self, feedback: Feedback) -> None:
        self._overall.setdefault(feedback.target, []).append(feedback.rating)
        facets = self._facets.setdefault(feedback.target, {})
        for facet, rating in feedback.facet_ratings.items():
            facets.setdefault(facet, []).append(rating)

    def facet_reputation(self, service: EntityId, facet: str) -> Optional[float]:
        ratings = self._facets.get(service, {}).get(facet)
        return safe_mean(ratings) if ratings else None

    def facet_vector(self, service: EntityId) -> Dict[str, float]:
        count = len(self._overall.get(service, ()))
        if not count:
            return {}
        hit = self._vectors.get(service)
        if hit is None or hit[0] != count:
            hit = (count, {
                facet: safe_mean(vals)
                for facet, vals in self._facets[service].items()
                if vals
            })
            self._vectors[service] = hit
        return dict(hit[1])  # rule conditions receive it; the memo's stays

    def overall(self, service: EntityId) -> Optional[float]:
        ratings = self._overall.get(service)
        return safe_mean(ratings) if ratings else None


@dataclass(frozen=True)
class Rule:
    """One expert-system rule with a certainty factor.

    ``condition`` receives the service's facet-reputation vector and
    returns whether the rule fires; ``certainty`` in ``[-1, 1]`` is the
    rule's evidence for (positive) or against (negative) selecting the
    service.
    """

    name: str
    condition: Callable[[Mapping[str, float]], bool]
    certainty: float

    def __post_init__(self) -> None:
        if not -1.0 <= self.certainty <= 1.0:
            raise ConfigurationError("certainty must be in [-1, 1]")


def threshold_rule(
    name: str, facet: str, minimum: float, certainty: float
) -> Rule:
    """Convenience: fires when ``facet`` reputation >= ``minimum``."""
    return Rule(
        name=name,
        condition=lambda facets: facets.get(facet, 0.0) >= minimum,
        certainty=certainty,
    )


def combine_certainty(cf1: float, cf2: float) -> float:
    """MYCIN certainty-factor combination."""
    if cf1 >= 0 and cf2 >= 0:
        return cf1 + cf2 * (1 - cf1)
    if cf1 < 0 and cf2 < 0:
        return cf1 + cf2 * (1 + cf1)
    return (cf1 + cf2) / (1 - min(abs(cf1), abs(cf2)))


class DayExpertSystem(ReputationModel):
    """Rule-based selection with MYCIN certainty combination.

    Without user-supplied rules a default rule set over common QoS
    facets is installed (good response time / reliability /
    availability support selection; bad reliability argues against).
    """

    name = "day"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[5, 6]"

    def __init__(self, rules: Optional[List[Rule]] = None) -> None:
        self._substrate = _FacetSubstrate()
        self.rules: List[Rule] = rules if rules is not None else [
            threshold_rule("fast", "response_time", 0.6, 0.5),
            threshold_rule("reliable", "reliability", 0.6, 0.5),
            threshold_rule("available", "availability", 0.6, 0.3),
            threshold_rule("accurate", "accuracy", 0.6, 0.4),
            threshold_rule("cheap", "cost", 0.6, 0.3),
            Rule(
                "unreliable",
                lambda f: f.get("reliability", 1.0) < 0.4,
                -0.7,
            ),
            Rule(
                "slow",
                lambda f: f.get("response_time", 1.0) < 0.3,
                -0.5,
            ),
        ]

    def add_rule(self, rule: Rule) -> None:
        self.rules.append(rule)

    def record(self, feedback: Feedback) -> None:
        self._substrate.add(feedback)

    def certainty(self, target: EntityId) -> float:
        """Combined certainty in ``[-1, 1]`` that *target* is suitable."""
        facets = self._substrate.facet_vector(target)
        if not facets:
            # No facet evidence: the overall reputation (when present)
            # acts as a single "suitable" pseudo-facet.
            overall = self._substrate.overall(target)
            if overall is None:
                return 0.0
            return 2.0 * overall - 1.0
        combined = 0.0
        for rule in self.rules:
            if rule.condition(facets):
                combined = combine_certainty(combined, rule.certainty)
        return combined

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        return (self.certainty(target) + 1.0) / 2.0


class DayNaiveBayes(ReputationModel):
    """Naive Bayes selection: P(satisfactory | discretized facets).

    Training examples come from feedback: the facet ratings are the
    features (discretized into ``bins`` levels) and the overall rating
    thresholded at ``label_threshold`` is the class label.
    """

    name = "day_naive_bayes"
    typology = Typology(
        Architecture.CENTRALIZED, Subject.RESOURCE, Scope.PERSONALIZED
    )
    paper_ref = "[5, 6]"

    def __init__(self, bins: int = 3, label_threshold: float = 0.5) -> None:
        if bins < 2:
            raise ConfigurationError("bins must be >= 2")
        if not 0.0 <= label_threshold <= 1.0:
            raise ConfigurationError("label_threshold must be in [0, 1]")
        self.bins = bins
        self.label_threshold = label_threshold
        self._substrate = _FacetSubstrate()
        #: class -> count
        self._class_counts: Dict[bool, int] = {True: 0, False: 0}
        #: (facet, bin, class) -> count
        self._feature_counts: Dict[Tuple[str, int, bool], int] = {}
        self._facet_names: set = set()

    def _bin(self, value: float) -> int:
        return min(self.bins - 1, int(value * self.bins))

    def record(self, feedback: Feedback) -> None:
        self._substrate.add(feedback)
        if not feedback.facet_ratings:
            return
        label = feedback.rating > self.label_threshold
        self._class_counts[label] += 1
        for facet, rating in feedback.facet_ratings.items():
            self._facet_names.add(facet)
            key = (facet, self._bin(rating), label)
            self._feature_counts[key] = self._feature_counts.get(key, 0) + 1

    def posterior(self, facet_vector: Mapping[str, float]) -> float:
        """P(satisfactory | facets) with Laplace smoothing."""
        n_pos = self._class_counts[True]
        n_neg = self._class_counts[False]
        total = n_pos + n_neg
        if total == 0:
            return 0.5
        log_pos = math.log((n_pos + 1.0) / (total + 2.0))
        log_neg = math.log((n_neg + 1.0) / (total + 2.0))
        for facet, value in facet_vector.items():
            if facet not in self._facet_names:
                continue
            b = self._bin(value)
            pos_count = self._feature_counts.get((facet, b, True), 0)
            neg_count = self._feature_counts.get((facet, b, False), 0)
            log_pos += math.log((pos_count + 1.0) / (n_pos + self.bins))
            log_neg += math.log((neg_count + 1.0) / (n_neg + self.bins))
        # Stable softmax over the two log-joints.
        peak = max(log_pos, log_neg)
        p_pos = math.exp(log_pos - peak)
        p_neg = math.exp(log_neg - peak)
        return p_pos / (p_pos + p_neg)

    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        facets = self._substrate.facet_vector(target)
        if not facets:
            # Untrained classifier or facet-less feedback: fall back to
            # the mean overall rating.
            overall = self._substrate.overall(target)
            return 0.5 if overall is None else overall
        return self.posterior(facets)
