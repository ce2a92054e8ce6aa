"""Figure 1's two usage scenarios as runnable simulations.

* **Direct selection (Figure 1A)** — consumers choose among redundant
  web services on the services' own QoS; each round every consumer
  selects, invokes, rates, and reports.
* **Mediated selection (Figure 1B)** — consumers choose an intermediary
  web service (e.g. a flight-booking site) to obtain a *general service*
  (the flight); the outcome — and therefore the sensible selection — is
  dominated by the general service's quality, with the intermediary's
  own QoS playing only a small part.

Both runners report ground-truth-aware metrics: how often consumers
picked the truly best option (accuracy) and how much quality they left
on the table (regret).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.mathutils import safe_mean
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback
from repro.core.selection import SelectionEngine, SelectionPolicy
from repro.models.base import ReputationModel
from repro.registry.uddi import UDDIRegistry
from repro.services.consumer import Consumer
from repro.services.general import IntermediaryService
from repro.services.invocation import InvocationEngine
from repro.services.provider import Service, TruthTable
from repro.services.qos import QoSTaxonomy


@dataclass
class ScenarioResult:
    """Outcome of a scenario run."""

    rounds: int
    selections: int
    optimal_selections: int
    regrets: List[float] = field(default_factory=list)
    #: accuracy per round (fraction of consumers choosing optimally)
    round_accuracy: List[float] = field(default_factory=list)
    selection_counts: Dict[EntityId, int] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        if self.selections == 0:
            return 0.0
        return self.optimal_selections / self.selections

    @property
    def mean_regret(self) -> float:
        return safe_mean(self.regrets)

    def tail_accuracy(self, fraction: float = 0.25) -> float:
        """Accuracy over the last *fraction* of rounds (post-learning)."""
        if not self.round_accuracy:
            return 0.0
        k = max(1, int(len(self.round_accuracy) * fraction))
        return safe_mean(self.round_accuracy[-k:])


class DirectSelectionScenario:
    """Figure 1A: repeated select-invoke-rate rounds on one category.

    Args:
        services: the redundant candidate services (same category).
        consumers: the consumer population.
        model: reputation mechanism under test.
        taxonomy: QoS metric set.
        policy: selection policy (engine default: greedy).
        round_length: simulation time per round.
        rate_providers: additionally file provider-targeted feedback
            (for provider-reputation experiments).
        optimality_tolerance: a choice counts as optimal when its true
            quality is within this of the best candidate's — services
            closer than the observation noise are indistinguishable in
            principle, so strict-argmax accuracy would only measure
            tie-breaking luck.
    """

    def __init__(
        self,
        services: "list[Service]",
        consumers: "list[Consumer]",
        model: ReputationModel,
        taxonomy: QoSTaxonomy,
        policy: Optional[SelectionPolicy] = None,
        round_length: float = 1.0,
        rate_providers: bool = False,
        optimality_tolerance: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        if not services:
            raise ConfigurationError("scenario needs services")
        if not consumers:
            raise ConfigurationError("scenario needs consumers")
        categories = {s.category for s in services}
        if len(categories) != 1:
            raise ConfigurationError(
                "direct scenario expects one service category, got "
                f"{sorted(categories)}"
            )
        self.category = categories.pop()
        self.services = {s.service_id: s for s in services}
        self.consumers = consumers
        self.model = model
        self.taxonomy = taxonomy
        self.round_length = round_length
        self.rate_providers = rate_providers
        if optimality_tolerance < 0:
            raise ConfigurationError("optimality_tolerance must be >= 0")
        self.optimality_tolerance = optimality_tolerance
        self.uddi = UDDIRegistry()
        for service in services:
            self.uddi.publish(service.description)
        self.engine = SelectionEngine(self.uddi, model, policy)
        self.invoker = InvocationEngine(taxonomy, rng=make_rng(rng))
        self.time = 0.0
        self._truth = TruthTable(list(self.services.values()))
        self._index = {sid: j for j, sid in enumerate(self._truth.ids)}

    def true_quality(self, service_id: EntityId, consumer: Consumer) -> float:
        """Ground-truth quality of a service for one consumer, now."""
        _, quals = self._truth.row(
            self.time, consumer.preferences.weights, consumer.segment
        )
        return quals[self._index[service_id]]

    def optimal_for(self, consumer: Consumer) -> EntityId:
        """The truly best service for *consumer* at the current time."""
        best, _ = self._truth.row(
            self.time, consumer.preferences.weights, consumer.segment
        )
        return self._truth.ids[best]

    def run_round(self, result: ScenarioResult) -> None:
        accurate = 0
        for consumer in self.consumers:
            chosen = self.engine.select(
                self.category, consumer.consumer_id, now=self.time
            )
            assert chosen is not None
            optimal = self.optimal_for(consumer)
            chosen_quality = self.true_quality(chosen, consumer)
            optimal_quality = self.true_quality(optimal, consumer)
            result.selections += 1
            result.selection_counts[chosen] = (
                result.selection_counts.get(chosen, 0) + 1
            )
            if chosen == optimal or (
                optimal_quality - chosen_quality <= self.optimality_tolerance
            ):
                result.optimal_selections += 1
                accurate += 1
            result.regrets.append(optimal_quality - chosen_quality)
            interaction = self.invoker.invoke(
                consumer, self.services[chosen], self.time
            )
            feedback = consumer.rate(interaction, self.taxonomy)
            self.model.record(feedback)
            if self.rate_providers:
                provider_fb = consumer.rate_provider(
                    feedback, interaction.provider
                )
                self.model.record(provider_fb)
        result.round_accuracy.append(accurate / len(self.consumers))
        self.time += self.round_length

    def run(self, rounds: int) -> ScenarioResult:
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        result = ScenarioResult(rounds=rounds, selections=0, optimal_selections=0)
        for _ in range(rounds):
            self.run_round(result)
        return result


class MediatedSelectionScenario:
    """Figure 1B: select an intermediary, consume a general service.

    Each round a consumer selects an intermediary via the reputation
    mechanism, books the intermediary's best-matching general service,
    and rates the intermediary by the *perceived* outcome — which is
    dominated by the general service's quality.
    """

    def __init__(
        self,
        intermediaries: "list[IntermediaryService]",
        consumers: "list[Consumer]",
        model: ReputationModel,
        taxonomy: QoSTaxonomy,
        policy: Optional[SelectionPolicy] = None,
        round_length: float = 1.0,
        optimality_tolerance: float = 0.02,
        rng: RngLike = None,
    ) -> None:
        if not intermediaries:
            raise ConfigurationError("scenario needs intermediaries")
        if not consumers:
            raise ConfigurationError("scenario needs consumers")
        categories = {i.service.category for i in intermediaries}
        if len(categories) != 1:
            raise ConfigurationError(
                "mediated scenario expects one category, got "
                f"{sorted(categories)}"
            )
        self.category = categories.pop()
        if optimality_tolerance < 0:
            raise ConfigurationError("optimality_tolerance must be >= 0")
        self.optimality_tolerance = optimality_tolerance
        self.intermediaries = {i.service_id: i for i in intermediaries}
        self.consumers = consumers
        self.model = model
        self.taxonomy = taxonomy
        self.round_length = round_length
        self.uddi = UDDIRegistry()
        for intermediary in intermediaries:
            self.uddi.publish(intermediary.service.description)
        self.engine = SelectionEngine(self.uddi, model, policy)
        self.invoker = InvocationEngine(taxonomy, rng=make_rng(rng))
        self.time = 0.0

    def achievable_quality(
        self, intermediary_id: EntityId, consumer: Consumer
    ) -> float:
        """Best perceived quality this intermediary can deliver now."""
        intermediary = self.intermediaries[intermediary_id]
        w = intermediary.intermediary_weight
        own = intermediary.service.true_overall(
            self.time, consumer.preferences.weights, consumer.segment
        )
        best_general = intermediary.best_general(consumer.segment)
        return w * own + (1.0 - w) * best_general.overall(consumer.segment)

    def optimal_for(self, consumer: Consumer) -> EntityId:
        return max(
            self.intermediaries,
            key=lambda iid: (self.achievable_quality(iid, consumer), iid),
        )

    def run(self, rounds: int) -> ScenarioResult:
        if rounds < 1:
            raise ConfigurationError("rounds must be >= 1")
        result = ScenarioResult(rounds=rounds, selections=0, optimal_selections=0)
        for _ in range(rounds):
            accurate = 0
            for consumer in self.consumers:
                chosen = self.engine.select(
                    self.category, consumer.consumer_id, now=self.time
                )
                assert chosen is not None
                optimal = self.optimal_for(consumer)
                chosen_quality = self.achievable_quality(chosen, consumer)
                optimal_quality = self.achievable_quality(optimal, consumer)
                result.selections += 1
                result.selection_counts[chosen] = (
                    result.selection_counts.get(chosen, 0) + 1
                )
                if chosen == optimal or (
                    optimal_quality - chosen_quality
                    <= self.optimality_tolerance
                ):
                    result.optimal_selections += 1
                    accurate += 1
                result.regrets.append(optimal_quality - chosen_quality)
                intermediary = self.intermediaries[chosen]
                general = intermediary.best_general(consumer.segment)
                outcome = intermediary.book(
                    consumer, general.general_id, self.invoker, self.time
                )
                feedback = Feedback(
                    rater=consumer.consumer_id,
                    target=chosen,
                    time=self.time,
                    rating=outcome.perceived_quality,
                    facet_ratings=dict(outcome.intermediary_facets),
                    interaction=outcome.interaction,
                )
                self.model.record(feedback)
            result.round_accuracy.append(accurate / len(self.consumers))
            self.time += self.round_length
        return result
