"""Attack strategies: dishonest rating behaviours.

Each factory returns a
:class:`~repro.services.consumer.RatingStrategy` — a drop-in for the
honest strategy on any :class:`~repro.services.consumer.Consumer` — so
the same simulation code runs honest and adversarial populations.

Covered attacks:

* **badmouthing** — report victims' quality as terrible,
* **ballot stuffing** — report allies' quality as perfect,
* **collusion rings** — stuff allies *and* badmouth everyone else,
* **complementary lying** — always report the opposite of experience,
* **random lying** — unreliable rather than strategic raters.

Whitewashing and Sybil floods are identity-level attacks; helpers here
mint the extra identities, and experiments re-join them to the system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.common.errors import ConfigurationError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Interaction
from repro.services.consumer import Consumer, RatingStrategy


def _check_level(name: str, level: float) -> None:
    if not 0.0 <= level <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1], got {level}")


def _all_at(facet_scores: Dict[str, float], level: float) -> Dict[str, float]:
    return {facet: level for facet in facet_scores}


def badmouth_strategy(
    victims: Optional[Iterable[EntityId]] = None,
    low: float = 0.05,
) -> RatingStrategy:
    """Report *victims* (every target when None) as terrible."""
    _check_level("low", low)
    victim_set: Optional[Set[EntityId]] = (
        set(victims) if victims is not None else None
    )

    def strategy(
        consumer: Consumer,
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        if victim_set is None or interaction.service in victim_set:
            return _all_at(facet_scores, low)
        return facet_scores

    return strategy


def ballot_stuffing_strategy(
    allies: Iterable[EntityId],
    high: float = 0.95,
) -> RatingStrategy:
    """Report *allies* as excellent regardless of experience."""
    _check_level("high", high)
    ally_set = set(allies)
    if not ally_set:
        raise ConfigurationError("ballot stuffing needs at least one ally")

    def strategy(
        consumer: Consumer,
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        if interaction.service in ally_set:
            # Even failed invocations of allies are praised.
            if not facet_scores:
                return {"overall": high}
            return _all_at(facet_scores, high)
        return facet_scores

    return strategy


def collusion_strategy(
    allies: Iterable[EntityId],
    high: float = 0.95,
    low: float = 0.05,
) -> RatingStrategy:
    """The full ring: stuff allies, badmouth every competitor."""
    _check_level("high", high)
    _check_level("low", low)
    ally_set = set(allies)
    if not ally_set:
        raise ConfigurationError("collusion needs at least one ally")

    def strategy(
        consumer: Consumer,
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        if interaction.service in ally_set:
            if not facet_scores:
                return {"overall": high}
            return _all_at(facet_scores, high)
        return _all_at(facet_scores, low)

    return strategy


def complementary_liar_strategy() -> RatingStrategy:
    """Always report the complement of the honest experience."""

    def strategy(
        consumer: Consumer,
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        return {facet: 1.0 - s for facet, s in facet_scores.items()}

    return strategy


def random_liar_strategy(
    lie_probability: float = 0.5, rng: RngLike = None
) -> RatingStrategy:
    """Replace each report with uniform noise with some probability."""
    if not 0.0 <= lie_probability <= 1.0:
        raise ConfigurationError("lie_probability must be in [0, 1]")
    gen = make_rng(rng)

    def strategy(
        consumer: Consumer,
        interaction: Interaction,
        facet_scores: Dict[str, float],
    ) -> Dict[str, float]:
        if gen.random() >= lie_probability:
            return facet_scores
        return {facet: float(gen.random()) for facet in facet_scores}

    return strategy


@dataclass
class AttackPlan:
    """A population-level attack configuration.

    Attributes:
        liar_fraction: share of consumers given the dishonest strategy.
        strategy_factory: builds one strategy per liar (factories may
            close over shared state, e.g. a collusion ring's ally list).
        sybil_count: extra fake rater identities the attacker controls
            (each files the same dishonest reports).
        whitewash: liars re-join under fresh identities when caught
            (experiments interpret this flag).
    """

    liar_fraction: float = 0.0
    strategy_factory: Optional[object] = None
    sybil_count: int = 0
    whitewash: bool = False
    sybil_ids: List[EntityId] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0.0 <= self.liar_fraction <= 1.0:
            raise ConfigurationError("liar_fraction must be in [0, 1]")
        if self.sybil_count < 0:
            raise ConfigurationError("sybil_count must be >= 0")

    def liars_among(self, consumers: "list[Consumer]") -> List[Consumer]:
        """The deterministic liar subset (first k consumers by id)."""
        k = int(round(self.liar_fraction * len(consumers)))
        ordered = sorted(consumers, key=lambda c: c.consumer_id)
        return ordered[:k]

    def apply(self, consumers: "list[Consumer]") -> List[Consumer]:
        """Install the dishonest strategy on the liar subset.

        Returns the consumers chosen as liars.
        """
        if self.strategy_factory is None or self.liar_fraction <= 0:
            return []
        liars = self.liars_among(consumers)
        for liar in liars:
            liar.rating_strategy = self.strategy_factory()  # type: ignore[operator]
        return liars

    def mint_sybils(self, prefix: str = "sybil") -> List[EntityId]:
        """Create the attacker's fake rater identities."""
        self.sybil_ids = [f"{prefix}-{i:03d}" for i in range(self.sybil_count)]
        return list(self.sybil_ids)
