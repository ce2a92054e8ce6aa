"""Graceful degradation: stale caches with age-discounted confidence.

When the fresh reputation path is down (registry outage, overlay
partition, open circuit), crashing or returning nothing turns a
transient transport fault into a selection outage.  The survey's
dynamics argument (Section 3: old experiences lose relevance over time)
gives the principled alternative: serve the last known answer, but
*discount its confidence by its age* using the same
:class:`~repro.core.decay.DecayPolicy` machinery the reputation models
use for old ratings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # runtime imports are lazy to avoid package cycles:
    # repro.core and repro.models both (transitively) import the modules
    # that use these caches.
    from repro.core.decay import DecayPolicy
    from repro.models.base import ScoredTarget


@dataclass(frozen=True)
class StaleValue:
    """A cached value plus how much it should still be believed."""

    value: Any
    age: float
    confidence: float  # decay weight of the age, in [0, 1]


class StaleCache:
    """Last-known-good cache with decay-based confidence.

    Args:
        decay: maps entry age to a confidence in ``[0, 1]``; defaults to
            an exponential half-life of 20 time units.
        max_age: entries older than this are treated as missing (a hard
            floor under the smooth discount).
    """

    def __init__(
        self,
        decay: Optional["DecayPolicy"] = None,
        max_age: Optional[float] = None,
    ) -> None:
        if max_age is not None and max_age <= 0:
            raise ConfigurationError("max_age must be positive")
        if decay is None:
            from repro.core.decay import ExponentialDecay

            decay = ExponentialDecay(half_life=20.0)
        self.decay = decay
        self.max_age = max_age
        self._entries: Dict[Hashable, Tuple[Any, float]] = {}
        self.hits = 0
        self.misses = 0

    def put(self, key: Hashable, value: Any, now: float) -> None:
        self._entries[key] = (value, now)

    def get(self, key: Hashable, now: float) -> Optional[StaleValue]:
        """The cached value for *key*, or None when absent/too old."""
        stale = self._lookup(key, now)
        rec = get_recorder()
        if rec.enabled:
            rec.count(
                "degradation.stale_cache.hits"
                if stale is not None
                else "degradation.stale_cache.misses"
            )
        return stale

    def _lookup(self, key: Hashable, now: float) -> Optional[StaleValue]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        value, stored_at = entry
        age = max(0.0, now - stored_at)
        if self.max_age is not None and age > self.max_age:
            self.misses += 1
            return None
        confidence = self.decay.weight(age)
        if confidence <= 0.0:
            self.misses += 1
            return None
        self.hits += 1
        return StaleValue(value=value, age=age, confidence=confidence)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


def discounted_score(
    score: float, confidence: float, prior: float = 0.5
) -> float:
    """Shrink *score* toward *prior* as confidence decays.

    Full confidence returns the score unchanged; zero confidence returns
    the prior (maximal uncertainty), mirroring how models score targets
    with no evidence at all.
    """
    if not 0.0 <= confidence <= 1.0:
        raise ConfigurationError("confidence must be in [0, 1]")
    return prior + confidence * (score - prior)


class StaleRankingFallback(StaleCache):
    """Stale cache specialised for selection rankings.

    :class:`~repro.core.selection.SelectionEngine` remembers every
    successful ranking here; when the fresh scoring path raises, the
    engine recalls the last ranking with every score shrunk toward the
    0.5 prior by the entry's age confidence — degraded but still
    actionable, and honest about how much it still knows.
    """

    def remember(
        self, key: Hashable, ranking: Sequence[Tuple[str, float]], now: float
    ) -> None:
        self.put(key, tuple(ranking), now)

    def recall(
        self, key: Hashable, now: float, prior: float = 0.5
    ) -> "Optional[List[ScoredTarget]]":
        from repro.models.base import ScoredTarget

        stale = self.get(key, now)
        if stale is None:
            return None
        rec = get_recorder()
        if rec.enabled:
            rec.count("degradation.fallback.activations")
        # a remembered ranking holds ScoredTargets or plain pairs
        return [
            ScoredTarget(st[0], discounted_score(st[1], stale.confidence, prior))
            for st in stale.value
        ]
