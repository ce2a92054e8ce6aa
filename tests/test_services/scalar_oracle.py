"""The scalar observation path: the oracle for the batched draws.

These are the one-draw-per-metric implementations that the batched
``QoSProfile.sample``, ``quality_scores``, ``Consumer.rate`` noise and
the per-round :class:`~repro.services.provider.TruthTable` replaced,
kept verbatim (as free functions taking ``self``) so the tests can
assert the new path is bit-identical to them.  :func:`installed`
monkeypatches all of them back in at once.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

import pytest

from repro.common.mathutils import clamp
from repro.common.randomness import RngLike, make_rng
from repro.common.records import Feedback, Interaction
from repro.services import consumer as consumer_module
from repro.services import general as general_module
from repro.services.consumer import Consumer
from repro.services.provider import TruthTable
from repro.services.qos import QoSProfile, QoSTaxonomy


def overall(
    self: QoSProfile,
    weights: Optional[Mapping[str, float]] = None,
    segment: Optional[int] = None,
) -> float:
    names = self.metrics()
    if not names:
        return 0.0
    if weights is None:
        return sum(self.true_quality(n, segment) for n in names) / len(names)
    total = sum(max(weights.get(n, 0.0), 0.0) for n in names)
    if total <= 0:
        return overall(self, None, segment)
    return (
        sum(
            self.true_quality(n, segment) * max(weights.get(n, 0.0), 0.0)
            for n in names
        )
        / total
    )


def sample(
    self: QoSProfile,
    taxonomy: QoSTaxonomy,
    rng: RngLike = None,
    segment: Optional[int] = None,
) -> Dict[str, float]:
    gen = make_rng(rng)
    observations: Dict[str, float] = {}
    for name in self.quality:
        q = self.true_quality(name, segment)
        noisy = clamp(q + float(gen.normal(0.0, self.noise)), 0.0, 1.0)
        observations[name] = taxonomy.get(name).denormalize(noisy)
    return observations


def quality_scores(
    interaction: Interaction, taxonomy: QoSTaxonomy
) -> Dict[str, float]:
    return {
        name: taxonomy.get(name).normalize(raw)
        for name, raw in interaction.observations.items()
        if name in taxonomy
    }


def rate(
    self: Consumer, interaction: Interaction, taxonomy: QoSTaxonomy
) -> Feedback:
    if not interaction.success:
        honest: Dict[str, float] = {}
        filed = self.rating_strategy(self, interaction, honest)
        overall_ = self.preferences.overall(filed) if filed else 0.0
        return Feedback(
            rater=self.consumer_id,
            target=interaction.service,
            time=interaction.time,
            rating=clamp(overall_, 0.0, 1.0),
            facet_ratings=filed,
            interaction=interaction,
        )
    honest = quality_scores(interaction, taxonomy)
    if self.rating_noise > 0:
        honest = {
            m: clamp(s + float(self._rng.normal(0.0, self.rating_noise)), 0.0, 1.0)
            for m, s in honest.items()
        }
    filed = self.rating_strategy(self, interaction, dict(honest))
    filed = {m: clamp(v, 0.0, 1.0) for m, v in filed.items()}
    overall_ = self.preferences.overall(filed)
    return Feedback(
        rater=self.consumer_id,
        target=interaction.service,
        time=interaction.time,
        rating=clamp(overall_, 0.0, 1.0),
        facet_ratings=filed,
        interaction=interaction,
    )


def row(
    self: TruthTable,
    time: float,
    weights: Mapping[str, float],
    segment: Optional[int],
    key: Optional[Hashable] = None,
) -> Tuple[int, List[float]]:
    """No cache: every call recomputes the truth of every candidate."""
    quals = [svc.true_overall(time, weights, segment) for svc in self.services]
    best = max(range(len(quals)), key=lambda x: (quals[x], self.ids[x]))
    return best, quals


@contextlib.contextmanager
def installed() -> Iterator[None]:
    """Run the block on the scalar path instead of the batched one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QoSProfile, "overall", overall)
        mp.setattr(QoSProfile, "sample", sample)
        mp.setattr(consumer_module, "quality_scores", quality_scores)
        mp.setattr(general_module, "quality_scores", quality_scores)
        mp.setattr(Consumer, "rate", rate)
        mp.setattr(TruthTable, "row", row)
        yield
