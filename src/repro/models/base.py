"""The common interface every surveyed system implements.

A :class:`ReputationModel` consumes :class:`~repro.common.records.Feedback`
through :meth:`record` and answers score queries through :meth:`score`.
Personalized systems use the *perspective* argument (whose opinion is
being asked); global systems ignore it.  Scores are always on ``[0, 1]``
so models are directly comparable in the typology benchmark.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import numpy as np
from numpy.typing import ArrayLike

from repro.common.ids import EntityId
from repro.common.records import Feedback
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # imported lazily to avoid a core <-> models cycle
    from repro.core.typology import Typology


@dataclass(frozen=True)
class ScoredTarget:
    """One ranked candidate."""

    target: EntityId
    score: float


def check_unit_ratings(ratings: ArrayLike) -> None:
    """Raise the :class:`ValueError` a :class:`Feedback` raises, for the
    first rating outside ``[0, 1]`` (NaN included)."""
    values = np.asarray(ratings, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        rating = float(values[int(np.argmax(bad))])
        raise ValueError(f"rating must be in [0, 1], got {rating}")


class ReputationModel(abc.ABC):
    """Base class for trust and reputation mechanisms.

    Class attributes:
        name: registry key (snake_case).
        typology: the system's Figure 4 classification.
        paper_ref: citation bracket from the survey's reference list.
    """

    name: str = "abstract"
    typology: Optional["Typology"] = None
    paper_ref: str = ""

    @abc.abstractmethod
    def record(self, feedback: Feedback) -> None:
        """Ingest one feedback report."""

    @abc.abstractmethod
    def score(
        self,
        target: EntityId,
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> float:
        """Reputation/trust of *target* on ``[0, 1]``.

        Args:
            target: the entity being scored.
            perspective: the asking member, for personalized systems.
            now: current simulation time, for decay-aware systems.

        Entities without any evidence score the model's prior (usually
        0.5 — maximal uncertainty).
        """

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        """Bulk-ingest feedback, equivalent to a :meth:`record` loop.

        Store-backed models override this with a single columnar
        :meth:`~repro.store.EventStore.extend`, which interns ids and
        seals chunks without a per-event Python frame; the resulting
        store is byte-identical to what looped appends produce.
        """
        for fb in feedbacks:
            self.record(fb)

    def ingest_columns(
        self,
        names: Sequence[EntityId],
        raters: ArrayLike,
        targets: ArrayLike,
        ratings: ArrayLike,
        times: ArrayLike,
    ) -> None:
        """Bulk-ingest overall ratings as code columns: row *i* is
        ``names[raters[i]]`` rating ``names[targets[i]]`` at ``times[i]``.

        This default decodes every row into a :class:`Feedback` (which
        checks the rating range) and calls :meth:`record_many` — the
        ground truth.  Models whose ``record_many`` is a plain store
        extend override it with
        :meth:`~repro.store.EventStore.extend_coded` after
        :func:`check_unit_ratings`; the parity suite pins the two
        together.
        """
        self.record_many(
            [
                Feedback(rater=names[r], target=names[t], time=tm, rating=v)
                for r, t, v, tm in zip(
                    np.asarray(raters).tolist(),
                    np.asarray(targets).tolist(),
                    np.asarray(ratings, dtype=np.float64).tolist(),
                    np.asarray(times, dtype=np.float64).tolist(),
                )
            ]
        )

    def score_many(
        self,
        targets: Sequence[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[float]:
        """Scores for *targets*, in order.

        Two paths coexist, and the parity suites pin them together to
        1e-9 under any record/query interleaving:

        1. **columnar kernel** — store-backed models override this with
           numpy reductions (bincount/lexsort) over the shared
           :class:`~repro.store.EventStore` snapshot, cached per store
           version;
        2. **base loop** — this default, one :meth:`score` call per
           target, the semantic ground truth.  Kernels whose
           vectorization preconditions fail call it directly (Sporas
           with coupled rater/target sets).
        """
        return [self.score(t, perspective, now) for t in targets]

    def rank(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> List[ScoredTarget]:
        """Candidates sorted best-first (ties broken by id for
        determinism).  Scoring goes through :meth:`score_many` so
        batched models pay their per-query overhead once per ranking."""
        candidates = list(candidates)
        rec = get_recorder()
        if rec.enabled:
            if now is not None:
                rec.advance(now)
            rec.observe(
                "model.rank.batch_size",
                len(candidates),
                labels=(self.name,),
                label_names=("model",),
            )
        scores = self.score_many(candidates, perspective, now)
        scored = [
            ScoredTarget(target=c, score=float(s))
            for c, s in zip(candidates, scores)
        ]
        scored.sort(key=lambda st: (-st.score, st.target))
        return scored

    def best(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> Optional[EntityId]:
        ranking = self.rank(candidates, perspective, now)
        return ranking[0].target if ranking else None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
