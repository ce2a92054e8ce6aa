"""The common interface every surveyed system implements.

A :class:`ReputationModel` consumes :class:`~repro.common.records.Feedback`
through :meth:`record` and answers score queries through :meth:`score`.
Personalized systems use the *perspective* argument (whose opinion is
being asked); global systems ignore it.  Scores are always on ``[0, 1]``
so models are directly comparable in the typology benchmark.
"""

from __future__ import annotations

import abc
import operator
from typing import (
    TYPE_CHECKING,
    Any,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from numpy.typing import ArrayLike

from repro.common.ids import EntityId
from repro.common.records import Feedback, feedback_columns
from repro.common.simtime import times_array
from repro.obs.recorder import get_recorder

if TYPE_CHECKING:  # imported lazily to avoid a core <-> models cycle
    from repro.core.typology import Typology
    from repro.store import ColumnSet, EventStore


_TARGET = operator.itemgetter(0)
_SCORE = operator.itemgetter(1)
#: one store row as the scalar replays read it:
#: ``(rater, target, facet, value, time)``
Row = Tuple[int, int, int, float, float]


def ranked(
    candidates: Iterable[EntityId], scores: Iterable[float]
) -> List[Tuple[EntityId, float]]:
    """*candidates* paired with their *scores* as plain ``(target,
    score)`` tuples, best first, ties broken by id: the order of sorting
    by ``(-score, target)``, the one tie-break every ranking uses.

    Two stable sorts, by id and then by score descending, so equal
    scores (``0.0`` and ``-0.0`` included) keep id order.  The pairs
    come from one C-level ``zip`` and both keys are ``itemgetter``s,
    so no Python frame runs per candidate.
    """
    scored = list(zip(candidates, map(float, scores)))
    scored.sort(key=_TARGET)
    scored.sort(key=_SCORE, reverse=True)
    return scored


def check_unit_ratings(ratings: ArrayLike) -> None:
    """Raise the :class:`ValueError` a :class:`Feedback` raises, for the
    first rating outside ``[0, 1]`` (NaN included)."""
    values = np.asarray(ratings, dtype=np.float64)
    bad = ~((values >= 0.0) & (values <= 1.0))
    if bad.any():
        rating = float(values[int(np.argmax(bad))])
        raise ValueError(f"rating must be in [0, 1], got {rating}")


def fold_into(
    sums: Tuple[np.ndarray, ...],
    size: int,
    index: ArrayLike,
    *addends: ArrayLike,
) -> Tuple[np.ndarray, ...]:
    """*sums* grown with zeros to *size* slots, then ``addends[k]`` added
    into ``sums[k]`` at *index*: the one step of every O(Δ) fold.

    ``np.add.at`` is unbuffered and adds in row order, and ``bincount``
    over all rows adds the same weights in the same order from zero, so
    any chain of folds over consecutive row ranges is bitwise equal to
    one cold reduction.  Growth uses ``np.concatenate`` (``np.pad`` costs
    about ten times more per call), so the grown arrays are new objects.
    """
    grow = size - len(sums[0])
    if grow > 0:
        sums = tuple(
            np.concatenate((s, np.zeros(grow, dtype=s.dtype))) for s in sums
        )
    for kept, addend in zip(sums, addends):
        np.add.at(kept, index, addend)
    return sums


def sorted_union(
    universe: np.ndarray, keys: np.ndarray, aligned: Tuple[np.ndarray, ...]
) -> Tuple[np.ndarray, Tuple[np.ndarray, ...], np.ndarray]:
    """*keys* merged into the ascending key array *universe*, with a zero
    row inserted into each of the *aligned* arrays for every new key;
    also the position of each key in the merged universe.

    The universe stays in ascending key order — the order ``np.unique``
    gives a cold reduction — so sums taken over it in order are bitwise
    those of the cold path.
    """
    at = np.searchsorted(universe, keys)
    known = at < len(universe)
    known[known] = universe[at[known]] == keys[known]
    if known.all():
        return universe, aligned, at
    new = np.unique(keys[~known])
    slots = np.searchsorted(universe, new)
    universe = np.insert(universe, slots, new)
    aligned = tuple(np.insert(a, slots, 0, axis=0) for a in aligned)
    return universe, aligned, np.searchsorted(universe, keys)


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
    #: ``((scores token, candidates), ranking)`` of the last memoised
    #: :meth:`rank` call
    _rank_memo: Optional[
        Tuple[Tuple[Hashable, Sequence[EntityId]],
              List[Tuple[EntityId, float]]]
    ] = None

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

        :class:`StoreBackedModel` overrides this with a single columnar
        :meth:`~repro.store.EventStore.extend`, which interns ids and
        writes the columns without a per-event Python frame; the resulting
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
        ground truth.  :class:`StoreBackedModel` overrides it with
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

    def share_entities(self, store: "EventStore") -> bool:
        """Whether this model now codes entities in *store*'s table, so
        ``ingest_coded`` can take its code columns; by default not."""
        return False

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
           :class:`~repro.store.EventStore`, cached until new rows
           arrive or folding only the new rows into kept state;
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
    ) -> List[Tuple[EntityId, float]]:
        """Candidates as plain ``(target, score)`` pairs, best first,
        ties broken by id for determinism.  Scoring goes through
        :meth:`score_many` so batched models pay their per-query
        overhead once per ranking.

        A model whose :meth:`_scores_token` is not ``None`` keeps its
        last ranking of a candidate tuple (a list could change after it
        keyed the memo) and hands out a copy of it while the token and
        the candidates are equal: a rank between two writes sorts
        nothing."""
        is_tuple = isinstance(candidates, tuple)
        batch: Sequence[EntityId] = (
            candidates if is_tuple else list(candidates)
        )
        rec = get_recorder()
        if rec.enabled:
            if now is not None:
                rec.advance(now)
            rec.observe(
                "model.rank.batch_size",
                len(batch),
                labels=(self.name,),
                label_names=("model",),
            )
        token = self._scores_token() if is_tuple else None
        if token is None:
            return ranked(batch, self.score_many(batch, perspective, now))
        key = (token, batch)
        memo = self._rank_memo
        if memo is None or memo[0] != key:
            memo = self._rank_memo = (
                key, ranked(batch, self.score_many(batch, perspective, now))
            )
        return list(memo[1])

    def _scores_token(self) -> Hashable:
        """Hook: a value equal between two calls only while
        :meth:`score_many` returns the same scores for the same
        candidates, whatever the *perspective* and *now*; ``None``
        (the default) when there is no such value, which keeps
        :meth:`rank` from memoising.  A subclass that makes the
        scores depend on anything else overrides it again."""
        return None

    def best(
        self,
        candidates: Iterable[EntityId],
        perspective: Optional[EntityId] = None,
        now: Optional[float] = None,
    ) -> Optional[EntityId]:
        ranking = self.rank(candidates, perspective, now)
        return ranking[0][0] if ranking else None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class StoreBackedModel(ReputationModel):
    """A model whose whole feedback log is one
    :class:`~repro.store.EventStore`, ``self._store``.

    Ingest is then a plain store append whichever way rows arrive:
    :meth:`record` appends one overall row, :meth:`record_many` extends
    by the decoded columns and :meth:`ingest_columns` by the coded ones
    (after :func:`check_unit_ratings`), or :meth:`ingest_coded` by rows
    of a store :meth:`share_entities` shared the entity table with.
    Subclasses set ``_store`` and score from it; one whose reports also
    carry facet rows overrides :meth:`record` and :meth:`record_many` to
    append them.

    Every state derived from the store goes through one of two entry
    points, which own the cursor protocol once for every model:

    * :meth:`_replay_rows` feeds the scalar reference.  The model loops
      over the rows it returns inline and drops its replayed state in
      the :meth:`_reset_replay` hook;
    * :meth:`_kernel` keeps the columnar state, which the model's
      :meth:`_fold` hook brings up to date from a start row.

    Both key their position by store *identity*: assigning another
    store to ``_store`` restarts every reader from row 0.
    """

    _store: "EventStore"
    #: the columnar state as of the last :meth:`_kernel` call
    _kernel_state: Any

    def _unread_rows(
        self, reader: str, key: Hashable = None
    ) -> Tuple[int, int]:
        """``(start, stop)``: the rows of ``_store`` that *reader* has
        not consumed yet, which count as consumed from now on.

        ``start == 0`` means "start over" — the first read, ``_store``
        is another store object than at the last read, or *key* (what
        else the reader's state depends on, such as the decay's ``now``)
        differs from the last read's.
        """
        store = self._store
        cursors = self.__dict__.setdefault("_cursors", {})
        kept = cursors.get(reader)
        start = kept[1] if kept is not None and kept[0] is store else 0
        if kept is not None and kept[2] != key:
            start = 0
        stop = len(store)
        cursors[reader] = (store, stop, key)
        return start, stop

    def _replay_rows(self) -> Tuple[int, Iterable[Row]]:
        """``(start, rows)``: the store rows from row *start* on that
        the scalar replay has not consumed yet — the one sanctioned
        per-row source of ``models/`` (R007).  On a restart the replay's
        state is dropped first, through :meth:`_reset_replay`."""
        start, stop = self._unread_rows("replay")
        if not start:
            self._reset_replay()
        if start == stop:
            return start, ()
        return start, self._store.iter_rows(start)

    def _reset_replay(self) -> None:
        """Hook: drop the scalar replay's state (see :meth:`_replay_rows`)."""
        raise NotImplementedError

    def _kernel(self, *key: Hashable) -> Any:
        """The columnar state over every store row.

        *key* is what else the state depends on (the decay's ``now``, a
        vote or recommendation epoch).  While no rows arrived and *key*
        is unchanged the kept state comes back as is; otherwise
        :meth:`_fold` brings it up to date."""
        start, stop = self._unread_rows("kernel", key)
        if not start or start < stop:
            self._kernel_state = self._fold(start, *key)
        return self._kernel_state

    def _fold(self, start: int, *key: Hashable) -> Any:
        """Hook: the columnar state with rows ``[start, n)`` folded into
        the kept one; ``start == 0`` builds it from scratch."""
        raise NotImplementedError

    def record(self, feedback: Feedback) -> None:
        self._store.append(
            feedback.rater, feedback.target, feedback.rating, feedback.time
        )

    def record_many(self, feedbacks: Iterable[Feedback]) -> None:
        self._store.extend(*feedback_columns(feedbacks))

    def ingest_columns(
        self,
        names: Sequence[EntityId],
        raters: ArrayLike,
        targets: ArrayLike,
        ratings: ArrayLike,
        times: ArrayLike,
    ) -> None:
        check_unit_ratings(ratings)
        self._store.extend_coded(names, raters, targets, ratings, times)

    def share_entities(self, store: "EventStore") -> bool:
        """Adopt *store*'s table while this model's is empty and ingest
        is the plain coded append (not PeerTrust's decoding one)."""
        if len(self._store.entities) or (
            type(self).ingest_columns is not StoreBackedModel.ingest_columns
        ):
            return False
        self._store.entities = store.entities
        return True

    def ingest_coded(self, columns: "ColumnSet") -> None:
        """:meth:`ingest_columns` of rows of a shared-table store, with
        int64 tick times: the codes append as they are."""
        check_unit_ratings(columns.value)
        self._store.append_coded(
            columns.rater, columns.target, columns.value,
            times_array(columns.time),
        )
