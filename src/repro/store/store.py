"""Append-only columnar event store (struct-of-arrays feedback log).

Every feedback event is one logical row across five parallel columns:

====================  =======  ==========================================
column                dtype    meaning
====================  =======  ==========================================
``rater``             int32    interned consumer id (shared entity table)
``target``            int32    interned provider/service id (same table)
``facet``             int32    interned facet name; ``-1`` = overall
``value``             float64  the rating on ``[0, 1]``
``time``              float64  simulation time the report was filed
                      /int64   (int64 tick stores: ``repro.common.simtime``)
====================  =======  ==========================================

Rows live in one set of five growable numpy columns plus a row count:
``append`` writes row *n* in place, a full set moves to buffers of at
least twice the capacity, and every read is a slice ``[start, n)`` of
the columns, so :meth:`EventStore.snapshot` copies nothing.
The implicit row number (append order) is the store's int64 sequence
column — kernels that need "latest wins" tie-breaking get it from row
position, which is why the logical row order is part of the canonical
encoding.

Invariants the property suite pins:

* **merge is concatenation + re-interning** — :meth:`merge_from`
  appends the other store's rows in their logical order, translating
  codes through this store's interners (the same canonical-merge
  discipline the obs registry uses);
* **indexes are views** — :meth:`by_target` etc. return group slices
  (stable argsort + searchsorted) over the snapshot, never copies of
  the event data.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
from numpy.typing import ArrayLike

from repro.common.errors import ConfigurationError
from repro.store.interner import Interner

__all__ = ["ColumnSet", "EventStore", "GroupIndex", "OVERALL_FACET"]

#: Facet code of the overall rating (facet column is -1 for rows that
#: carry the feedback's overall rating rather than one facet's).
OVERALL_FACET = -1

#: rows a new store holds before its first growth
_INITIAL_CAPACITY = 16
#: the attributes holding the five columns, in :class:`ColumnSet` order
_COLUMNS = ("_rater", "_target", "_facet", "_value", "_time")

_EMPTY_I4 = np.empty(0, dtype=np.int32)
_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_I4.flags.writeable = False
_EMPTY_I8.flags.writeable = False


def _check_lengths(method: str, n: int, **lengths: int) -> None:
    """Raise unless every column is as long as ``values`` (*n* rows)."""
    for label, length in lengths.items():
        if length != n:
            raise ConfigurationError(
                f"{method}: {label} has {length} rows but values has {n}"
            )


@dataclass(frozen=True)
class ColumnSet:
    """An immutable struct-of-arrays view of the store at one version.

    The columns are read-only: they are slices of the store's
    read-only views of its columns and are cached per version, so every
    reader sees the same arrays.  Write into a copy (``np.array(view)``).
    """

    rater: np.ndarray
    target: np.ndarray
    facet: np.ndarray
    value: np.ndarray
    time: np.ndarray

    def __post_init__(self) -> None:
        for column in (self.rater, self.target, self.facet, self.value,
                       self.time):
            if column.flags.writeable:
                column.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.value)

    def pair_keys(self) -> np.ndarray:
        """int64 ``(rater << 32) | target`` keys, one per row."""
        return (self.rater.astype(np.int64) << 32) | self.target.astype(
            np.int64
        )

    def target_facet_keys(self) -> np.ndarray:
        """int64 ``(target << 32) | (facet + 1)`` keys, one per row."""
        return (self.target.astype(np.int64) << 32) | (
            self.facet.astype(np.int64) + 1
        )


class GroupIndex:
    """Zero-copy group slices over one code column.

    ``order`` is a stable argsort of the codes, so within one group the
    rows keep their logical (append) order unless a *secondary* sort
    key was supplied at build time.  ``rows(code)`` returns the row ids
    of one group as a slice of ``order`` — a view, not a copy.  The
    four arrays are read-only (the index is cached and shared), and so
    is every slice of them.
    """

    __slots__ = ("order", "codes", "starts", "ends")

    def __init__(
        self, keys: np.ndarray, secondary: Optional[np.ndarray] = None
    ) -> None:
        if secondary is None:
            self.order = np.argsort(keys, kind="stable")
        else:
            # lexsort is a sequence of stable sorts: primary = keys,
            # secondary = the supplied key, full ties keep append order.
            self.order = np.lexsort((secondary, keys))
        grouped = keys[self.order]
        self.codes, self.starts = np.unique(grouped, return_index=True)
        self.ends = np.append(self.starts[1:], len(grouped))
        for array in (self.order, self.codes, self.starts, self.ends):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.codes)

    def slot(self, code: int) -> int:
        """Position of *code* in :attr:`codes`, or -1 when absent."""
        i = int(np.searchsorted(self.codes, code))
        if i < len(self.codes) and self.codes[i] == code:
            return i
        return -1

    def rows(self, code: int) -> np.ndarray:
        """Row ids of one group (empty array when absent) — a read-only
        view."""
        i = self.slot(code)
        if i < 0:
            return _EMPTY_I8
        return self.order[self.starts[i]: self.ends[i]]

    def group_sizes(self) -> np.ndarray:
        return self.ends - self.starts

    def ranks(self) -> np.ndarray:
        """Rank of each *sorted* position within its group (0-based).

        Aligned with :attr:`order`: ``ranks()[i]`` is the rank of row
        ``order[i]`` inside its group.
        """
        n = len(self.order)
        ranks = np.arange(n, dtype=np.int64)
        if len(self.starts):
            offsets = np.zeros(n, dtype=np.int64)
            offsets[self.starts] = self.starts
            np.maximum.accumulate(offsets, out=offsets)
            ranks -= offsets
        return ranks


class EventStore:
    """Append-only columnar feedback log with interned id columns.

    Args:
        time_dtype: ``"float64"`` (default) or ``"int64"``.  An int64
            store keeps the time column as exact integer ticks
            (``repro.common.simtime``), the exchange format shard
            deltas use; its canonical encoding carries a distinct
            header tag, and :meth:`merge_from` refuses to mix the two.
    """

    _HEADERS = {
        np.dtype(np.float64): b"repro.store.v1\x00",
        np.dtype(np.int64): b"repro.store.v1:i64\x00",
    }

    def __init__(self, time_dtype: Union[str, np.dtype] = "float64") -> None:
        self.time_dtype = np.dtype(time_dtype)
        if self.time_dtype not in self._HEADERS:
            raise ConfigurationError(
                "time_dtype must be 'float64' or 'int64', "
                f"got {time_dtype!r}"
            )
        self._time_is_int = self.time_dtype == np.dtype(np.int64)
        #: one shared table for raters *and* targets — several surveyed
        #: mechanisms (Sporas, Histos, PeerTrust) relate an entity's
        #: behaviour as rater to its standing as target, which needs a
        #: single code space.
        self.entities = Interner()
        self.facets = Interner()
        #: rows ``[0, _n)`` of the five columns hold the events; the
        #: rest is spare capacity
        self._n = 0
        self._rater = np.zeros(_INITIAL_CAPACITY, dtype=np.int32)
        self._target = np.zeros(_INITIAL_CAPACITY, dtype=np.int32)
        self._facet = np.zeros(_INITIAL_CAPACITY, dtype=np.int32)
        self._value = np.zeros(_INITIAL_CAPACITY, dtype=np.float64)
        self._time = np.zeros(_INITIAL_CAPACITY, dtype=self.time_dtype)
        self._take_views()
        #: cached (version, ColumnSet) snapshot
        self._snapshot: Optional[Tuple[int, ColumnSet]] = None
        #: cached group indexes: name -> (version, GroupIndex)
        self._indexes: Dict[str, Tuple[int, GroupIndex]] = {}
        #: True while the time column is non-decreasing in append
        #: order — lets time-ordered kernels skip their lexsort.
        self._times_sorted = True
        self._last_time: Optional[float] = None

    # -- writing -------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def version(self) -> int:
        """Monotone change counter (the store is append-only, so the
        row count is the version)."""
        return len(self)

    @property
    def times_monotonic(self) -> bool:
        """Whether every append so far arrived in non-decreasing time."""
        return self._times_sorted

    def append(
        self,
        rater: str,
        target: str,
        value: float,
        time: float,
        facet: Optional[str] = None,
    ) -> None:
        """Append one row (the ``record`` hot path)."""
        if self._time_is_int:
            # Rejects floats outright: silent truncation of a float
            # timestamp is exactly the bug tick stores exist to prevent.
            time = operator.index(time)
        n = self._n
        if n == len(self._value):
            self._grow(n + 1)
        self._rater[n] = self.entities.intern(rater)
        self._target[n] = self.entities.intern(target)
        self._facet[n] = (
            OVERALL_FACET if facet is None else self.facets.intern(facet)
        )
        self._value[n] = value
        self._time[n] = time
        self._n = n + 1
        if self._times_sorted:
            last = self._last_time
            if last is not None and time < last:
                self._times_sorted = False
        self._last_time = time

    def extend(
        self,
        raters: Sequence[str],
        targets: Sequence[str],
        values: Sequence[float],
        times: Sequence[float],
    ) -> None:
        """Bulk-append overall rows from parallel columns.

        Produces exactly the rows the equivalent :meth:`append` loop
        would (same codes, same order): row *i* names its own rater and
        target entries and goes through :meth:`extend_coded`.
        """
        n = len(values)
        _check_lengths(
            "extend", n, raters=len(raters), targets=len(targets),
            times=len(times),
        )
        index = np.arange(n, dtype=np.int64)
        self.extend_coded([*raters, *targets], index, index + n, values, times)

    def extend_coded(
        self,
        names: Sequence[str],
        raters: ArrayLike,
        targets: ArrayLike,
        values: ArrayLike,
        times: ArrayLike,
    ) -> None:
        """Bulk-append overall rows whose ids are indices into *names*.

        Only referenced names are interned, in first-appearance order
        over the interleaved ``(rater, target)`` stream — the order an
        :meth:`append` loop over the decoded rows interns them in — so
        codes, rows and :meth:`canonical_bytes` equal that loop's.
        """
        value_col = np.array(values, dtype=np.float64)
        n = len(value_col)
        rater_idx = np.asarray(raters, dtype=np.int64)
        target_idx = np.asarray(targets, dtype=np.int64)
        time_col = self._as_time_array(times)
        _check_lengths(
            "extend_coded", n, raters=len(rater_idx),
            targets=len(target_idx), times=len(time_col),
        )
        if not n:
            return
        for label, idx in (("raters", rater_idx), ("targets", target_idx)):
            low, high = int(idx.min()), int(idx.max())
            if low < 0 or high >= len(names):
                bad = low if low < 0 else high
                raise ConfigurationError(
                    f"extend_coded: {label} index {bad} outside names "
                    f"(length {len(names)})"
                )
        # r0, t0, r1, t1, ...: the order an append loop interns in
        stream = np.stack((rater_idx, target_idx), axis=1).reshape(-1)
        first = np.full(len(names), len(stream), dtype=np.int64)
        np.minimum.at(first, stream, np.arange(len(stream)))
        used = np.flatnonzero(first < len(stream))
        used = used[np.argsort(first[used])]
        lookup = np.empty(len(names), dtype=np.int32)
        lookup[used] = self.entities.intern_many(
            map(names.__getitem__, used.tolist())
        )
        self.append_coded(
            lookup[rater_idx], lookup[target_idx], value_col, time_col
        )

    def append_coded(
        self,
        raters: ArrayLike,
        targets: ArrayLike,
        values: ArrayLike,
        times: ArrayLike,
    ) -> None:
        """Bulk-append overall rows whose ids are already codes of
        :attr:`entities` (another store's codes, when the two share the
        table), interning nothing."""
        codes = [np.asarray(ids, dtype=np.int32) for ids in (raters, targets)]
        value_col = np.asarray(values, dtype=np.float64)
        time_col = self._as_time_array(times)
        n, size = len(value_col), len(self.entities)
        _check_lengths(
            "append_coded", n, raters=len(codes[0]), targets=len(codes[1]),
            times=len(time_col),
        )
        if n and not all(0 <= c.min() and c.max() < size for c in codes):
            raise ConfigurationError(
                f"append_coded: a code outside the entity table (size {size})"
            )
        self._append_columns(
            *codes,
            np.full(n, OVERALL_FACET, dtype=np.int32),
            value_col,
            time_col,
        )

    def _append_columns(
        self,
        raters: np.ndarray,
        targets: np.ndarray,
        facets: np.ndarray,
        values: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Append coded rows: one slice assignment per column."""
        n = len(values)
        if not n:
            return
        if self._times_sorted:
            last = self._last_time
            if (last is not None and times[0] < last) or (
                n > 1 and bool(np.any(np.diff(times) < 0))
            ):
                self._times_sorted = False
        self._last_time = self._py_time(times[n - 1])
        start, stop = self._n, self._n + n
        if stop > len(self._value):
            self._grow(stop)
        self._rater[start:stop] = raters
        self._target[start:stop] = targets
        self._facet[start:stop] = facets
        self._value[start:stop] = values
        self._time[start:stop] = times
        self._n = stop

    def _grow(self, rows: int) -> None:
        """Move the columns to buffers of at least twice the capacity
        and at least *rows* rows.  Views taken before keep the old
        buffers, whose rows are never rewritten."""
        n = self._n
        capacity = max(2 * len(self._value), rows)
        for name in _COLUMNS:
            column = getattr(self, name)
            grown = np.zeros(capacity, dtype=column.dtype)
            grown[:n] = column[:n]
            setattr(self, name, grown)
        self._take_views()

    def _take_views(self) -> None:
        """Keep read-only views of the five columns, which every read
        slices, so a read sets no flag.  Only :meth:`_grow` moves the
        columns, so only it (and a copy's :meth:`__setstate__`) takes
        them again."""
        views = tuple(getattr(self, name).view() for name in _COLUMNS)
        for view in views:
            view.flags.writeable = False
        self._views = views

    def __getstate__(self) -> Dict[str, object]:
        # a copied view would not see the copied columns' later rows
        state = self.__dict__.copy()
        del state["_views"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._take_views()

    def _as_time_array(self, times: ArrayLike) -> np.ndarray:
        arr = np.asarray(times)
        if not self._time_is_int:
            return arr.astype(np.float64, copy=False)
        if arr.dtype.kind not in "iu" and arr.size:
            raise TypeError(
                "int64-time store requires integer tick times "
                f"(got dtype {arr.dtype}); convert with "
                "repro.common.simtime.to_ticks"
            )
        return arr.astype(np.int64, copy=False)

    def _py_time(self, value: Union[int, float, np.number]) -> Union[int, float]:
        return int(value) if self._time_is_int else float(value)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> ColumnSet:
        """Contiguous column arrays covering every row (cached per
        version)."""
        version = self.version
        cached = self._snapshot
        if cached is not None and cached[0] == version:
            return cached[1]
        columns = self.columns_from(0)
        self._snapshot = (version, columns)
        return columns

    def columns_from(self, start: int) -> ColumnSet:
        """Contiguous columns of logical rows ``[start, len(self))``:
        five slices of the store's read-only column views, caching
        nothing — the delta read of kernels that fold new rows into kept
        state."""
        n = self._n
        rater, target, facet, value, time = self._views
        return ColumnSet(
            rater[start:n],
            target[start:n],
            facet[start:n],
            value[start:n],
            time[start:n],
        )

    def iter_rows(
        self, start: int = 0
    ) -> Iterator[Tuple[int, int, int, float, float]]:
        """Yield ``(rater, target, facet, value, time)`` per row from
        logical row *start*, as Python scalars, without materializing a
        snapshot — the scalar reference replays consume this."""
        columns = self.columns_from(start)
        return zip(
            columns.rater.tolist(),
            columns.target.tolist(),
            columns.facet.tolist(),
            columns.value.tolist(),
            columns.time.tolist(),
        )

    def _index(
        self, name: str, build: Callable[[ColumnSet], GroupIndex]
    ) -> GroupIndex:
        version = self.version
        cached = self._indexes.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        index = build(self.snapshot())
        self._indexes[name] = (version, index)
        return index

    def by_target(self) -> GroupIndex:
        """Rows grouped by target code, append order within groups."""
        return self._index("target", lambda c: GroupIndex(c.target))

    def by_target_time(self) -> GroupIndex:
        """Rows grouped by target, time-ordered (ties keep append
        order) within groups — the windowed-history view."""
        if self._times_sorted:
            return self.by_target()
        return self._index(
            "target_time",
            lambda c: GroupIndex(c.target, secondary=c.time),
        )

    def by_target_facet(self) -> GroupIndex:
        """Rows grouped by (target, facet), append order within groups."""
        return self._index(
            "target_facet", lambda c: GroupIndex(c.target_facet_keys())
        )

    # -- canonical encoding / merge ------------------------------------
    def canonical_bytes(self) -> bytes:
        """Deterministic byte encoding of the store's logical content.

        Covers the interner tables (insertion order) and the five
        columns in logical row order; spare capacity is invisible, so
        equal event streams encode equal however they were appended —
        the merge/snapshot discipline the obs registry established,
        applied to event data.

        The header tags the time dtype, so a float64 store and an
        int64 tick store can never encode equal (and existing float64
        encodings are byte-unchanged).
        """
        columns = self.snapshot()
        return b"".join(
            (
                self._HEADERS[self.time_dtype],
                self.entities.canonical_bytes(),
                self.facets.canonical_bytes(),
                len(columns.value).to_bytes(8, "little"),
                np.ascontiguousarray(columns.rater).tobytes(),
                np.ascontiguousarray(columns.target).tobytes(),
                np.ascontiguousarray(columns.facet).tobytes(),
                np.ascontiguousarray(columns.value).tobytes(),
                np.ascontiguousarray(columns.time).tobytes(),
            )
        )

    def merge_from(self, other: "EventStore") -> None:
        """Append *other*'s rows (in their logical order), translating
        its codes through this store's interners.

        Both stores must share a time dtype — merging float64 times
        into an int64 tick column (or vice versa) would silently
        reintroduce the rounding drift tick stores exist to rule out.
        """
        if other.time_dtype != self.time_dtype:
            raise ConfigurationError(
                f"merge_from: time_dtype {other.time_dtype} cannot merge "
                f"into a {self.time_dtype} store; convert with "
                "repro.common.simtime first"
            )
        columns = other.snapshot()
        if not columns.n:
            return
        entity_map = self.entities.intern_many(other.entities.values())
        facet_values = other.facets.values()
        facet_map = (
            self.facets.intern_many(facet_values)
            if facet_values
            else _EMPTY_I4
        )
        raters = entity_map[columns.rater]
        targets = entity_map[columns.target]
        overall = columns.facet == OVERALL_FACET
        facets = np.where(
            overall,
            np.int32(OVERALL_FACET),
            facet_map[np.where(overall, 0, columns.facet)]
            if len(facet_map)
            else np.int32(OVERALL_FACET),
        ).astype(np.int32)
        self._append_columns(
            raters, targets, facets, columns.value, columns.time
        )
