"""EventStore contracts: the ISSUE-pinned properties.

The two invariants the columnar kernels stand on:

* snapshot/merge **byte-identity across chunkings** — the canonical
  encoding covers logical content only, so chunk_size ∈ {1, 7, 64,
  4096} (and any append/extend interleaving) is invisible;
* **interner insertion stability** — ``record_many``-style bulk extends
  assign the same codes a looped ``record`` would.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.store import EventStore, OVERALL_FACET, latest_rows

CHUNK_SIZES = (1, 7, 64, 4096)

RATERS = [f"r{i}" for i in range(5)]
TARGETS = ["svc-a", "svc-b", "svc-c"]
FACETS = [None, "latency", "accuracy"]

EVENTS = st.lists(
    st.tuples(
        st.sampled_from(RATERS),
        st.sampled_from(TARGETS),
        st.sampled_from(FACETS),
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 100.0, allow_nan=False),
    ),
    max_size=60,
)


def _fill(store, events):
    for rater, target, facet, value, time in events:
        store.append(rater, target, value, time, facet=facet)
    return store


class TestCanonicalBytes:
    @given(EVENTS)
    @settings(max_examples=50)
    def test_byte_identical_across_chunk_sizes(self, events):
        encodings = {
            _fill(EventStore(chunk_size=size), events).canonical_bytes()
            for size in CHUNK_SIZES
        }
        assert len(encodings) == 1

    @given(EVENTS, st.integers(0, 60))
    @settings(max_examples=50)
    def test_extend_matches_append_loop(self, events, split):
        """Bulk ingest (the record_many path) is indistinguishable from
        looped appends: same codes, same rows, same bytes."""
        overall = [e for e in events if e[2] is None]
        split = min(split, len(overall))
        looped = EventStore(chunk_size=7)
        for rater, target, _facet, value, time in overall:
            looped.append(rater, target, value, time)
        bulk = EventStore(chunk_size=7)
        head = overall[:split]
        if head:
            bulk.extend(
                [e[0] for e in head],
                [e[1] for e in head],
                [e[3] for e in head],
                [e[4] for e in head],
            )
        for rater, target, _facet, value, time in overall[split:]:
            bulk.append(rater, target, value, time)
        assert looped.canonical_bytes() == bulk.canonical_bytes()
        assert looped.entities.values() == bulk.entities.values()

    @given(
        st.sampled_from(CHUNK_SIZES),
        EVENTS,
        st.lists(st.sampled_from(RATERS + TARGETS), max_size=8),
        st.lists(st.sampled_from(RATERS + TARGETS), max_size=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=100)
    def test_extend_coded_matches_append_loop(
        self, chunk_size, events, interned, unused, rnd
    ):
        """The coded append interns only referenced names, in
        first-appearance order over the interleaved (rater, target)
        stream: byte-identical to an append loop over the decoded rows,
        whatever the names list's order, repeats or unused entries."""
        overall = [e for e in events if e[2] is None]
        looped = EventStore(chunk_size=chunk_size)
        coded = EventStore(chunk_size=chunk_size)
        for store in (looped, coded):
            for i, name in enumerate(interned):  # ids already interned
                store.append(name, name, 0.5, float(i))
        ids = sorted({e[0] for e in overall} | {e[1] for e in overall})
        names = ids + ids[: len(ids) // 2] + [f"unused-{u}" for u in unused]
        rnd.shuffle(names)
        position = {name: i for i, name in enumerate(names)}
        for rater, target, _facet, value, time in overall:
            looped.append(rater, target, value, time)
        coded.extend_coded(
            names,
            [position[e[0]] for e in overall],
            [position[e[1]] for e in overall],
            [e[3] for e in overall],
            [e[4] for e in overall],
        )
        assert coded.canonical_bytes() == looped.canonical_bytes()
        table = coded.entities.values()
        assert not any(v.startswith("unused-") for v in table)

    @given(EVENTS, st.integers(0, 60))
    @settings(max_examples=50)
    def test_merge_is_chunking_invariant_concatenation(self, events, split):
        split = min(split, len(events))
        whole = _fill(EventStore(chunk_size=64), events)
        merged = {}
        for size in CHUNK_SIZES:
            left = _fill(EventStore(chunk_size=size), events[:split])
            right = _fill(
                EventStore(chunk_size=CHUNK_SIZES[::-1][0]), events[split:]
            )
            left.merge_from(right)
            merged[size] = left.canonical_bytes()
        assert set(merged.values()) == {whole.canonical_bytes()}

    def test_merge_reinterns_through_own_tables(self):
        a = EventStore()
        a.append("r0", "svc", 0.9, 1.0)
        b = EventStore()
        b.append("other", "svc", 0.2, 2.0, facet="latency")
        b.append("r0", "extra", 0.4, 3.0)
        a.merge_from(b)
        columns = a.snapshot()
        assert a.entities.values() == ("r0", "svc", "other", "extra")
        assert [a.entities.value(c) for c in columns.rater.tolist()] == [
            "r0", "other", "r0",
        ]
        assert [a.entities.value(c) for c in columns.target.tolist()] == [
            "svc", "svc", "extra",
        ]
        assert columns.facet.tolist()[0] == OVERALL_FACET
        assert a.facets.value(int(columns.facet[1])) == "latency"


class TestRandomizedParityStreams:
    def test_chunking_invariance_for_any_seed(self, global_random_seed):
        """The rotating-seed sweep of the byte-identity property."""
        rng = random.Random(global_random_seed)
        events = [
            (
                f"r{rng.randrange(8)}",
                f"svc-{rng.randrange(6)}",
                rng.choice(FACETS),
                rng.random(),
                float(rng.randrange(1000)),
            )
            for _ in range(rng.randrange(5, 120))
        ]
        encodings = {
            _fill(EventStore(chunk_size=size), events).canonical_bytes()
            for size in CHUNK_SIZES
        }
        assert len(encodings) == 1


class TestSnapshotAndIndexes:
    def test_snapshot_is_cached_per_version(self):
        store = EventStore(chunk_size=4)
        store.append("r0", "a", 0.5, 0.0)
        first = store.snapshot()
        assert store.snapshot() is first
        store.append("r0", "b", 0.6, 1.0)
        assert store.snapshot() is not first
        assert store.snapshot().n == 2

    def test_group_rows_preserve_append_order(self):
        store = EventStore(chunk_size=2)
        ratings = [("a", 0.1), ("b", 0.2), ("a", 0.3), ("a", 0.4), ("b", 0.5)]
        for i, (target, value) in enumerate(ratings):
            store.append("r0", target, value, float(i))
        index = store.by_target()
        code = store.entities.code
        columns = store.snapshot()
        assert columns.value[index.rows(code("a"))].tolist() == [0.1, 0.3, 0.4]
        assert columns.value[index.rows(code("b"))].tolist() == [0.2, 0.5]
        assert index.rows(999).tolist() == []
        assert index.group_sizes().tolist() in ([3, 2], [2, 3])

    def test_by_target_time_orders_out_of_order_streams(self):
        store = EventStore(chunk_size=3)
        times = [5.0, 1.0, 3.0, 2.0, 4.0]
        for i, t in enumerate(times):
            store.append("r0", "svc", float(i) / 10.0, t)
        assert not store.times_monotonic
        rows = store.by_target_time().rows(store.entities.code("svc"))
        assert store.snapshot().time[rows].tolist() == sorted(times)

    def test_iter_rows_from_offset(self):
        store = EventStore(chunk_size=3)
        for i in range(10):
            store.append(f"r{i % 2}", "svc", i / 10.0, float(i))
        tail = list(store.iter_rows(7))
        assert [row[3] for row in tail] == [0.7, 0.8, 0.9]
        assert len(list(store.iter_rows(0))) == 10

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @pytest.mark.parametrize("time_dtype", ["float64", "int64"])
    def test_columns_from_is_the_snapshot_suffix(self, chunk_size, time_dtype):
        store = EventStore(chunk_size=chunk_size, time_dtype=time_dtype)
        for i in range(20):
            store.append(f"r{i % 3}", f"s{i % 4}", i / 20.0, i,
                         facet="latency" if i % 5 == 0 else None)
        full = store.snapshot()
        for start in range(len(store) + 2):
            part = store.columns_from(start)
            for name in ("rater", "target", "facet", "value", "time"):
                column, expected = getattr(part, name), getattr(full, name)
                assert column.tolist() == expected[start:].tolist()
                assert column.dtype == expected.dtype
        assert store.snapshot() is full  # the delta read caches nothing

    def test_ranks_align_with_order(self):
        store = EventStore(chunk_size=2)
        for i, target in enumerate(["a", "b", "a", "b", "a"]):
            store.append("r0", target, 0.5, float(i))
        index = store.by_target()
        ranks = index.ranks()
        # Within each group the ranks count up from 0 in append order.
        for code in index.codes.tolist():
            rows = index.rows(code)
            start = index.starts[index.slot(code)]
            end = index.ends[index.slot(code)]
            assert ranks[start:end].tolist() == list(range(len(rows)))

    def test_latest_rows_prefers_time_then_row_id(self):
        keys = np.array([1, 1, 2, 2], dtype=np.int64)
        times = np.array([5.0, 3.0, 1.0, 1.0])
        unique_keys, rows = latest_rows(keys, times)
        assert unique_keys.tolist() == [1, 2]
        # key 1: later time wins; key 2: tie -> later row wins.
        assert rows.tolist() == [0, 3]


class TestValidation:
    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            EventStore(chunk_size=0)

    def test_empty_store_shapes(self):
        store = EventStore()
        assert len(store) == 0
        assert store.version == 0
        assert store.snapshot().n == 0
        assert store.canonical_bytes() == EventStore().canonical_bytes()


class TestMisalignedColumns:
    """A batch whose columns disagree in length, or whose codes point
    outside ``names``, raises before writing a row."""

    @pytest.mark.parametrize(
        "columns, message",
        [
            (
                (["a", "b"], ["x"], [0.5, 0.6, 0.7], [1.0, 2.0, 3.0]),
                "raters has 2 rows but values has 3",
            ),
            (
                (["a"], ["x"], [0.5], [1.0, 2.0]),
                "times has 2 rows but values has 1",
            ),
        ],
    )
    def test_extend_rejects_misaligned_columns(self, columns, message):
        store = EventStore()
        with pytest.raises(ConfigurationError, match=message):
            store.extend(*columns)
        assert len(store) == 0 and len(store.entities) == 0

    def test_extend_coded_rejects_misaligned_columns(self):
        store = EventStore()
        with pytest.raises(
            ConfigurationError, match="targets has 1 rows but values has 2"
        ):
            store.extend_coded(["a", "x"], [0, 0], [1], [0.5, 0.6], [1.0, 2.0])
        assert len(store) == 0 and len(store.entities) == 0

    @pytest.mark.parametrize("bad", [2, -1])
    def test_extend_coded_rejects_index_outside_names(self, bad):
        store = EventStore()
        with pytest.raises(
            ConfigurationError, match=f"targets index {bad} outside names"
        ):
            store.extend_coded(
                ["a", "x"], [0, 0], [1, bad], [0.5, 0.6], [1.0, 2.0]
            )
        assert len(store) == 0 and len(store.entities) == 0

    def test_empty_coded_batch_is_a_no_op(self):
        store = EventStore(time_dtype="int64")
        store.extend_coded(["a"], [], [], [], [])
        assert len(store) == 0
        assert store.canonical_bytes() == EventStore(
            time_dtype="int64"
        ).canonical_bytes()


class TestIntegerTimeColumns:
    def test_int64_round_trip_and_dtype(self):
        store = EventStore(time_dtype="int64")
        store.append("c0", "svc-0", 0.5, 1 << 20)
        store.extend(["c1"], ["svc-1"], [0.75], np.array([2 << 20], dtype=np.int64))
        cols = store.snapshot()
        assert cols.time.dtype == np.int64
        assert cols.time.tolist() == [1 << 20, 2 << 20]

    def test_int64_append_rejects_floats(self):
        store = EventStore(time_dtype="int64")
        with pytest.raises(TypeError):
            store.append("c0", "svc-0", 0.5, 1.5)

    def test_int64_extend_rejects_float_arrays(self):
        store = EventStore(time_dtype="int64")
        with pytest.raises(TypeError):
            store.extend(["c0"], ["svc-0"], [0.5], [1.5])

    def test_headers_distinguish_time_dtypes(self):
        float_store = EventStore()
        tick_store = EventStore(time_dtype="int64")
        float_store.append("c0", "svc-0", 0.5, 1.0)
        tick_store.append("c0", "svc-0", 0.5, 1)
        assert float_store.canonical_bytes() != tick_store.canonical_bytes()

    def test_merge_rejects_time_dtype_mismatch(self):
        tick_store = EventStore(time_dtype="int64")
        float_store = EventStore()
        float_store.append("c0", "svc-0", 0.5, 1.0)
        with pytest.raises(ValueError):
            tick_store.merge_from(float_store)

    def test_unknown_time_dtype_rejected(self):
        with pytest.raises(ValueError):
            EventStore(time_dtype="float32")

    def test_int64_merge_matches_direct_appends(self):
        direct = EventStore(time_dtype="int64")
        split_a = EventStore(time_dtype="int64")
        split_b = EventStore(time_dtype="int64")
        rows = [("c0", "svc-0", 0.5, 10), ("c1", "svc-1", 0.25, 20),
                ("c0", "svc-1", 0.75, 30)]
        for rater, target, value, tick in rows:
            direct.append(rater, target, value, tick)
        for rater, target, value, tick in rows[:2]:
            split_a.append(rater, target, value, tick)
        split_b.append(*rows[2])
        merged = EventStore(time_dtype="int64")
        merged.merge_from(split_a)
        merged.merge_from(split_b)
        assert merged.canonical_bytes() == direct.canonical_bytes()
