"""Store views are read-only by construction.

Every model reads the one feedback store through zero-copy views:
``snapshot()``, ``columns_from()``, the ``by_*`` group indexes and
``GroupIndex.rows()``.  The sharded runner hands one epoch-start score
table to every shard.  A write into any of them would corrupt every
other reader, and the snapshot cached per store version, so each is
read-only where it is built.  A copy (``np.array(view)``) is writable.
"""

import numpy as np
import pytest

from repro.experiments.sharded import ShardedRunSpec, _Coordinator
from repro.store import EventStore

N_ROWS = 10
#: one sealed chunk and no tail, so whole-store reads are chunk views;
#: and three sealed chunks plus a tail, so reads are concatenations
CHUNKINGS = {"single-chunk": N_ROWS, "multi-chunk": 3}
INDEXES = ("by_target", "by_rater", "by_pair", "by_target_time",
           "by_target_facet")


def _store(chunk_size: int) -> EventStore:
    store = EventStore(chunk_size=chunk_size)
    for i in range(N_ROWS):
        # out-of-order times give by_target_time its own lexsort index
        store.append(f"r{i % 3}", f"s{i % 4}", i / N_ROWS, float(i * 7 % 5),
                     facet="latency" if i % 4 == 0 else None)
    return store


def _columns(columns):
    return [columns.rater, columns.target, columns.facet, columns.value,
            columns.time]


def _index_arrays(index):
    return [index.order, index.codes, index.starts, index.ends]


PRODUCERS = {
    "snapshot": lambda s: _columns(s.snapshot()),
    "columns_from(0)": lambda s: _columns(s.columns_from(0)),
    "columns_from(k)": lambda s: _columns(s.columns_from(4)),
    **{
        name: (lambda s, name=name: _index_arrays(getattr(s, name)()))
        for name in INDEXES
    },
    "rows(present)": lambda s: [s.by_target().rows(s.entities.code("s1"))],
    "rows(absent)": lambda s: [s.by_target().rows(10 ** 6)],
}


def _add_in_place(view):
    view += 1


#: the ways of writing into an array; the write raises however many
#: calls separate it from the producer, so no helper chains are needed
WRITES = {
    "item": lambda view: view.__setitem__(Ellipsis, 0),
    "fill": lambda view: view.fill(0),
    "+=": _add_in_place,
    "sort": lambda view: view.sort(),
}


@pytest.mark.parametrize("write", list(WRITES))
@pytest.mark.parametrize("chunking", sorted(CHUNKINGS))
@pytest.mark.parametrize("producer", list(PRODUCERS))
def test_every_store_view_is_read_only(producer, chunking, write):
    store = _store(CHUNKINGS[chunking])
    before = store.canonical_bytes()
    for view in PRODUCERS[producer](store):
        assert isinstance(view, np.ndarray)
        with pytest.raises(ValueError, match="read-only"):
            WRITES[write](view)
        copy = np.array(view)
        WRITES[write](copy)
        assert copy.flags.writeable
    assert store.canonical_bytes() == before


def test_views_come_from_both_read_paths():
    """The chunkings above reach both ``columns_from`` branches: the
    single-chunk store's full read is one chunk's view, the multi-chunk
    store's is a concatenation."""
    single = _store(CHUNKINGS["single-chunk"])
    assert single._chunks and not single._tail_value
    assert np.shares_memory(single.snapshot().value, single._chunks[0].value)
    multi = _store(CHUNKINGS["multi-chunk"])
    assert len(multi._chunks) > 1 and multi._tail_value


def test_epoch_start_scores_are_immutable():
    spec = ShardedRunSpec(
        model="beta", seed=3, epochs=1, rounds_per_epoch=1,
        world_params=dict(n_providers=2, services_per_provider=1,
                          n_consumers=3),
    )
    scores = _Coordinator(spec, shards=2).epoch_scores(0)
    with pytest.raises(TypeError):
        scores[0] = 1.0  # type: ignore[index]
    copy = np.array(scores)
    copy[...] = 0
    assert copy.flags.writeable


def test_copies_and_masks_stay_writable():
    snap = _store(CHUNKINGS["multi-chunk"]).snapshot()
    mine = list(snap.value)
    mine.sort()
    positive = snap.value[snap.value > 0]
    positive.sort()
    assert positive.tolist() == sorted(v for v in mine if v > 0)
