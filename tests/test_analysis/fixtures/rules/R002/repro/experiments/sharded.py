"""R002 fixture: cross-shard merges driven in unordered order.

Named ``experiments/sharded.py`` so the path-scoped rule runs on it;
parsed by the linter, never imported.
"""


class DeltaStore:
    def merge_from(self, other):
        return other


def merge_snapshots(snapshots):
    return list(snapshots)


def bad_loop_merge(store, deltas):
    pending = set(deltas)
    for delta in pending:                     # R002: set-ordered merge
        store.merge_from(delta)


def bad_comprehension_merge(store, deltas):
    dropped = {d for d in deltas}
    return [store.merge_from(d) for d in dropped]  # R002


def bad_direct_arg(snapshots):
    return merge_snapshots(set(snapshots))    # R002: set into merge


def good_list_merge(store, deltas):
    for delta in deltas:                      # spec-ordered list: fine
        store.merge_from(delta)


def good_sorted_merge(store, deltas):
    for delta in sorted(set(deltas)):         # sorted(...) neutralizes
        store.merge_from(delta)


def loop_without_merge(deltas):
    total = 0
    for delta in sorted(set(deltas)):
        total += delta
    return total


def suppressed_merge(store, deltas):
    ordered = set(deltas)
    for delta in ordered:  # reprolint: disable=R002
        store.merge_from(delta)
