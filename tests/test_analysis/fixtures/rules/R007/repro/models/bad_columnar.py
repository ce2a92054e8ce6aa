"""R007 fixtures: per-row python loops over store columns.

Parsed by the linter, never imported — `store` is an implicit
EventStore-shaped object.
"""


def make_store():
    return None


store = make_store()


def looped_kernel():
    columns = store.snapshot()
    total = 0.0
    for v in columns.value:                 # R007: column iteration
        total += v
    return total


def looped_rows():
    for row in store.iter_rows(0):          # R007: row iteration
        print(row)


def zipped_columns():
    columns = store.snapshot()
    pairs = [
        (v, t) for v, t in zip(columns.value, columns.time)  # R007
    ]
    return pairs


def sliced_column():
    columns = store.snapshot()
    values = columns.value[:10]
    return [v * 2 for v in values]          # R007: sliced column


def materialized_column():
    columns = store.snapshot()
    for v in columns.value.tolist():        # R007: tolist loop
        print(v)


def commented_reference():
    # reprolint: disable=R007 — R007 honours no disable comment
    for row in store.iter_rows(0):          # R007: row iteration
        print(row)


class ReplayingModel:
    def _advance(self):
        _start, rows = self._replay_rows()
        for row in rows:                    # the sanctioned row source
            print(row)


def vectorized_kernel(np):
    columns = store.snapshot()
    sums = np.bincount(columns.target, weights=columns.value)
    gathered = columns.value[columns.target >= 0]
    return sums, gathered


def plain_loop(items):
    for item in items:                      # not a store column
        print(item)
