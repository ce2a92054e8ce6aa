"""Shared segment-reduction kernels over store columns.

Thin, well-specified wrappers around the numpy idioms every columnar
scoring kernel leans on (``np.bincount`` segment sums, lexsorted
latest-per-group extraction), so model code states *what* it reduces
rather than re-deriving the index arithmetic.

A property worth knowing when chasing exact parity: ``np.bincount``
accumulates its weights **in input order** (one sequential add per
row), so a kernel that feeds rows in the same order as the scalar
recursion performs bit-identical additions.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["group_sums", "latest_rows"]


def group_sums(
    codes: np.ndarray,
    minlength: int,
    weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-code sums of *weights* (or counts) as a dense float64 array.

    Rows with negative codes (unseen / overall-facet markers) must be
    filtered out by the caller — bincount rejects them.
    """
    return np.bincount(codes, weights=weights, minlength=minlength).astype(
        np.float64, copy=False
    )


def latest_rows(
    keys: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(unique_keys, row_ids)``: the winning row per key.

    The winner of each key group is the row with the greatest
    ``(time, row id)`` — exactly the "later report with ``time >=``
    replaces" update rule the scalar models apply per event.
    ``unique_keys`` is ascending; ``row_ids`` aligns with it.
    """
    if not len(keys):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    order = np.lexsort((times, keys))
    grouped = keys[order]
    is_last = np.empty(len(grouped), dtype=bool)
    is_last[-1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=is_last[:-1])
    rows = order[is_last]
    return grouped[is_last], rows
