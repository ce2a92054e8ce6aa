"""Timing helper shared by the ``test_bench_*`` regression harnesses."""

from __future__ import annotations

import time
from typing import Callable


def best_ns(fn: Callable[[], object], repeats: int) -> int:
    """Minimum wall time of *fn* over *repeats* runs (ns) — the min is
    the standard noise-robust estimator for micro-timings."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    assert best is not None
    return best
