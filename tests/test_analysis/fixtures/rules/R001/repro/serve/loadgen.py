"""R001 fixture: client-side timing in one of the modules R001 lets
read a timer.  Parsed, never imported."""

import time


def bench_ok() -> float:
    started = time.perf_counter()
    return time.perf_counter() - started
