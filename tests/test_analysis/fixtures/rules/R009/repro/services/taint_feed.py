"""R009 fixture: ambient nondeterminism flowing into canonical sinks.

Uses ``time.perf_counter``/``time.monotonic`` (tolerated by R001 for
benchmarking) so every finding in this file belongs to R009 alone.
Parsed, never imported.
"""

import time
from typing import List, Set

from repro.store import EventStore


def _jitter() -> float:
    return time.perf_counter()


def _laundered() -> float:
    return _jitter() * 0.5


def _relay(value: float) -> float:
    return value


class FeedbackFeed:
    def __init__(self) -> None:
        self._store = EventStore()

    def direct_hit(self) -> None:
        self._store.append("r", "t", time.monotonic(), 1)

    def multi_hop_hit(self) -> None:
        # source -> _jitter -> _laundered -> _relay -> sink: only the
        # interprocedural fixpoint sees this one.
        self._store.append("r", "t", _relay(_laundered()), 2)

    def coded_hit(self) -> None:
        self._store.extend_coded(["r", "t"], [0], [1], [0.5], [time.monotonic()])

    def suppressed_hit(self) -> None:
        self._store.append("r", "t", _laundered(), 3)  # reprolint: disable=R009

    def clean_path(self, value: float, now: int) -> None:
        self._store.append("r", "t", value, now)

    def order_hit(self, peers: Set[str]) -> None:
        for peer in peers:
            self._store.append(peer, "t", 1.0, 4)

    def order_sorted_ok(self, peers: Set[str]) -> None:
        for peer in sorted(peers):
            self._store.append(peer, "t", 1.0, 5)

    def bench_ok(self) -> float:
        # Wall time for reporting only — never reaches a sink.
        started = time.perf_counter()
        return time.perf_counter() - started


class SetAlgebraFeed:
    def __init__(self) -> None:
        self._store = EventStore()

    def union_operator_hit(self, a: List[str], b: List[str]) -> None:
        for rater in set(a) | set(b):
            self._store.append(rater, "t", 1.0, 6)

    def union_method_hit(self, a: List[str], b: List[str]) -> None:
        for rater in set(a).union(b):
            self._store.append(rater, "t", 1.0, 7)
