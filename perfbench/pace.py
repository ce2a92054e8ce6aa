"""The host's pace, measured next to every unit of timed work.

The benchmark shares its host, and the host's speed drifts: on the
2-vCPU container the figures in README.md were taken on, a fixed piece
of Python ran up to twice as slowly for seconds to minutes at a time,
with process CPU time slowing as much as wall time.  That drift, not the
program, set most of the run-to-run spread of raw wall times, and no
statistic taken within one run removes a slow phase longer than the run.

So each timed unit of work is bracketed by a probe: a fixed routine
that never calls the program (pure-Python dict, string and attribute
work plus small numpy kernels, the kind of work the program does).  A
unit's times are multiplied by ``REFERENCE_MS`` over the mean of the
probes before and after it, raised to ``EXPONENT``, so they read as the
time the unit would take on a host where the probe takes
``REFERENCE_MS``.  A change to the program moves the unit and not the
probe, so it moves a paced figure by the same share as the raw one.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: the probe's time, in ms, that paced figures are scaled to; about its
#: median on the container README.md describes
REFERENCE_MS = 5.0

#: how much more the program slows than the probe: on the container
#: README.md describes, all three workloads' units slowed by the probe's
#: slowdown to about this power (sets of runs taken with the probe near
#: 3.7 ms and near 5-6.5 ms agreed within 3% once paced with it, and
#: differed by 6-16% when paced with an exponent of 1)
EXPONENT = 1.3

#: timed calls of the routine per probe; the probe is their median
REPEATS = 3

_KEYS = list(range(0, 65_536 * 7, 7))
_TABLE = {key: key & 0xFF for key in _KEYS}
_LOOKUPS = _KEYS[::11]


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight


_ITEMS = [_Item(i, i * 0.5) for i in range(20_000)]
_VALUES = np.random.default_rng(0).random(20_000)
_GROUPS = np.random.default_rng(1).integers(0, 50, 20_000)
_SMALL = np.arange(64, dtype=float)


def _routine() -> float:
    """The fixed work one probe times: about 5 ms on the reference host."""
    total = 0.0
    counts: dict = {}
    for i in range(4_000):
        slot = i % 97
        counts[slot] = counts.get(slot, 0) + i
        total += len(str(i))
        if i % 8 == 0:
            total += float((_SMALL * 1.5).sum())
    for key in _LOOKUPS:
        total += _TABLE[key]
    for item in _ITEMS[::5]:
        total += item.weight
    for _ in range(10):
        total += float(np.bincount(_GROUPS, weights=_VALUES).max())
        total += float(np.argsort(_VALUES[:5_000])[0])
    return total


def probe() -> float:
    """The routine's median time over ``REPEATS`` calls, in ms.

    The collector is paused so that garbage the program left behind is
    not collected on the probe's clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            _routine()
            times.append(time.perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) / 1e6


class Pacer:
    """Probes the host between stretches of timed work.

    Create it right before the first stretch; after each stretch,
    ``scale()`` probes again and returns the factor that stretch's
    times are multiplied by.  Probes run outside every timed stretch.
    """

    def __init__(self) -> None:
        self._last = probe()
        #: every probe taken, in ms, for the run's diagnostics
        self.probes = [self._last]

    def scale(self) -> float:
        now = probe()
        self.probes.append(now)
        factor = (2.0 * REFERENCE_MS / (self._last + now)) ** EXPONENT
        self._last = now
        return factor
