"""Deterministic ingest: tick assignment and admission control.

The serve layer's determinism contract is that every canonical output
is a pure function of the *ingest log* — so every quantity admission
control depends on must itself be deterministic.  Three consequences
shape this module:

* **Integer tick arithmetic only.**  Rates are converted once to an
  integer tick cost (``ticks_per_event``); buckets and backlogs then
  evolve by exact int64 addition.  No floats, no wall clock, no live
  ``asyncio`` queue occupancy (which would vary with worker count).
* **Sequenced order, not arrival order.**  The controller is invoked
  in the canonical arrival order ``(client_tick, client_id,
  client_seq)`` established by the sequencer, so identical submissions
  admit identically however they interleaved on the event loop.
* **A virtual (fluid) queue, not the real one.**  Queue depth is
  modelled as a backlog of tick-cost that drains at the configured
  rate as the assigned ticks advance.  The real asyncio queue is an
  implementation detail; the virtual one is canonical state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import ConfigurationError
from repro.common.simtime import TICKS_PER_UNIT
from repro.serve.protocol import ADMITTED, Arrival, IngestRecord

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "FluidQueue",
    "TokenBucket",
    "ticks_per_event",
]


def ticks_per_event(rate: float) -> int:
    """Integer tick cost of one event at *rate* events per sim unit."""
    if rate <= 0:
        raise ConfigurationError("rate must be positive")
    return max(1, round(TICKS_PER_UNIT / rate))


class TokenBucket:
    """Per-tenant rate limiter in exact integer-tick arithmetic.

    Earns one token every ``ticks_per_token`` assigned ticks up to
    ``burst``; the fractional remainder is carried in ticks, so refill
    is exact however unevenly admissions are spaced.
    """

    __slots__ = ("ticks_per_token", "burst", "tokens", "last_tick", "_frac")

    def __init__(self, rate: float, burst: int) -> None:
        if burst < 1:
            raise ConfigurationError("burst must be >= 1")
        self.ticks_per_token = ticks_per_event(rate)
        self.burst = int(burst)
        self.tokens = int(burst)
        self.last_tick = 0
        self._frac = 0

    def take(self, tick: int) -> bool:
        """Spend one token at *tick*; False when the bucket is empty."""
        elapsed = tick - self.last_tick
        if elapsed > 0:
            if self.tokens >= self.burst:
                self._frac = 0
            else:
                earned, self._frac = divmod(
                    self._frac + elapsed, self.ticks_per_token
                )
                if earned:
                    self.tokens = min(self.burst, self.tokens + int(earned))
            self.last_tick = tick
        if self.tokens > 0:
            self.tokens -= 1
            return True
        return False


class FluidQueue:
    """Deterministic virtual queue: a tick-cost backlog with bounded depth.

    Each admitted request adds ``service_ticks`` of backlog; the
    backlog drains one tick per assigned tick elapsed.  Depth is the
    backlog measured in whole requests; an arrival that would push the
    depth past ``max_depth`` is shed.  The wait granted to an admitted
    request is the backlog in front of it — that single integer is what
    TTL expiry and the SLA queue-wait histograms are computed from.
    """

    __slots__ = ("service_ticks", "max_depth", "backlog_ticks", "last_tick")

    def __init__(self, drain_rate: float, max_depth: int) -> None:
        if max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        self.service_ticks = ticks_per_event(drain_rate)
        self.max_depth = int(max_depth)
        self.backlog_ticks = 0
        self.last_tick = 0

    @property
    def depth(self) -> int:
        return self.backlog_ticks // self.service_ticks

    def offer(self, tick: int) -> Optional[int]:
        """Wait in ticks granted at *tick*, or None when shed."""
        elapsed = tick - self.last_tick
        if elapsed > 0:
            self.backlog_ticks = max(0, self.backlog_ticks - elapsed)
            self.last_tick = tick
        if self.depth >= self.max_depth:
            return None
        wait = self.backlog_ticks
        self.backlog_ticks += self.service_ticks
        return wait


@dataclass(frozen=True)
class AdmissionConfig:
    """Admission-control knobs, all in per-sim-unit terms."""

    drain_rate: float = 512.0
    max_depth: int = 64
    tenant_rate: float = 128.0
    tenant_burst: int = 32


class AdmissionController:
    """Sequenced admission: ticks, token buckets, and the virtual queue.

    :meth:`admit` must be called in canonical arrival order; it assigns
    the strictly monotonic ingest tick ``max(client_tick, last + 1)``,
    charges the tenant's token bucket (throttle), then offers the
    request to the fluid queue (shed).  The returned
    :class:`IngestRecord` captures the full decision so a replay can
    assert it reproduces admission exactly.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.queue = FluidQueue(config.drain_rate, config.max_depth)
        self._buckets: Dict[str, TokenBucket] = {}
        self.last_tick = 0

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(
                self.config.tenant_rate, self.config.tenant_burst
            )
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, arrival: Arrival, batch: int) -> IngestRecord:
        tick = max(arrival.client_tick, self.last_tick + 1)
        self.last_tick = tick
        # IngestRecord(tick, batch, decision, wait_ticks, exec_tick,
        # arrival), positional: the keyword binding costs a request
        if not self.bucket(arrival.tenant).take(tick):
            return IngestRecord(tick, batch, "throttled", 0, tick, arrival)
        wait = self.queue.offer(tick)
        if wait is None:
            return IngestRecord(tick, batch, "shed", 0, tick, arrival)
        exec_tick = tick + wait + self.queue.service_ticks
        return IngestRecord(tick, batch, ADMITTED, wait, exec_tick, arrival)
