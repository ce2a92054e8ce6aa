"""Resilience policies: retry with backoff, circuit breakers, timeouts.

The counterpart of :mod:`repro.faults.plan`: fault plans make the
transport unreliable, these policies let clients stay correct anyway.
All time is *simulation* time passed in explicitly — backoff delays are
accounted, not slept, and breakers judge recovery against the caller's
clock — which keeps every policy deterministic under a fixed seed.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Type

from repro.common.errors import ConfigurationError, ReproError
from repro.common.ids import EntityId
from repro.common.randomness import RngLike, make_rng
from repro.obs.recorder import get_recorder


class CircuitOpenError(ReproError):
    """A call was refused because the target's circuit breaker is open."""


@dataclass(frozen=True)
class Timeout:
    """An invocation time budget in simulation seconds.

    Pure value semantics: components compare an observed or simulated
    latency against the budget; there is no wall-clock alarm.
    """

    budget: float

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ConfigurationError("timeout budget must be positive")

    def exceeded(self, elapsed: float) -> bool:
        return elapsed > self.budget


@dataclass
class CallOutcome:
    """Result of a retried call: value or final error, plus cost."""

    value: Any
    attempts: int
    backoff_delay: float
    error: Optional[BaseException] = None

    @property
    def succeeded(self) -> bool:
        return self.error is None


class RetryPolicy:
    """Exponential backoff with jitter, deterministic under a seed.

    The *attempt*-th retry waits
    ``base_delay * multiplier**(attempt-1)`` capped at ``max_delay``,
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1 + jitter]`` — the standard decorrelation trick so a
    fleet of clients does not retry in lockstep, kept reproducible by
    drawing from a :mod:`repro.common.randomness` generator.

    Args:
        max_attempts: total tries including the first (>= 1).
        base_delay: backoff before the first retry.
        multiplier: exponential growth factor per retry.
        max_delay: cap on any single backoff.
        jitter: relative jitter amplitude in ``[0, 1]``.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        rng: RngLike = None,
    ) -> None:
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = make_rng(rng)
        self.retries_used = 0

    def backoff(self, attempt: int) -> float:
        """Backoff delay after failed attempt number *attempt* (1-based)."""
        if attempt < 1:
            raise ConfigurationError("attempt must be >= 1")
        raw = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter > 0:
            scale = 1.0 + self.jitter * (2.0 * float(self._rng.random()) - 1.0)
            raw *= scale
        return raw

    def call(
        self,
        fn: Callable[[], Any],
        retry_on: Tuple[Type[BaseException], ...] = (ReproError,),
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> CallOutcome:
        """Run *fn* with retries; never raises *retry_on* exceptions.

        Returns a :class:`CallOutcome` carrying either the value or the
        last error after the budget is exhausted, plus the attempts used
        and the total (simulated) backoff delay accumulated.
        """
        delay = 0.0
        last: Optional[BaseException] = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                value = fn()
            except retry_on as exc:
                last = exc
                if attempt < self.max_attempts:
                    delay += self.backoff(attempt)
                    self.retries_used += 1
                    rec = get_recorder()
                    if rec.enabled:
                        rec.count("resilience.retries")
                    if on_retry is not None:
                        on_retry(attempt, exc)
                continue
            return CallOutcome(value, attempt, delay)
        return CallOutcome(None, self.max_attempts, delay, error=last)


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:  # compact in transition logs
        return self.value


class CircuitBreaker:
    """Failure-rate circuit breaker with half-open probing.

    Standard three-state machine over a sliding window of outcomes:

    * **closed** — calls flow; when at least *min_calls* of the last
      *window* outcomes are recorded and the failure rate reaches
      *failure_rate_threshold*, the breaker opens.
    * **open** — :meth:`allow` refuses everything until
      *recovery_timeout* simulation seconds after opening, then moves to
      half-open.
    * **half-open** — up to *half_open_max_calls* trial calls pass;
      one failure re-opens, enough successes close and clear the window.

    Every transition is recorded as ``(time, from, to)`` in
    :attr:`transitions` so experiments can assert the
    closed → open → half-open → closed path actually happened.
    """

    def __init__(
        self,
        failure_rate_threshold: float = 0.5,
        window: int = 10,
        min_calls: int = 4,
        recovery_timeout: float = 5.0,
        half_open_max_calls: int = 1,
        name: str = "",
    ) -> None:
        if not 0.0 < failure_rate_threshold <= 1.0:
            raise ConfigurationError(
                "failure_rate_threshold must be in (0, 1]"
            )
        if window < 1 or min_calls < 1 or min_calls > window:
            raise ConfigurationError(
                "need 1 <= min_calls <= window"
            )
        if recovery_timeout <= 0:
            raise ConfigurationError("recovery_timeout must be positive")
        if half_open_max_calls < 1:
            raise ConfigurationError("half_open_max_calls must be >= 1")
        self.failure_rate_threshold = failure_rate_threshold
        self.window = window
        self.min_calls = min_calls
        self.recovery_timeout = recovery_timeout
        self.half_open_max_calls = half_open_max_calls
        self.name = name
        self.state = BreakerState.CLOSED
        self.transitions: List[Tuple[float, BreakerState, BreakerState]] = []
        self._outcomes: Deque[bool] = deque(maxlen=window)
        self._opened_at = 0.0
        self._trials_started = 0
        self._trial_successes = 0
        self.calls_refused = 0

    def _transition(self, to: BreakerState, now: float) -> None:
        self.transitions.append((now, self.state, to))
        rec = get_recorder()
        if rec.enabled:
            rec.count(
                "resilience.breaker.transitions",
                labels=(self.state.value, to.value),
                label_names=("from", "to"),
            )
            rec.event(
                "breaker.transition",
                time=now,
                attrs={
                    "breaker": self.name,
                    "from": self.state.value,
                    "to": to.value,
                },
            )
        self.state = to
        if to is BreakerState.OPEN:
            self._opened_at = now
        if to is BreakerState.HALF_OPEN:
            self._trials_started = 0
            self._trial_successes = 0
        if to is BreakerState.CLOSED:
            self._outcomes.clear()

    @property
    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return self._outcomes.count(False) / len(self._outcomes)

    def allow(self, now: float) -> bool:
        """May a call proceed at simulation time *now*?

        Performs the open → half-open transition when the recovery
        timeout has elapsed, and meters half-open trial calls.
        """
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.recovery_timeout:
                self._transition(BreakerState.HALF_OPEN, now)
            else:
                self.calls_refused += 1
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._trials_started >= self.half_open_max_calls:
                self.calls_refused += 1
                return False
            self._trials_started += 1
        return True

    def record_success(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._trial_successes += 1
            if self._trial_successes >= self.half_open_max_calls:
                self._transition(BreakerState.CLOSED, now)
            return
        self._outcomes.append(True)

    def record_failure(self, now: float) -> None:
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.OPEN, now)
            return
        if self.state is BreakerState.OPEN:
            return
        self._outcomes.append(False)
        if (
            len(self._outcomes) >= self.min_calls
            and self.failure_rate >= self.failure_rate_threshold
        ):
            self._transition(BreakerState.OPEN, now)

    def guard(self, now: float) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        if not self.allow(now):
            raise CircuitOpenError(
                f"circuit {self.name or id(self)} is {self.state}"
            )

    def saw_states(self, *states: BreakerState) -> bool:
        """True when every state in *states* was ever entered."""
        entered = {t for _, _, t in self.transitions}
        entered.add(BreakerState.CLOSED)  # initial state
        return all(s in entered for s in states)

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state}, "
            f"failure_rate={self.failure_rate:.2f})"
        )


class BreakerBoard:
    """Per-target circuit breakers created on demand with one config.

    Clients talking to many remote nodes (registry replicas, overlay
    peers) keep one breaker per target so a single bad node cannot
    open-circuit the rest.
    """

    def __init__(self, **breaker_kwargs: Any) -> None:
        CircuitBreaker(**breaker_kwargs)  # reject bad knobs up front
        self._kwargs = dict(breaker_kwargs)
        self._breakers: Dict[EntityId, CircuitBreaker] = {}

    def for_target(self, target: EntityId) -> CircuitBreaker:
        breaker = self._breakers.get(target)
        if breaker is None:
            breaker = CircuitBreaker(name=str(target), **self._kwargs)
            self._breakers[target] = breaker
        return breaker

    def breakers(self) -> Dict[EntityId, CircuitBreaker]:
        return dict(self._breakers)

    def open_targets(self) -> List[EntityId]:
        return sorted(
            t
            for t, b in self._breakers.items()
            if b.state is not BreakerState.CLOSED
        )
