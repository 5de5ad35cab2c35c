"""Per-backend circuit breaker: closed -> open -> half-open -> closed.

A breaker tracks *request* evidence for one backend (one controller
replica DIP, say).  Consecutive failures trip it OPEN; after
``open_duration_s`` of sim time it admits exactly one half-open probe
request; the probe's outcome either re-closes the breaker or re-opens
it for another window.  Unlike the SLB's periodic health sweep, a
breaker reacts on the request path itself — which is what catches a
*slow* (browned-out) replica that still answers health pings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Trip/recover tuning for a :class:`CircuitBreaker`."""

    failure_threshold: int = 3
    open_duration_s: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.open_duration_s < 0:
            raise ValueError("open_duration_s must be >= 0")


class CircuitBreaker:
    """Sim-clock circuit breaker for a single backend."""

    def __init__(self, config: CircuitBreakerConfig | None = None) -> None:
        self.config = config or CircuitBreakerConfig()
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_t = 0.0
        self._probe_outstanding = False
        self.opened_count = 0
        self.transitions: list[tuple[float, BreakerState]] = []

    def _transition(self, t: float, state: BreakerState) -> None:
        self.state = state
        self.transitions.append((t, state))

    def allow(self, t: float) -> bool:
        """May a request be sent to this backend at sim time ``t``?

        In HALF_OPEN only a single outstanding probe is admitted; further
        requests are refused until its outcome is recorded.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if t - self._opened_t >= self.config.open_duration_s:
                self._transition(t, BreakerState.HALF_OPEN)
                self._probe_outstanding = False
            else:
                return False
        # HALF_OPEN: admit one probe at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def record_success(self, t: float) -> None:
        self._consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            # One successful half-open probe re-closes the breaker.
            self._probe_outstanding = False
            self._transition(t, BreakerState.CLOSED)

    def record_failure(self, t: float) -> None:
        self._consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._probe_outstanding = False
            self._open(t)
        elif (
            self.state is BreakerState.CLOSED
            and self._consecutive_failures >= self.config.failure_threshold
        ):
            self._open(t)

    def _open(self, t: float) -> None:
        self._opened_t = t
        self._consecutive_failures = 0
        self.opened_count += 1
        self._transition(t, BreakerState.OPEN)

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures
