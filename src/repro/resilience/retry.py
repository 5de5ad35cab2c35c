"""Deterministic retry/backoff with seeded decorrelated jitter.

Everything here is driven by the *simulation clock*: callers pass ``t``
values in and get delays back, and randomness comes from a
``random.Random`` seeded per component via :func:`derive_seed`.  Nothing
reads a wall clock, so the same seed always yields the same retry
schedule — in a standalone test, in the full suite, and across processes
(``derive_seed`` is CRC-based, not Python's salted ``hash()``; see the
``fault_id`` lesson in CHANGES.md).
"""

from __future__ import annotations

import random
import zlib
from collections import deque
from functools import cached_property

# The draws :attr:`RetryPolicy.draws` keeps: a sim-day of half-hourly
# refreshes, so an agent's audit log is bounded in a run of any length.
DRAW_HISTORY = 48


def derive_seed(*parts: object) -> int:
    """Stable seed from identity parts (server id, component name, ...).

    Uses CRC32 over the joined string representation so the value is
    identical across interpreter runs — ``hash()`` is salted per process
    and must never be used for seeds.
    """
    blob = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return zlib.crc32(blob)


class RetryPolicy:
    """Exponential backoff with decorrelated jitter (sim-clock delays).

    ``next_delay()`` implements the AWS "decorrelated jitter" recipe:
    ``delay = min(cap, U(base, prev * multiplier))``, which spreads a
    fleet of retriers over an exponentially growing window instead of
    synchronising them on powers of two.  With ``jitter=False`` it
    degrades to plain truncated exponential backoff (``base * mult^n``),
    which the stampede bench uses as its no-jitter control.

    The last :data:`DRAW_HISTORY` draws are kept in :attr:`draws` so the
    determinism audit can assert two policies with the same seed produced
    identical schedules.  A fleet holds thousands of policies that may
    never draw (an uploader's retries run only when Cosmos fails), so the
    generator and the log are both built at the first draw; the generator
    is seeded then from ``seed``, which draws the same sequence.
    """

    def __init__(
        self,
        base_s: float,
        cap_s: float,
        *,
        multiplier: float = 3.0,
        seed: int = 0,
        jitter: bool = True,
    ) -> None:
        if base_s <= 0:
            raise ValueError(f"base_s must be positive, got {base_s}")
        if cap_s < base_s:
            raise ValueError(f"cap_s ({cap_s}) must be >= base_s ({base_s})")
        if multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {multiplier}")
        self.base_s = float(base_s)
        self.cap_s = float(cap_s)
        self.multiplier = float(multiplier)
        self.jitter = jitter
        self.seed = seed
        self._prev_delay = self.base_s
        self.attempts = 0

    @cached_property
    def _rng(self) -> random.Random:
        return random.Random(self.seed)

    @cached_property
    def draws(self) -> deque[float]:
        """The latest draws, oldest first."""
        return deque(maxlen=DRAW_HISTORY)

    def next_delay(self, *, cap_s: float | None = None) -> float:
        """Delay before the next attempt; grows until reset.

        ``cap_s`` optionally tightens (never loosens) the configured cap
        for this one draw — used where a retry must land inside an
        externally-bounded window (e.g. a pinglist refresh period).
        """
        cap = self.cap_s if cap_s is None else min(self.cap_s, cap_s)
        if self.jitter:
            upper = min(cap, self._prev_delay * self.multiplier)
            low = min(self.base_s, upper)
            delay = self._rng.uniform(low, upper)
        else:
            delay = min(cap, self._prev_delay if self.attempts else self.base_s)
            self._prev_delay = min(cap, delay * self.multiplier)
        if self.jitter:
            self._prev_delay = max(self.base_s, delay)
        self.attempts += 1
        delay = min(delay, cap)
        self.draws.append(delay)
        return delay

    def jitter_period(self, period_s: float, fraction: float) -> float:
        """Spread a fixed period over ``period * U(1-f, 1+f)``.

        Used for steady-state schedules (pinglist refresh) so a fleet
        that booted in lockstep decorrelates instead of thundering.
        Draws from the same seeded stream, so it is audit-visible too.
        """
        if fraction <= 0:
            return period_s
        delay = period_s * self._rng.uniform(1.0 - fraction, 1.0 + fraction)
        self.draws.append(delay)
        return delay

    def reset(self) -> None:
        """Back to the base delay after a success (RNG stream continues)."""
        self._prev_delay = self.base_s
        self.attempts = 0
