"""Simulated time and event scheduling.

Everything in the reproduction runs against a :class:`SimClock` rather than
wall-clock time.  The clock is a plain monotonically increasing float of
seconds since simulation start; an event queue lets components schedule
callbacks (agent probe rounds, controller refreshes, DSA job cadences).

The design follows the classic discrete-event simulation loop: pop the
earliest event, advance the clock to its deadline, run the callback.  Events
scheduled at equal deadlines run in insertion order, which keeps runs
deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["SimClock", "EventQueue", "ScheduledEvent", "SECONDS_PER_DAY"]

SECONDS_PER_DAY = 86_400.0


class SimClock:
    """A monotonically advancing simulated clock.

    The clock only moves forward via :meth:`advance_to`;
    attempting to move it backwards raises ``ValueError``.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time: {start}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, deadline: float) -> None:
        """Move the clock forward to ``deadline`` seconds."""
        if deadline < self._now:
            raise ValueError(
                f"cannot move clock backwards: now={self._now}, deadline={deadline}"
            )
        self._now = float(deadline)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"


@dataclass(order=True)
class ScheduledEvent:
    """An event in the queue, ordered by (deadline, sequence number)."""

    deadline: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(compare=False, default="")


class EventQueue:
    """A deterministic discrete-event queue bound to a :class:`SimClock`.

    Callbacks may schedule further events; the queue drains until empty or
    until a time horizon is reached.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._heap: list[ScheduledEvent] = []
        self._seq = itertools.count()
        self._events_run = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def events_run(self) -> int:
        """Total number of callbacks executed so far."""
        return self._events_run

    def schedule_at(
        self, deadline: float, callback: Callable[[], None], name: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run at absolute time ``deadline``."""
        if deadline < self.clock.now:
            raise ValueError(
                f"cannot schedule in the past: now={self.clock.now}, deadline={deadline}"
            )
        event = ScheduledEvent(deadline, next(self._seq), callback, name)
        heapq.heappush(self._heap, event)
        return event

    def schedule_after(
        self, delay: float, callback: Callable[[], None], name: str = ""
    ) -> ScheduledEvent:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        return self.schedule_at(self.clock.now + delay, callback, name)

    def peek_deadline(self) -> float | None:
        """Deadline of the next event, or ``None`` if the queue is empty."""
        return self._heap[0].deadline if self._heap else None

    def run_next(self) -> bool:
        """Run the earliest pending event.  Returns ``False`` if none remain."""
        if not self._heap:
            return False
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.deadline)
        event.callback()
        self._events_run += 1
        return True

    def run_until(self, horizon: float, max_events: int | None = None) -> int:
        """Run events with deadlines ``<= horizon``; advance the clock to it.

        Returns the number of events executed.  ``max_events`` is a safety
        valve against runaway self-rescheduling loops.
        """
        executed = 0
        while True:
            if max_events is not None and executed >= max_events:
                break
            deadline = self.peek_deadline()
            if deadline is None or deadline > horizon:
                break
            self.run_next()
            executed += 1
        if horizon > self.clock.now:
            self.clock.advance_to(horizon)
        return executed

    def run_for(self, duration: float, max_events: int | None = None) -> int:
        """Run events for ``duration`` simulated seconds from now."""
        return self.run_until(self.clock.now + duration, max_events=max_events)
