"""Agent-side pinglist staleness state machine.

The paper's §3.4.2 rules are binary: probing or fail-closed.  Between
those two lives the degraded mode every long-lived agent actually runs
in — the controller missed a refresh or two, the cached pinglist is
still valid policy, keep probing it and *say so*.  This module names the
three states and validates every transition, so the fail-closed triggers
("3 consecutive connect failures, or one 404") are asserted structurally
instead of being an emergent property of scattered counters:

``FRESH``
    Last refresh succeeded; probing the current pinglist.
``STALE``
    1-2 consecutive refresh failures; probing the *cached* pinglist,
    records tagged ``pinglist_stale``, refresh retried with backoff.
``FAIL_CLOSED``
    3rd consecutive connect failure, or a 404 from any state: stop
    probing entirely (the kill switch / decommission path).

Legal transitions::

    FRESH -> STALE          refresh failure #1
    STALE -> STALE          refresh failure #2 (internal, not recorded)
    STALE -> FAIL_CLOSED    refresh failure #3
    any   -> FAIL_CLOSED    404 (pinglist deliberately absent)
    STALE | FAIL_CLOSED -> FRESH   successful refresh (recovery)
"""

from __future__ import annotations

import enum
from typing import Callable


class PinglistState(enum.Enum):
    FRESH = "fresh"
    STALE = "stale"
    FAIL_CLOSED = "fail_closed"


_LEGAL = {
    (PinglistState.FRESH, PinglistState.STALE),
    (PinglistState.FRESH, PinglistState.FAIL_CLOSED),
    (PinglistState.STALE, PinglistState.FAIL_CLOSED),
    (PinglistState.STALE, PinglistState.FRESH),
    (PinglistState.FAIL_CLOSED, PinglistState.FRESH),
}


class IllegalTransitionError(RuntimeError):
    """A transition outside the documented state machine was attempted."""


class StalenessTracker:
    """Validated FRESH/STALE/FAIL_CLOSED tracker with a transition log.

    ``on_transition(old, new)``, when set by an owner, is called after every
    recorded transition — :meth:`_move` is the only place state changes, so
    a fleet-level gauge fed from it never needs a recount.
    """

    def __init__(self) -> None:
        self.state = PinglistState.FRESH
        self.transitions: list[tuple[float, PinglistState, PinglistState, str]] = []
        self.on_transition: Callable[[PinglistState, PinglistState], None] | None = None

    def _move(self, t: float, target: PinglistState, reason: str) -> None:
        if target is self.state:
            return
        if (self.state, target) not in _LEGAL:
            raise IllegalTransitionError(
                f"illegal pinglist transition {self.state.value} -> {target.value}"
                f" ({reason})"
            )
        self.transitions.append((t, self.state, target, reason))
        previous, self.state = self.state, target
        if self.on_transition is not None:
            self.on_transition(previous, target)

    def refresh_succeeded(self, t: float) -> None:
        self._move(t, PinglistState.FRESH, "refresh-success")

    def refresh_failed(self, t: float, consecutive_failures: int, limit: int) -> None:
        """A connect failure: STALE until the paper's limit, then closed.

        An agent already FAIL_CLOSED (e.g. by a 404) stays closed on a
        later connect failure — only a successful refresh reopens it.
        """
        if (
            consecutive_failures >= limit
            or self.state is PinglistState.FAIL_CLOSED
        ):
            self._move(t, PinglistState.FAIL_CLOSED, "consecutive-failures")
        else:
            self._move(t, PinglistState.STALE, "refresh-failure")

    def pinglist_missing(self, t: float) -> None:
        """A 404 fails closed from any state — the kill switch."""
        self._move(t, PinglistState.FAIL_CLOSED, "pinglist-404")

    @property
    def fresh(self) -> bool:
        return self.state is PinglistState.FRESH

    @property
    def stale(self) -> bool:
        return self.state is PinglistState.STALE

    @property
    def fail_closed(self) -> bool:
        return self.state is PinglistState.FAIL_CLOSED
