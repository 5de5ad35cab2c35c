"""Result channels and the burst ledger of the on-demand measurement plane.

A tenant's submission gets back a :class:`ResultChannel` immediately — the
channel is the request's whole lifecycle, visible at every instant:

    PENDING -> ADMITTED -> COMPLETED
                  |     \\-> TRUNCATED   (deadline hit with partial results,
                  |                      or the burst was clamped at admission)
                  |------> TIMED_OUT    (deadline hit, nothing delivered)
    PENDING -> REJECTED                 (admission refused; reason recorded)

``REJECTED``, ``COMPLETED``, ``TRUNCATED`` and ``TIMED_OUT`` are terminal.
An admitted burst is no object of its own: its pairs are rows of the
broker's work table and its counters a row of the :class:`BurstLedger`,
which the channel's burst counters read through to.  Results are delivered
as those running aggregates plus a bounded sample of per-probe outcomes
(the first :data:`DETAIL_CAP`), so a million-probe burst cannot hold a
million result rows hostage in broker memory.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = ["RequestState", "ResultChannel", "BurstLedger", "DETAIL_CAP"]

# Per-channel cap on retained per-probe detail rows; aggregates keep
# counting past it.
DETAIL_CAP = 64


class RequestState(enum.Enum):
    """Lifecycle states of a measurement request."""

    PENDING = "pending"
    ADMITTED = "admitted"
    COMPLETED = "completed"
    REJECTED = "rejected"
    TRUNCATED = "truncated"
    TIMED_OUT = "timed_out"


TERMINAL_STATES = frozenset(
    {
        RequestState.COMPLETED,
        RequestState.REJECTED,
        RequestState.TRUNCATED,
        RequestState.TIMED_OUT,
    }
)

# Ledger columns.
ADMITTED, LAUNCHED, OK, LOST, QOS = range(5)


class BurstLedger:
    """Per request id, an int64 row: probes admitted, launched, ok and lost,
    and the qos code (zeros for read queries and rejections)."""

    def __init__(self) -> None:
        self.table = np.zeros((1024, 5), dtype=np.int64)


def _counter(column: int):
    return property(lambda channel: int(channel._ledger.table[channel.request_id, column]))


class ResultChannel:
    """The per-request delivery channel: state + running aggregates.

    The credit ledger fields (``probes_requested`` / ``probes_admitted`` /
    ``probes_launched``) are what the ``injected-probe-ledger`` chaos
    invariant audits: a channel may never launch more than it was
    admitted, and every launched probe must be delivered to exactly one
    channel.
    """

    __slots__ = (
        "request_id", "tenant_id", "kind", "state", "submitted_t", "terminal_t",
        "probes_requested", "truncated", "reject_reason", "details", "rows", "_ledger",
    )

    def __init__(
        self, request_id: int, tenant_id: str, kind: str, submitted_t: float, ledger: BurstLedger
    ) -> None:
        self.request_id = request_id
        self.tenant_id = tenant_id
        self.kind = kind
        self.state = RequestState.PENDING
        self.submitted_t = submitted_t
        self.terminal_t: float | None = None
        self.probes_requested = 0  # post-expansion ask
        self.truncated = False  # the burst was clamped or the deadline cut it
        self.reject_reason: str | None = None
        self._ledger = ledger

    # Burst accounting, read through to the ledger (all zero for read queries).
    probes_admitted = _counter(ADMITTED)  # post-clamp grant (credits debited for these)
    probes_launched = _counter(LAUNCHED)
    successes = _counter(OK)
    failures = _counter(LOST)

    def __getattr__(self, name: str) -> list:
        """``details`` (bounded per-probe detail: (t, src, dst, success,
        rtt_s)) and ``rows`` (read-query result rows) are the channel's own
        lists, made on first use: most channels never hold either."""
        if name not in ("details", "rows"):
            raise AttributeError(name)
        setattr(self, name, [])
        return getattr(self, name)

    @property
    def probes_completed(self) -> int:
        """Delivered outcomes (== launched in sim)."""
        return self.successes + self.failures

    @property
    def done(self) -> bool:
        return self.terminal_t is not None  # ``finish`` is the only way in

    @property
    def latency_s(self) -> float | None:
        """Request→result latency (None while the request is in flight)."""
        if self.terminal_t is None:
            return None
        return self.terminal_t - self.submitted_t

    def record_detail(self, t: float, src: str, dst: str, success: bool, rtt_s: float) -> None:
        """Keep one per-probe outcome, while fewer than ``DETAIL_CAP`` are kept
        (the counts are the ledger's)."""
        if len(details := self.details) < DETAIL_CAP:
            details.append((t, src, dst, success, rtt_s))

    def finish(self, t: float, state: RequestState) -> None:
        if self.done:
            raise RuntimeError(
                f"request {self.request_id} already terminal ({self.state.value})"
            )
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state} is not a terminal state")
        self.state = state
        self.terminal_t = t
