"""Request and result-channel types for the on-demand measurement plane.

A tenant submits a :class:`MeasurementRequest` and gets back a
:class:`ResultChannel` immediately — the channel is the request's whole
lifecycle, visible at every instant:

    PENDING -> ADMITTED -> COMPLETED
                  |     \\-> TRUNCATED   (deadline hit with partial results,
                  |                      or the burst was clamped at admission)
                  |------> TIMED_OUT    (deadline hit, nothing delivered)
    PENDING -> REJECTED                 (admission refused; reason recorded)

``REJECTED``, ``COMPLETED``, ``TRUNCATED`` and ``TIMED_OUT`` are terminal.
Results are delivered as running aggregates plus a bounded sample of
per-probe outcomes (the first :data:`DETAIL_CAP`), so a million-probe
burst cannot hold a million result rows hostage in broker memory.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["RequestState", "MeasurementRequest", "ResultChannel", "DETAIL_CAP"]

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


@dataclass(frozen=True)
class MeasurementRequest:
    """One tenant's measurement request, post-expansion.

    ``kind`` selects the plane: ``"burst"`` schedules probes onto the
    fleet; ``"scope"`` and ``"stream"`` are read-side queries against the
    batch store and the streaming merge tree respectively.  ``pairs``
    holds the expanded, deduplicated (src, dst) server pairs of a burst
    (empty for read queries).
    """

    request_id: int
    tenant_id: str
    kind: str  # "burst" | "scope" | "stream"
    pairs: tuple[tuple[str, str], ...] = ()
    probes_per_pair: int = 1
    payload_bytes: int = 0
    qos: str = "high"
    params: dict = field(default_factory=dict)
    submitted_t: float = 0.0
    deadline_s: float = 600.0

    @property
    def deadline_t(self) -> float:
        return self.submitted_t + self.deadline_s


@dataclass
class ResultChannel:
    """The per-request delivery channel: state + running aggregates.

    The credit ledger fields (``probes_requested`` / ``probes_admitted`` /
    ``probes_launched``) are what the ``injected-probe-ledger`` chaos
    invariant audits: a channel may never launch more than it was
    admitted, and every launched probe must be delivered to exactly one
    channel.
    """

    request_id: int
    tenant_id: str
    kind: str
    state: RequestState = RequestState.PENDING
    submitted_t: float = 0.0
    terminal_t: float | None = None
    # Burst accounting (all zero for read queries).
    probes_requested: int = 0  # post-expansion ask
    probes_admitted: int = 0  # post-clamp grant (credits debited for these)
    probes_launched: int = 0
    probes_completed: int = 0  # delivered outcomes (== launched in sim)
    successes: int = 0
    failures: int = 0
    # Bounded per-probe detail: (t, src, dst, success, rtt_s).
    details: list[tuple] = field(default_factory=list)
    # Read-query result rows.
    rows: list[dict] = field(default_factory=list)
    truncated: bool = False  # the burst was clamped or the deadline cut it
    reject_reason: str | None = None

    @property
    def done(self) -> bool:
        return self.terminal_t is not None  # ``finish`` is the only way in

    @property
    def latency_s(self) -> float | None:
        """Request→result latency (None while the request is in flight)."""
        if self.terminal_t is None:
            return None
        return self.terminal_t - self.submitted_t

    def record_outcome(
        self, t: float, src: str, dst: str, success: bool, rtt_s: float
    ) -> None:
        """Fold one probe outcome in (bounded detail, exact aggregates)."""
        self.probes_completed += 1
        if success:
            self.successes += 1
        else:
            self.failures += 1
        if len(self.details) < DETAIL_CAP:
            self.details.append((t, src, dst, success, rtt_s))

    def record_aggregate(self, successes: int, failures: int) -> None:
        """Fold a class-round outcome in (no per-probe detail)."""
        self.probes_completed += successes + failures
        self.successes += successes
        self.failures += failures

    def finish(self, t: float, state: RequestState) -> None:
        if self.done:
            raise RuntimeError(
                f"request {self.request_id} already terminal ({self.state.value})"
            )
        if state not in TERMINAL_STATES:
            raise ValueError(f"{state} is not a terminal state")
        self.state = state
        self.terminal_t = t
