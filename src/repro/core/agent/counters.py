"""The agent's PA latency counters (§3.5).

"the Pingmesh Agent performs local calculation on the latency data and
produces a set of performance counters including the packet drop rate, the
network latency at 50th the 99th percentile, etc."

The window accumulator is the stream plane's
:class:`~repro.stream.sketch.ClassStats` — success / failed / 3 s / 9 s
counts, the failure-aware drop rate and a constant-memory, exactly
mergeable quantile sketch, which is the shared-service discipline.  This
module is only its PA-facing face: a probe's RTT comes in as seconds (a
round's as the ``rtt_us`` column its records carry), counters go out as
microseconds under the PA counter names.
"""

from __future__ import annotations

import numpy as np

from repro.stream.sketch import ClassStats

__all__ = ["LatencyCounters"]


class LatencyCounters(ClassStats):
    """Per-window probe statistics for one agent."""

    __slots__ = ()

    def reset_window(self) -> None:
        """Start a new reporting window."""
        ClassStats.__init__(
            self, self.sketch.relative_accuracy, self.sketch.max_buckets
        )

    # -- ingestion --------------------------------------------------------

    def add(self, success: bool, rtt_s: float) -> None:
        """Record one probe outcome."""
        self.observe(success, rtt_s * 1e6)

    def add_many(self, success: np.ndarray, rtt_us: np.ndarray) -> None:
        """Record a round's outcomes, as its ``success`` and ``rtt_us``
        columns, in one :meth:`~ClassStats.observe_many` fold."""
        self.observe_many(success, rtt_us)

    def add_class_round(self, n_failed: int, rtts_s: np.ndarray) -> None:
        """Fold one class-round outcome in: ``n_failed`` connect failures
        plus a vector of successful RTTs."""
        self.observe_aggregate(n_failed, rtts_s * 1e6)

    # -- reporting ----------------------------------------------------------

    @property
    def probes_failed(self) -> int:
        return self.failed

    def snapshot(self) -> dict[str, float]:
        """The PA counter set (§6.2: "The Pingmesh Agent exposes two PA
        counters for every server: the 99th latency and the packet drop
        rate" — plus supporting detail).

        Latency percentiles are *omitted* when the window holds no
        successful probe: a 0.0 sentinel is indistinguishable from a genuine
        0 µs reading downstream, and a black-holed server must not look
        infinitely fast on a dashboard.  The PA simply records no sample for
        the counter that sweep.
        """
        snapshot = {
            "probes_total": float(self.probes),
            "probes_failed": float(self.failed),
            "packet_drop_rate": self.drop_rate(),
        }
        if self.success:
            snapshot["latency_p50_us"] = self.quantile_us(50)
            snapshot["latency_p99_us"] = self.quantile_us(99)
        return snapshot
