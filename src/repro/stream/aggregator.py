"""The per-agent streaming aggregator: probe outcomes -> compact deltas.

Each :class:`~repro.core.agent.agent.PingmeshAgent` owns one
:class:`StreamAggregator`.  Every probe outcome of a round is folded into
the per-peer-class :class:`~repro.stream.sketch.ClassStats` of the current
sub-window (default 10 s of simulated time, aligned to the epoch so every
agent's windows coincide); when a window closes, the aggregator emits one
:class:`StreamDelta` — a constant-size summary, regardless of how many
probes the window saw.

Conservation law (checked by the chaos invariant catalogue): every probe
folded is in exactly one emitted delta or still pending in an open window —
``probes_folded == probes_emitted + probes_pending``, always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.stream.sketch import RELATIVE_ACCURACY, ClassStats

__all__ = ["StreamDelta", "StreamAggregator", "PEER_CLASSES"]

# The peer classes the pinglist generator emits (§3.3.1 levels + §6.2 VIP).
PEER_CLASSES = ("intra-pod", "tor-level", "inter-dc", "vip")


@dataclass(frozen=True)
class StreamDelta:
    """One agent's summary of one closed sub-window.

    ``classes`` maps peer class -> :meth:`ClassStats.to_payload` dict; the
    payload is plain data (JSON-able) so the delta models what would cross
    the wire to the ingest VIP.
    """

    server_id: str
    dc: int
    podset: int
    pod: int
    window_start: float
    window_end: float
    classes: dict
    probes: int
    # "pair": one server's per-peer-class outcomes (pod-resolvable);
    # "class": a (dc, podset) shard's fault-untouched bulk, pod-agnostic
    # (``pod == -1``).  Consumers needing pod localization (the black-hole
    # feed) use pair deltas; DC-level rollups merge both.
    granularity: str = "pair"


class StreamAggregator:
    """Folds one agent's probe outcomes into per-class window sketches."""

    def __init__(
        self,
        server_id: str,
        dc: int,
        podset: int,
        pod: int,
        window_s: float = 10.0,
        relative_accuracy: float = RELATIVE_ACCURACY,
        max_buckets: int = 2048,
        granularity: str = "pair",
    ) -> None:
        if window_s <= 0:
            raise ValueError(f"window must be positive: {window_s}")
        if granularity not in ("pair", "class"):
            raise ValueError(f"unknown granularity: {granularity!r}")
        self.server_id = server_id
        self.dc = dc
        self.podset = podset
        self.pod = pod
        self.granularity = granularity
        self.window_s = window_s
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        # window id (= floor(t / window_s)) -> class -> ClassStats
        self._open: dict[int, dict] = {}
        self.probes_folded = 0
        self.probes_emitted = 0
        self.deltas_emitted = 0

    # -- ingestion ---------------------------------------------------------

    def _window_stats(self, t: float, cls: str):
        window_id = math.floor(t / self.window_s)
        window = self._open.get(window_id)
        if window is None:
            window = self._open[window_id] = {}
        stats = window.get(cls)
        if stats is None:
            stats = window[cls] = ClassStats(
                self.relative_accuracy, self.max_buckets
            )
        return stats

    def observe(self, t: float, cls: str, success: bool, rtt_us: float) -> None:
        """Fold one probe outcome into its sub-window."""
        self._window_stats(t, cls).observe(success, rtt_us)
        self.probes_folded += 1

    def observe_round(self, t: float, classes, success, rtt_us) -> None:
        """Fold a whole round, as columns: ``classes`` maps each peer class
        to its row positions (a pinglist fixes them:
        :attr:`~repro.core.dsa.records.StaticColumns.classes`), ``success``
        and ``rtt_us`` are the round's outcome arrays.

        A round lands at one instant, so all outcomes share one window.
        """
        for cls, rows in classes.items():
            self._window_stats(t, cls).observe_many(success[rows], rtt_us[rows])
        self.probes_folded += len(success)

    def observe_class_round(self, t: float, cls: str, n_failed: int, rtts_us) -> None:
        """Fold one closed-form class-round outcome: a failure count plus
        the successful RTT vector (µs), all landing at instant ``t``."""
        self._window_stats(t, cls).observe_aggregate(n_failed, rtts_us)
        self.probes_folded += n_failed + len(rtts_us)

    # -- emission ----------------------------------------------------------

    def _emit(self, window_id: int) -> StreamDelta:
        window = self._open.pop(window_id)
        probes = sum(stats.probes for stats in window.values())
        delta = StreamDelta(
            server_id=self.server_id,
            dc=self.dc,
            podset=self.podset,
            pod=self.pod,
            window_start=window_id * self.window_s,
            window_end=(window_id + 1) * self.window_s,
            classes={cls: stats.to_payload() for cls, stats in window.items()},
            probes=probes,
            granularity=self.granularity,
        )
        self.probes_emitted += probes
        self.deltas_emitted += 1
        return delta

    def flush_closed(self, now: float) -> list[StreamDelta]:
        """Emit every window that has fully elapsed (``end <= now``)."""
        current = math.floor(now / self.window_s)
        closed = sorted(wid for wid in self._open if wid < current)
        return [self._emit(wid) for wid in closed]

    def flush_all(self) -> list[StreamDelta]:
        """Emit everything, open windows included (shutdown/teardown)."""
        return [self._emit(wid) for wid in sorted(self._open)]

    # -- accounting --------------------------------------------------------

    @property
    def probes_pending(self) -> int:
        return self.probes_folded - self.probes_emitted

    @property
    def memory_buckets(self) -> int:
        """Total occupied sketch buckets across open windows (bounded:
        open windows are bounded by the flush cadence, buckets per sketch
        by ``max_buckets``)."""
        return sum(
            stats.sketch.memory_buckets
            for window in self._open.values()
            for stats in window.values()
        )
