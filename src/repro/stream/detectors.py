"""Online detectors over the streaming merge tree.

Four detectors run on every plane tick, each reading rollups from the
:class:`~repro.stream.ingest.StreamIngestService` and reporting through the
shared :class:`~repro.core.dsa.alerts.AlertEngine` episode machinery with
``plane="stream"``:

* :class:`StreamSlaDetector` — the §4.3 thresholds (the *same*
  ``MAX_*`` constants of :mod:`repro.core.dsa.alerts` the batch plane
  uses), evaluated per DC over the last few sub-windows instead of a
  10-minute batch window.  The shared metrics (``drop_rate``, ``p99_us``)
  use the *same definitions* as the batch SLA — ``drop_rate`` is the §4.2
  signature heuristic over successful probes — so both planes agree on
  one episode and never ping-pong it open/closed.  Outright connection
  failures (which §4.2 deliberately excludes: a dead receiver is not a
  network drop) get the stream-only metric ``failure_rate``, judged
  against the same threshold with its own episodes.
* :class:`StreamInterDcSlaDetector` — the same machinery for the
  ``inter-dc`` peer class only, judged per source DC against the
  inter-DC thresholds (scope ``dc-pair``); the intra-DC detectors
  exclude that class so a healthy WAN RTT never trips the 5 ms limit.
* :class:`EwmaDriftDetector` — flags sustained median-latency drift
  against an exponentially-weighted baseline, catching degradations that
  stay under the hard P99 threshold.
* :class:`StreamBlackholeFeed` — surfaces pods that have gone all-failure
  while their DC still carries traffic, as *candidates* for the batch
  black-hole verifier.  The batch plane stays authoritative: candidates
  are confirmed or dismissed against the daily
  :class:`~repro.core.dsa.blackhole.BlackholeReport`.

Tiny sub-windows are noisy — a single TCP retransmission in a ~200-probe
window is already past the paper's 1e-3 drop threshold.  The SLA detector
therefore (a) merges the last ``eval_windows`` sub-windows before judging,
(b) demands ``min_drop_events`` independent dropped-connection events for
a drop-rate breach, and (c) applies the same ``MIN_PROBE_COUNT`` floor as
batch.  The drift detector requires a warm-up period, a k-sigma *and*
relative excursion, and two consecutive drifted windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.dsa.alerts import (
    MIN_PROBE_COUNT,
    Alert,
    AlertEngine,
    drop_limit_for,
    p99_limit_for,
)
from repro.core.dsa.anomaly import EwmaBaseline
from repro.core.dsa.sla import SlaScope

__all__ = [
    "StreamSlaDetector",
    "StreamInterDcSlaDetector",
    "EwmaDriftDetector",
    "StreamBlackholeCandidate",
    "StreamBlackholeFeed",
    "PinglistStalenessGauge",
]

# The SLA detectors' noise guards (see above), fixed like the limits they guard.
EVAL_WINDOWS = 3
MIN_DROP_EVENTS = 3
MIN_P99_SAMPLES = 200


class StreamSlaDetector:
    """§4.3 thresholds per DC, at sub-window cadence, with noise guards.

    :class:`StreamInterDcSlaDetector` shares this body; the two differ only
    in the class attributes below and the ``min_p99_samples`` default.
    """

    scope = SlaScope.DATACENTER.value
    key_format = "dc{}"
    # The ``inter-dc`` class is excluded: its healthy latency is WAN-sized
    # and is judged by StreamInterDcSlaDetector against the inter-DC
    # thresholds, exactly as the batch tracker routes cross-DC rows to the
    # ``dc-pair`` scope.
    peer_class: str | None = None
    excluded_class: str | None = "inter-dc"

    def __init__(
        self,
        alert_engine: AlertEngine,
        eval_windows: int = EVAL_WINDOWS,
        min_drop_events: int = MIN_DROP_EVENTS,
        min_p99_samples: int = MIN_P99_SAMPLES,
    ) -> None:
        if eval_windows < 1:
            raise ValueError(f"eval_windows must be >= 1: {eval_windows}")
        self.alert_engine = alert_engine
        self.eval_windows = eval_windows
        self.min_drop_events = min_drop_events
        self.min_p99_samples = min_p99_samples

    def evaluate(self, t: float, ingest) -> list[Alert]:
        """Judge each DC on the merge of the newest ``eval_windows``."""
        return self._judge_windows(t, ingest)

    def _judge_windows(self, t: float, ingest) -> list[Alert]:
        """Judge every DC series of the newest ``eval_windows``, merged.

        A drop or failure breach needs ``min_drop_events`` independent
        events, not one unlucky retransmission in a tiny window; P99 below
        ``min_p99_samples`` is just the max of a small sample, so it is not
        judged until the merged windows carry enough signal.
        """
        scope = self.scope
        drop_limit = drop_limit_for(scope)
        judge = self.alert_engine.judge
        starts = ingest.latest_windows(self.eval_windows)
        merged = ingest.merged_by_dc(starts, self.peer_class, self.excluded_class)
        fired: list[Alert | None] = []
        for dc, stats in sorted(merged.items()):
            if stats.probes < MIN_PROBE_COUNT:
                continue
            key = self.key_format.format(dc)
            # (metric, value, independent events behind it)
            series = []
            if stats.success > 0:  # §4.2 rate is undefined with no successes
                series.append(("drop_rate", stats.syn_drop_rate(), stats.signature_events))
            series.append(("failure_rate", stats.failure_rate(), stats.failed))
            for metric, value, events in series:
                enough = events >= self.min_drop_events
                fired.append(
                    judge(t, scope, key, metric, value, drop_limit, enough, "stream")
                )
            if stats.sketch.count >= self.min_p99_samples:
                p99 = stats.quantile_us(99.0)
                p99_limit = p99_limit_for(scope)
                fired.append(judge(t, scope, key, "p99_us", p99, p99_limit, plane="stream"))
        return [alert for alert in fired if alert]


class StreamInterDcSlaDetector(StreamSlaDetector):
    """Inter-DC thresholds over the ``inter-dc`` class, per source DC.

    Stream deltas carry no destination DC (an agent summarizes its whole
    sub-window), so the streaming rollup is one series per *source* DC —
    key ``dc{n}->*`` — judged against the shared inter-DC limits
    (``MAX_INTERDC_*`` in :mod:`repro.core.dsa.alerts`).  The batch plane keeps
    per-pair resolution (``dc0->dc1``); the stream series is the coarse
    early-warning sum of that DC's WAN directions.  Inter-DC probe volume
    is a sliver of the fleet's (a few pivots per podset), so the sample
    floors default lower than the intra-DC detector's.
    """

    scope = SlaScope.DC_PAIR.value
    key_format = "dc{}->*"
    peer_class = "inter-dc"
    excluded_class = None

    def __init__(
        self,
        alert_engine: AlertEngine,
        eval_windows: int = EVAL_WINDOWS,
        min_drop_events: int = MIN_DROP_EVENTS,
        min_p99_samples: int = 50,
    ) -> None:
        super().__init__(alert_engine, eval_windows, min_drop_events, min_p99_samples)

    def evaluate(self, t: float, ingest) -> list[Alert]:
        """Judge each source DC's WAN class over the newest windows."""
        return self._judge_windows(t, ingest)


class EwmaDriftDetector:
    """Sustained per-DC median drift vs an EWMA baseline.

    Fires metric ``p50_drift_us`` when the window P50 exceeds the baseline
    by ``k_sigma`` EWMA standard deviations *and* by ``min_rel_drift``
    relatively, for ``consecutive`` windows in a row.  The baseline is
    frozen while drifted so a long incident cannot teach itself normal.
    """

    def __init__(
        self,
        alert_engine: AlertEngine,
        alpha: float = 0.3,
        k_sigma: float = 6.0,
        warmup_windows: int = 6,
        min_rel_drift: float = 0.5,
        consecutive: int = 2,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError(f"alpha must be in (0,1]: {alpha}")
        if warmup_windows < 2:
            raise ValueError(f"warmup too short: {warmup_windows}")
        self.alert_engine = alert_engine
        self.alpha = alpha
        self.k_sigma = k_sigma
        self.warmup_windows = warmup_windows
        self.min_rel_drift = min_rel_drift
        self.consecutive = consecutive
        self._states: dict[int, EwmaBaseline] = {}
        self._streaks: dict[int, int] = {}
        self._last_window: float | None = None

    def evaluate(self, t: float, ingest) -> list[Alert]:
        starts = ingest.latest_windows(1)
        if not starts:
            return []
        newest = starts[0]
        if self._last_window is not None and newest <= self._last_window:
            return []  # no new window landed (e.g. ingest VIP dark)
        self._last_window = newest
        fired: list[Alert] = []
        # Exclude inter-dc: a window whose class mix shifts between local
        # and WAN probes would read as "drift" on a healthy fleet.
        merged = ingest.merged_by_dc(starts, exclude_cls="inter-dc")
        for dc, stats in sorted(merged.items()):
            p50 = stats.quantile_us(50.0)
            if p50 is None:
                continue
            baseline = self._states.setdefault(dc, EwmaBaseline(self.alpha))
            if baseline.n < self.warmup_windows:
                baseline.update(p50)
                continue
            sigma = math.sqrt(max(baseline.var, 0.0))
            limit = max(
                baseline.mean + self.k_sigma * sigma,
                baseline.mean * (1.0 + self.min_rel_drift),
            )
            drifted = p50 > limit
            streak = self._streaks.get(dc, 0) + 1 if drifted else 0
            self._streaks[dc] = streak
            if not drifted:
                baseline.update(p50)
            # A drifted window short of ``consecutive`` holds the episode.
            alert = self.alert_engine.judge(
                t, SlaScope.DATACENTER.value, f"dc{dc}", "p50_drift_us", p50,
                limit, streak >= self.consecutive, plane="stream",
            )
            if alert:
                fired.append(alert)
        return fired


@dataclass(frozen=True)
class StreamBlackholeCandidate:
    """A pod that streamed all-failure while its DC carried traffic."""

    t: float
    dc: int
    podset: int
    pod: int
    failed: int

    @property
    def tor_key(self) -> str:
        return f"dc{self.dc}/pod{self.pod}"


class StreamBlackholeFeed:
    """Streaming candidate feed for the batch black-hole verifier.

    A pod becomes a candidate when, over the newest ``eval_windows``,
    every probe it sourced failed (``>= min_failed`` of them) while its DC
    overall still succeeded somewhere — the §5 "part of the podset"
    asymmetry, observed in seconds.  Candidates are episodic (one per
    darkness spell) and are only ever *suggestions*: the batch black-hole
    report stays authoritative.
    """

    def __init__(self, min_failed: int = 5, eval_windows: int = EVAL_WINDOWS) -> None:
        self.min_failed = min_failed
        self.eval_windows = eval_windows
        self.candidates: list[StreamBlackholeCandidate] = []
        self._active: set[tuple[int, int, int]] = set()

    def evaluate(self, t: float, ingest) -> list[StreamBlackholeCandidate]:
        starts = ingest.latest_windows(self.eval_windows)
        pods = ingest.merged_by_pod(starts)
        dc_success: dict[int, int] = {}
        for (dc, _podset, _pod), stats in pods.items():
            dc_success[dc] = dc_success.get(dc, 0) + stats.success
        new: list[StreamBlackholeCandidate] = []
        for (dc, podset, pod), stats in sorted(pods.items()):
            if pod < 0:
                # Class-granularity shard roll-up: no pod to localize.  It
                # still counted toward dc_success above — the healthy bulk
                # is what proves the DC "succeeded somewhere".
                continue
            dark = (
                stats.success == 0
                and stats.failed >= self.min_failed
                and dc_success.get(dc, 0) > 0
            )
            key = (dc, podset, pod)
            if dark:
                if key not in self._active:
                    self._active.add(key)
                    candidate = StreamBlackholeCandidate(
                        t=t, dc=dc, podset=podset, pod=pod,
                        failed=stats.failed,
                    )
                    self.candidates.append(candidate)
                    new.append(candidate)
            else:
                self._active.discard(key)
        return new


class PinglistStalenessGauge:
    """Control-plane health gauge: fraction of agents on a STALE pinglist.

    Unlike the latency detectors this one watches the *control* plane —
    agents in the STALE state are still probing (on a cached pinglist),
    so the data plane looks perfectly healthy while the controller is
    degraded.  The gauge holds the latest fleet-wide fraction and drives
    one episodic ``fleet/pinglist stale_fraction`` alert through the
    shared engine: it breaches when more than ``alert_fraction`` of the
    fleet is stale and pairs with a recovery once refreshes succeed again.
    """

    def __init__(self, alert_engine: AlertEngine, alert_fraction: float = 0.25) -> None:
        if not 0 < alert_fraction < 1:
            raise ValueError(f"alert_fraction must be in (0,1): {alert_fraction}")
        self.alert_engine = alert_engine
        self.alert_fraction = alert_fraction
        self.stale_agents = 0
        self.total_agents = 0

    @property
    def stale_fraction(self) -> float:
        if self.total_agents == 0:
            return 0.0
        return self.stale_agents / self.total_agents

    def observe(self, t: float, stale_agents: int, total_agents: int) -> Alert | None:
        self.stale_agents = stale_agents
        self.total_agents = total_agents
        # ``stale_fraction`` is 0 with no agents, under any alert fraction.
        return self.alert_engine.judge(
            t, "fleet", "pinglist", "stale_fraction", self.stale_fraction,
            self.alert_fraction, plane="stream",
        )
