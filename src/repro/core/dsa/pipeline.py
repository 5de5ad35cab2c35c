"""DSA orchestration: the 10-min / 1-hour / 1-day pipelines (§3.5).

"We have 10-min, 1-hour, 1-day jobs at different time scales.  The 10-min
jobs are our near real-time ones.  For the 10-min jobs, the time interval
from when the latency data is generated to when the data is consumed (e.g.,
alert fired, dashboard figure generated) is around 20 minutes."

That 20-minute figure is the sum of the processing cadence (10 min) and the
ingestion delay; we model the latter as ``ingestion_delay_s``: a job firing
at T processes the window [T − delay − period, T − delay).

The pipeline lands results in the :class:`ResultsDatabase`, drives the alert
engine, builds the per-DC heatmaps + pattern classifications, runs the
silent-drop detector near-real-time and the black-hole detector daily, and
applies the two-month retention policy.

Each job tick EXTRACTs its time window from the store exactly once: a small
window cache (keyed on window bounds and the store's data version) shares
the rowset between the SCOPE jobs, the SLA tracker, the detectors and the
heatmaps of a tick, and across coinciding ticks of different cadences.  The
window is column-backed and the hourly and daily jobs read it in place —
what they turn into Python objects is their results.  Only the 10-minute
job materializes its (much shorter) window as rows, for the heatmap and the
silent-drop watch, and it keeps none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dsa.alerts import AlertEngine
from repro.core.dsa.anomaly import SeriesAnomalyTracker
from repro.core.dsa.blackhole import BlackholeDetector
from repro.core.dsa.database import ResultsDatabase
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.dsa.scope_jobs import (
    job_interdc_latency,
    job_podpair_latency,
    job_scope_drop_rates,
    window_rows,
)
from repro.core.dsa.silentdrop import SilentDropDetector
from repro.core.dsa.sla import SlaScope, SlaTracker
from repro.core.dsa.visualization import LatencyHeatmap
from repro.cosmos.jobs import JobManager, ScopeJob
from repro.netsim.simclock import SECONDS_PER_DAY

__all__ = ["DsaConfig", "DsaPipeline"]

TEN_MINUTES = 600.0
ONE_HOUR = 3600.0
RETENTION_S = 60 * SECONDS_PER_DAY  # "We keep Pingmesh historical data for 2 months"


@dataclass(frozen=True)
class DsaConfig:
    ingestion_delay_s: float = 600.0
    near_real_time_period_s: float = TEN_MINUTES
    hourly_period_s: float = ONE_HOUR
    daily_period_s: float = SECONDS_PER_DAY
    retention_s: float = RETENTION_S

    def __post_init__(self) -> None:
        if self.ingestion_delay_s < 0:
            raise ValueError(f"delay must be >= 0: {self.ingestion_delay_s}")
        for name in ("near_real_time_period_s", "hourly_period_s", "daily_period_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


class DsaPipeline:
    """Wires the SCOPE jobs, detectors and alerting over one store."""

    def __init__(
        self,
        store,
        database: ResultsDatabase,
        job_manager: JobManager,
        topology,
        fabric=None,
        device_manager=None,
        sla_tracker: SlaTracker | None = None,
        alert_engine: AlertEngine | None = None,
        blackhole_detector: BlackholeDetector | None = None,
        silentdrop_detector: SilentDropDetector | None = None,
        config: DsaConfig | None = None,
    ) -> None:
        self.store = store
        self.database = database
        self.job_manager = job_manager
        self.topology = topology
        self.fabric = fabric
        self.device_manager = device_manager
        self.sla_tracker = sla_tracker or SlaTracker()
        self.alert_engine = alert_engine or AlertEngine()
        self.blackhole_detector = blackhole_detector or BlackholeDetector()
        self.silentdrop_detector = silentdrop_detector or SilentDropDetector()
        self.config = config or DsaConfig()
        self.incidents = []  # silent-drop incidents, chronological
        self.blackhole_reports = []
        # Baseline-relative anomaly detection on the hourly SLA series —
        # the "data mining" layer on top of the fixed thresholds (§4.3).
        self.anomaly_tracker = SeriesAnomalyTracker()
        # (start, end, store.version) -> extracted RowSet.  Bounded: ticks
        # at different cadences overlap within a burst, not across history.
        self._window_cache: dict[tuple[float, float, int], object] = {}

    # -- registration -----------------------------------------------------------

    def register_jobs(self) -> None:
        """Register the three cadences with the Job Manager."""
        config = self.config
        self.job_manager.register(
            ScopeJob("dsa-10min", config.near_real_time_period_s, self.run_10min_job)
        )
        self.job_manager.register(
            ScopeJob("dsa-1hour", config.hourly_period_s, self.run_hourly_job)
        )
        self.job_manager.register(
            ScopeJob("dsa-1day", config.daily_period_s, self.run_daily_job)
        )

    def _window(self, t: float, period: float) -> tuple[float, float]:
        end = max(0.0, t - self.config.ingestion_delay_s)
        start = max(0.0, end - period)
        return start, end

    def _window_rowset(self, start: float, end: float):
        """EXTRACT one window, at most once per (window, store version).

        Every consumer of a tick — and coinciding ticks of other cadences —
        shares the same rowset; the cache key includes the store's data
        version, so any append/expiry invalidates naturally.
        """
        key = (start, end, getattr(self.store, "version", 0))
        rows = self._window_cache.get(key)
        if rows is None:
            if len(self._window_cache) >= 8:
                self._window_cache.clear()
            rows = self._window_cache[key] = window_rows(self.store, start, end)
        return rows

    # -- the jobs -----------------------------------------------------------------

    def run_10min_job(self, t: float) -> list[dict]:
        """Near-real-time: pod-pair aggregates, heatmaps, silent-drop watch."""
        start, end = self._window(t, self.config.near_real_time_period_s)
        if end <= start:
            return []
        window = self._window_rowset(start, end)
        podpair = job_podpair_latency(self.store, start, end, rows=window)
        self.database.insert("podpair_10min", podpair)
        if len(self.topology.dcs) > 1:
            self.database.insert(
                "interdc_10min",
                job_interdc_latency(self.store, start, end, rows=window),
            )

        rows = window.output()
        pattern_rows = []
        for dc in self.topology.dcs:
            heatmap = LatencyHeatmap.from_records(
                rows, dc.spec.n_pods, dc.spec.pods_per_podset, dc=dc.dc_index
            )
            classification = heatmap.classify()
            pattern_rows.append(
                {
                    "t": end,
                    "dc": dc.dc_index,
                    "pattern": classification.pattern.value,
                    "affected_podsets": list(classification.affected_podsets),
                    "detail": classification.detail,
                }
            )
        self.database.insert("patterns_10min", pattern_rows)

        # DC-scope SLA check for fast alerting.
        slas = self.sla_tracker.track_scope(window, SlaScope.DATACENTER, start, end)
        self.alert_engine.evaluate(slas)

        self._silent_drop_watch(rows, end)
        return podpair

    def _silent_drop_watch(self, rows: list[dict], t: float) -> None:
        incidents = self.silentdrop_detector.detect(rows, t=t)
        for incident in incidents:
            if self.fabric is not None:
                self.silentdrop_detector.localize(incident, self.fabric)
            if (
                self.device_manager is not None
                and incident.localized_switch is not None
            ):
                self.silentdrop_detector.file_rma(incident, self.device_manager)
            self.incidents.append(incident)
            self.database.insert(
                "silentdrop_incidents",
                [
                    {
                        "t": incident.t,
                        "dc": incident.dc,
                        "measured_drop_rate": incident.measured_drop_rate,
                        "suspected_tier": incident.suspected_tier,
                        "localized_switch": incident.localized_switch,
                    }
                ],
            )

    def run_hourly_job(self, t: float) -> list[dict]:
        """Full SLA tracking at every scope, plus alerting."""
        start, end = self._window(t, self.config.hourly_period_s)
        if end <= start:
            return []
        slas = self.sla_tracker.track_all(self._window_rowset(start, end), start, end)
        sla_rows = [sla.as_row() for sla in slas]
        self.database.insert("sla_hourly", sla_rows)
        # Alert on macro scopes only: single-server P99 windows are too
        # small-sample to hold the 5 ms threshold without false alarms.
        # Reuse the rows already materialized above — as_row once per SLA.
        macro_scopes = (SlaScope.DATACENTER, SlaScope.PODSET, SlaScope.SERVICE)
        macro = [
            (sla, row)
            for sla, row in zip(slas, sla_rows)
            if sla.scope in macro_scopes
        ]
        alerts = self.alert_engine.evaluate([sla for sla, _row in macro])
        self.database.insert("alerts", [alert.as_row() for alert in alerts])
        anomalies = self.anomaly_tracker.observe_sla_rows(
            [row for _sla, row in macro]
        )
        self.database.insert("anomalies", anomalies)
        return sla_rows

    def run_daily_job(self, t: float) -> list[dict]:
        """Drop-rate table, black-hole detection, retention."""
        start, end = self._window(t, self.config.daily_period_s)
        if end <= start:
            return []
        window = self._window_rowset(start, end)
        drop_rows = job_scope_drop_rates(self.store, start, end, rows=window)
        self.database.insert("drop_daily", drop_rows)

        report = self.blackhole_detector.detect(window, t=end)
        self.blackhole_reports.append(report)
        self.database.insert(
            "blackhole_daily",
            [
                {
                    "t": end,
                    "detected": len(report.tors_to_reload),
                    "escalated_podsets": len(report.podsets_escalated),
                    "tors": [c.tor_key for c in report.tors_to_reload],
                }
            ],
        )
        if self.device_manager is not None:
            self.blackhole_detector.file_repairs(
                report, self.device_manager, self.topology
            )

        # Retention: both raw data and derived tables.
        cutoff = t - self.config.retention_s
        if cutoff > 0 and self.store.has_stream(LATENCY_STREAM):
            self.store.expire_before(LATENCY_STREAM, cutoff)
            for table in self.database.tables():
                self.database.expire_before(table, cutoff)
        return drop_rows

    # -- convenience queries ------------------------------------------------------

    def latest_pattern(self, dc: int) -> dict | None:
        rows = self.database.query(
            "patterns_10min", where=lambda r: r["dc"] == dc, order_by="t", desc=True
        )
        return rows[0] if rows else None

    def latest_heatmap(self, dc: int, t: float) -> LatencyHeatmap:
        """Rebuild the newest heatmap of one DC on demand."""
        start, end = self._window(t, self.config.near_real_time_period_s)
        rows = self._window_rowset(start, end).output()
        dc_topo = self.topology.dc(dc)
        return LatencyHeatmap.from_records(
            rows, dc_topo.spec.n_pods, dc_topo.spec.pods_per_podset, dc=dc
        )
