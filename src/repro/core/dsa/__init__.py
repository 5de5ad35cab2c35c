"""Data Storage and Analysis (DSA): the Pingmesh analysis pipeline (§3.5).

Latency records land in Cosmos; SCOPE jobs at 10-minute / 1-hour / 1-day
cadences aggregate them into a results database, from which SLA tracking,
alerting, black-hole detection, silent-drop detection and visualization are
driven.
"""

from repro.core.dsa.alerts import Alert, AlertEngine
from repro.core.dsa.anomaly import EwmaDetector, SeriesAnomalyTracker
from repro.core.dsa.blackhole import BlackholeDetector
from repro.core.dsa.database import ResultsDatabase
from repro.core.dsa.drop_inference import classify_probe, estimate_drop_rate
from repro.core.dsa.pipeline import DsaPipeline
from repro.core.dsa.records import LATENCY_STREAM, make_record
from repro.core.dsa.reports import DailyReport, ReportBuilder
from repro.core.dsa.silentdrop import SilentDropDetector
from repro.core.dsa.sla import NetworkSla, SlaScope, SlaTracker
from repro.core.dsa.visualization import LatencyHeatmap, LatencyPattern

__all__ = [
    "Alert",
    "AlertEngine",
    "BlackholeDetector",
    "DailyReport",
    "DsaPipeline",
    "EwmaDetector",
    "LATENCY_STREAM",
    "ReportBuilder",
    "SeriesAnomalyTracker",
    "LatencyHeatmap",
    "LatencyPattern",
    "NetworkSla",
    "ResultsDatabase",
    "SilentDropDetector",
    "SlaScope",
    "SlaTracker",
    "classify_probe",
    "estimate_drop_rate",
    "make_record",
]
