"""The SCOPE jobs of the DSA pipeline (§3.5), written against
:mod:`repro.cosmos.scope` so they read like their SCOPE originals.

Each job is a pure function of (store, window) returning result rows; the
:class:`~repro.core.dsa.pipeline.DsaPipeline` schedules them at the paper's
cadences (10 minutes, 1 hour, 1 day) and lands the rows in the results
database.

Filters and computed columns are written with the ``col``/``lit``
expression language, so the whole job executes vectorized (masks +
segmented reductions) over the extents' columns.  Every job takes an
optional precomputed ``rows`` rowset: the pipeline extracts each time
window from the store once and shares it across the jobs of a tick.
"""

from __future__ import annotations

from typing import Any

from repro.core.dsa.drop_inference import drop_rate_aggregate
from repro.core.dsa.records import LATENCY_STREAM
from repro.cosmos.scope import RowSet, agg, col, extract, lit

__all__ = [
    "window_rows",
    "job_podpair_latency",
    "job_interdc_latency",
    "job_scope_drop_rates",
    "job_dc_drop_table",
]

Row = dict[str, Any]


def window_rows(store, window_start: float, window_end: float) -> RowSet:
    """EXTRACT the latency records of one time window."""
    if window_end <= window_start:
        raise ValueError(
            f"bad window: [{window_start}, {window_end})"
        )
    if not store.has_stream(LATENCY_STREAM):
        return RowSet([])
    return extract(
        store,
        LATENCY_STREAM,
        (col("t") >= window_start) & (col("t") < window_end),
        appended_since=window_start,
    )


def _base_rows(
    store, window_start: float, window_end: float, rows: RowSet | None
) -> RowSet:
    return rows if rows is not None else window_rows(store, window_start, window_end)


def job_podpair_latency(
    store,
    window_start: float,
    window_end: float,
    dc: int | None = None,
    rows: RowSet | None = None,
) -> list[Row]:
    """Per pod-pair: probe count, P50/P99 latency, inferred drop rate.

    Feeds the visualization heatmap (§6.3) and the near-real-time
    dashboard.  One row per (src_dc, src_pod, dst_pod).
    """
    base = _base_rows(store, window_start, window_end, rows)
    if dc is not None:
        base = base.where((col("src_dc") == dc) & (col("dst_dc") == dc))
    else:
        base = base.where(col("src_dc") == col("dst_dc"))
    # VIP availability probes carry no destination pod coordinates.
    base = base.where((col("src_pod") >= 0) & (col("dst_pod") >= 0))
    if not base:
        return []
    return (
        base.group_by("src_dc", "src_pod", "dst_pod")
        .aggregate(
            probe_count=agg.count(),
            success_count=agg.count_if(col("success")),
            p50_us=agg.percentile("rtt_us", 50),
            p99_us=agg.percentile("rtt_us", 99),
            drop_rate=drop_rate_aggregate(),
        )
        .select(
            "src_dc",
            "src_pod",
            "dst_pod",
            "probe_count",
            "success_count",
            "p50_us",
            "p99_us",
            "drop_rate",
            t=lit(window_end),
        )
        .order_by("src_pod", "dst_pod", "src_dc")
        .output()
    )


def job_interdc_latency(
    store,
    window_start: float,
    window_end: float,
    rows: RowSet | None = None,
) -> list[Row]:
    """Per DC-pair latency/drop aggregates — the inter-DC pipeline (§6.2).

    "We did add a new inter-DC data processing pipeline" — one row per
    ordered (src_dc, dst_dc) pair with cross-WAN traffic in the window.
    """
    base = _base_rows(store, window_start, window_end, rows).where(
        col("src_dc") != col("dst_dc")
    )
    if not base:
        return []
    return (
        base.group_by("src_dc", "dst_dc")
        .aggregate(
            probe_count=agg.count(),
            success_count=agg.count_if(col("success")),
            p50_us=agg.percentile("rtt_us", 50),
            p99_us=agg.percentile("rtt_us", 99),
            drop_rate=drop_rate_aggregate(),
        )
        .select(
            "src_dc",
            "dst_dc",
            "probe_count",
            "success_count",
            "p50_us",
            "p99_us",
            "drop_rate",
            t=lit(window_end),
        )
        .order_by("src_dc", "dst_dc")
        .output()
    )


def job_scope_drop_rates(
    store,
    window_start: float,
    window_end: float,
    rows: RowSet | None = None,
) -> list[Row]:
    """Intra-pod vs inter-pod drop rate per data center — the Table 1 job.

    Fully vectorized on columnar windows: two grouped segmented reductions
    (intra-pod and inter-pod) instead of per-DC python list splits.
    """
    # A filtered subset copies the columns it keeps: keep what the job reads.
    base = (
        _base_rows(store, window_start, window_end, rows)
        .select("src_dc", "dst_dc", "src_pod", "dst_pod", "success", "rtt_us")
        .where(col("src_dc") == col("dst_dc"))
    )
    if not base:
        return []

    def _per_dc(subset: RowSet) -> dict[int, Row]:
        if not subset:
            return {}
        grouped = (
            subset.group_by("src_dc")
            .aggregate(rate=drop_rate_aggregate(), probes=agg.count())
            .output()
        )
        return {row["src_dc"]: row for row in grouped}

    intra = _per_dc(base.where(col("src_pod") == col("dst_pod")))
    inter = _per_dc(base.where(col("src_pod") != col("dst_pod")))
    empty = {"rate": 0.0, "probes": 0}
    return [
        {
            "t": window_end,
            "dc": dc,
            "intra_pod_drop_rate": intra.get(dc, empty)["rate"],
            "inter_pod_drop_rate": inter.get(dc, empty)["rate"],
            "intra_pod_probes": intra.get(dc, empty)["probes"],
            "inter_pod_probes": inter.get(dc, empty)["probes"],
        }
        for dc in sorted(intra.keys() | inter.keys())
    ]


def job_dc_drop_table(
    store, window_start: float, window_end: float, dc_names: list[str]
) -> list[Row]:
    """Human-readable Table 1: one row per named data center."""
    rows = job_scope_drop_rates(store, window_start, window_end)
    for row in rows:
        dc = row["dc"]
        row["dc_name"] = dc_names[dc] if dc < len(dc_names) else f"dc{dc}"
    return rows
