"""Metric names, units and directions — and how the traced ones are computed.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` repeats
(``test_e2e_harness.py`` holds the two to each other).  Every number is
*host* time unless its name says ``sim``.

End-to-end metrics are measured with tracing off and exist on every
workload.  Per-layer metrics come from the traced run; a layer a workload
leaves idle reads 0 there (0 calls, 0 s).  Four figures only one workload
produces — first-alert and request-plane numbers — are listed with the
per-layer metrics for that reason: the driver wants every end-to-end metric
from every workload, and never 0.
"""

from __future__ import annotations

import statistics

from tracing import ROOT, SPAN_NAMES

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("probes_per_s", "probes/s", "higher", 0.20),
    ("step_ms_p50", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.05),
)

# One workload each; 0 elsewhere.  (name, unit, better)
WORKLOAD_SPECIFIC = (
    ("cold_to_first_alert_s", "s", "lower"),
    ("alert_delay_sim_s", "sim-s", "lower"),
    ("requests_per_s", "req/s", "higher"),
    ("submit_us_p50", "us", "lower"),
)

_COUNTS = (
    ("netsim.run_class_plan.ns_per_probe", "ns", "lower"),
    ("netsim.probe_many.us_per_probe", "us", "lower"),
    ("netsim.fastpath_share", "ratio", "higher"),
    ("netsim.plan_recompiles", "count", "lower"),
    ("controller.get_pinglist.status_200", "count", "lower"),
    ("controller.get_pinglist.status_304", "count", "higher"),
    ("controller.get_pinglist.bytes", "B", "lower"),
    ("agent.uploader.records", "count", "lower"),
    ("agent.uploader.discarded", "count", "lower"),
    ("cosmos.append.records", "count", "lower"),
    ("cosmos.append.bytes", "B", "lower"),
    ("cosmos.scan.rows", "count", "lower"),
    ("cosmos.store_mb", "MB", "lower"),
    ("dsa.job_10min.rows_in", "count", "lower"),
    ("dsa.alerts.breaches", "count", "lower"),
    ("dsa.alerts.recoveries", "count", "lower"),
    ("dsa.alerts.open_at_end", "count", "lower"),
    ("stream.deltas", "count", "lower"),
    ("stream.memory_buckets", "count", "lower"),
    ("stream.probes_dropped", "count", "lower"),
    ("broker.inject.us_per_probe", "us", "lower"),
    ("broker.submit.us_burst_p50", "us", "lower"),
    ("broker.submit.us_read_p50", "us", "lower"),
    ("broker.submit.us_p99", "us", "lower"),
    ("broker.result_delay_sim_s_p99", "sim-s", "lower"),
    ("broker.rejected", "count", "lower"),
    ("proc.rss_after_setup_mb", "MB", "lower"),
    ("proc.rss_growth_mb_per_window", "MB", "lower"),
    ("bench.setup.import_s", "s", "lower"),
    ("bench.setup.build_start_s", "s", "lower"),
    ("bench.setup.warmup_s", "s", "lower"),
    ("bench.measured_wall_s", "s", "lower"),
    ("bench.host_factor", "ratio", "lower"),
    ("bench.steps", "count", "higher"),
    ("bench.step_ms_p95", "ms", "lower"),
    ("bench.cpu_wall_ratio", "ratio", "higher"),
    ("bench.trace_overhead_pct", "%", "lower"),
)

PER_LAYER = (
    tuple(
        metric
        for span in SPAN_NAMES
        for metric in ((f"{span}.self_s", "s", "lower"), (f"{span}.calls", "count", "lower"))
    )
    + _COUNTS
    + WORKLOAD_SPECIFIC
)


def _median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6 if samples else 0.0


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def workload_specific(workload, record: dict) -> dict:
    """The four single-workload figures (0 where the mechanism is idle).
    Times are host-speed compensated like the end-to-end ones."""
    factor = record["host_factor"]
    all_submits = workload.submit_s["burst"] + workload.submit_s["read"]
    return {
        "cold_to_first_alert_s": (workload.breach_user_s or 0.0) / factor,
        "alert_delay_sim_s": workload.alert_delay_sim_s(),
        "requests_per_s": _ratio(len(all_submits), record["measured_s"]),
        "submit_us_p50": _median_us(all_submits) / factor,
    }


def per_layer(workload, run, tracer, record: dict, rss_after_setup_mb: float) -> dict:
    """Every ``PER_LAYER`` metric of one traced run, by name."""
    system = workload.system
    whole = tracer.totals()
    measured = tracer.totals("measured")
    values: dict[str, float] = {}
    for span in SPAN_NAMES:
        values[f"{span}.self_s"] = whole[span]["self_s"]
        values[f"{span}.calls"] = whole[span]["calls"]

    class_plan = whole["netsim.run_class_plan"]
    probe_many = whole["netsim.probe_many"]
    inject = whole["broker.inject"]
    values["netsim.run_class_plan.ns_per_probe"] = _ratio(
        class_plan["total_s"], class_plan["units"], 1e9
    )
    values["netsim.probe_many.us_per_probe"] = _ratio(
        probe_many["total_s"], probe_many["units"], 1e6
    )
    values["netsim.fastpath_share"] = _ratio(
        measured["netsim.run_class_plan"]["units"], run.probes
    )
    values["netsim.plan_recompiles"] = tracer.by_parent(
        "netsim.build_class_plan", "sharded.serial_part", "measured"
    )["calls"]
    values["broker.inject.us_per_probe"] = _ratio(inject["total_s"], inject["units"], 1e6)

    downloads = system.controller.download_stats()
    values["controller.get_pinglist.status_200"] = downloads["responses_200"]
    values["controller.get_pinglist.status_304"] = downloads["responses_304"]
    values["controller.get_pinglist.bytes"] = tracer.counters["controller.get_pinglist.bytes"]

    uploads = workload.upload_stats()
    values["agent.uploader.records"] = uploads["uploaded"]
    values["agent.uploader.discarded"] = uploads["discarded"]
    store = system.store
    values["cosmos.append.records"] = store.records_ingested
    values["cosmos.append.bytes"] = store.bytes_ingested
    values["cosmos.scan.rows"] = whole["cosmos.scan"]["units"]
    values["cosmos.store_mb"] = store.total_bytes() / 1e6
    values["dsa.job_10min.rows_in"] = tracer.by_parent(
        "cosmos.extract", "dsa.job_10min"
    )["units"]

    engine = system.alert_engine
    values["dsa.alerts.breaches"] = len(engine.breaches())
    values["dsa.alerts.recoveries"] = len(engine.history) - len(engine.breaches())
    values["dsa.alerts.open_at_end"] = len(engine.active_episodes)
    stream = system.stream
    values["stream.deltas"] = stream.deltas_emitted
    values["stream.memory_buckets"] = stream.memory_buckets
    values["stream.probes_dropped"] = stream.probes_dropped

    submit_s = workload.submit_s
    all_submits = sorted(submit_s["burst"] + submit_s["read"])
    values["broker.submit.us_burst_p50"] = _median_us(submit_s["burst"])
    values["broker.submit.us_read_p50"] = _median_us(submit_s["read"])
    values["broker.submit.us_p99"] = (
        all_submits[int(0.99 * len(all_submits))] * 1e6 if all_submits else 0.0
    )
    values["broker.result_delay_sim_s_p99"] = workload.result_delay_sim_s_p99()
    values["broker.rejected"] = system.broker.requests_rejected if system.broker else 0

    raw = record["raw"]
    steps = sorted(wall_s for _label, wall_s, _user_s in raw["steps"])
    wall = raw["measured_wall_s"]
    values["proc.rss_after_setup_mb"] = rss_after_setup_mb
    values["proc.rss_growth_mb_per_window"] = _ratio(
        record["end_to_end"]["peak_rss_mb"] - rss_after_setup_mb, len(steps) / 10.0
    )
    phases = record["setup_raw"]["phases_user_s"]
    values["bench.setup.import_s"] = phases["import"]
    values["bench.setup.build_start_s"] = phases["build_start"]
    values["bench.setup.warmup_s"] = phases["warmup"]
    values["bench.measured_wall_s"] = wall
    values["bench.host_factor"] = record["host_factor"]
    values["bench.steps"] = len(steps)
    values["bench.step_ms_p95"] = steps[min(len(steps) - 1, int(0.95 * len(steps)))] * 1e3
    values["bench.cpu_wall_ratio"] = _ratio(raw["measured_cpu_s"], wall)
    traced_calls = sum(entry["calls"] for span, entry in measured.items() if span != ROOT)
    overhead_s = traced_calls * tracer.span_cost_s
    values["bench.trace_overhead_pct"] = _ratio(overhead_s, wall - overhead_s, 100.0)

    values.update(record["workload_specific"])
    return values
