"""The empty window: read before ``pingmesh/latency`` exists, a window is a
rowset with no rows and no columns, and every reader of a window treats it
as empty — no verb, job, tracker or detector trips over a missing column."""

import pytest

from repro.broker import MeasurementBroker, RequestState, TenantQuota
from repro.core.dsa.blackhole import BlackholeDetector
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.dsa.scope_jobs import (
    job_dc_drop_table,
    job_interdc_latency,
    job_podpair_latency,
    job_scope_drop_rates,
    window_rows,
)
from repro.core.dsa.sla import ServiceDefinition, SlaTracker
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.cosmos.scope import RowSet, agg, col, lit
from repro.cosmos.store import CosmosStore
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def store():
    store = CosmosStore()
    store.append("pingmesh/latency-class", [{"t": 1.0, "probes": 4}])
    assert not store.has_stream(LATENCY_STREAM)
    return store


@pytest.mark.parametrize("make", ["rows", "columns", "window"])
def test_every_verb_returns_an_empty_set(store, make):
    empty = {
        "rows": lambda: RowSet([]),
        "columns": lambda: RowSet.from_columns({}),
        "window": lambda: window_rows(store, 0.0, 600.0),
    }[make]()
    results = [
        empty.where(col("success")),
        empty.select("src", rtt_ms=col("rtt_us") / 1000.0, t=lit(600.0)),
        empty.group_by("src_dc", "dst_dc").aggregate(
            n=agg.count(),
            p99=agg.percentile("rtt_us", 99),
            rate=agg.ratio(col("success"), col("success")),
        ),
        empty.order_by("src_pod", desc=True),
    ]
    for rows in results:
        assert len(rows) == 0 and not rows
        assert rows.output() == [] and list(rows) == [] and rows.column("src") == []
    assert len(empty.group_by("src")) == 0
    with pytest.raises(TypeError):
        empty.where(lambda row: True)


def test_every_job_reads_nothing(store):
    assert job_podpair_latency(store, 0.0, 600.0) == []
    assert job_podpair_latency(store, 0.0, 600.0, dc=0) == []
    assert job_interdc_latency(store, 0.0, 600.0) == []
    assert job_scope_drop_rates(store, 0.0, 600.0) == []
    assert job_dc_drop_table(store, 0.0, 600.0, ["dc0"]) == []


def test_sla_tracker_and_blackhole_detector(store):
    window = window_rows(store, 0.0, 600.0)
    tracker = SlaTracker([ServiceDefinition.of("search", ["dc0/ps0/pod0/s0"])])
    assert tracker.track_all(window, 0.0, 600.0) == []
    report = BlackholeDetector().detect(window, t=600.0)
    assert report.candidates == report.tors_to_reload == report.podsets_escalated == []


def test_broker_scope_read():
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4),)
        )
    )
    broker = MeasurementBroker(system)
    broker.register_tenant("acme", TenantQuota(credits_per_window=100))
    system.start()
    assert not system.store.has_stream(LATENCY_STREAM)
    channel = broker.submit("acme", kind="scope", params={"since_s": 300.0})
    assert channel.state is RequestState.COMPLETED
    assert channel.rows == []
