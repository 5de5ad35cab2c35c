"""End-to-end incident drills: the §5 and Figure 8 scenarios."""

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faults import (
    BlackholeType1,
    CongestionFault,
    SilentRandomDrop,
    podset_down,
)
from repro.netsim.topology import TopologySpec
from tests.conftest import probe_rounds

FAST_DSA = DsaConfig(
    ingestion_delay_s=0.0,
    near_real_time_period_s=300.0,
    hourly_period_s=900.0,
    daily_period_s=900.0,
)


def _build(seed=2):
    config = PingmeshSystemConfig(
        specs=(TopologySpec(),),
        seed=seed,
        dsa=FAST_DSA,
        agent=AgentConfig(upload_period_s=120.0),
    )
    system = PingmeshSystem(config)
    return system


class TestBlackholeIncident:
    def test_detect_and_auto_repair(self):
        """§5.1 end-to-end: inject a type-1 black-hole at a ToR, let the
        daily job detect it, the DM+RS reload the switch, and the fault
        clear."""
        system = _build()
        tor = system.topology.dc(0).tors[2]
        fault = system.fabric.faults.inject(
            BlackholeType1(switch_id=tor.device_id, fraction=0.6)
        )
        system.run_for(1000.0)  # daily job at t=900 detects; repairs drain
        assert any(
            report.tors_to_reload for report in system.dsa.blackhole_reports
        ), "detector never flagged the poisoned ToR"
        assert tor.reload_count == 1
        assert system.fabric.faults.faults_on(tor.device_id) == []

    def test_network_heals_after_repair(self):
        system = _build(seed=3)
        dc = system.topology.dc(0)
        tor = dc.tors[1]
        fault = BlackholeType1(switch_id=tor.device_id, fraction=0.6)
        system.fabric.faults.inject(fault)
        # Find an intra-pod pair whose TCAM entry is corrupted.
        servers = dc.servers_in_pod(1)
        pair = next(
            (a, b)
            for a in servers
            for b in servers
            if a is not b and fault.matches(a.ip, b.ip)
        )
        assert not system.fabric.probe(*pair).success
        system.run_for(1000.0)
        assert tor.reload_count >= 1
        assert system.fabric.probe(*pair).success


class TestSilentDropIncident:
    def test_detect_localize_isolate(self):
        """§5.2 end-to-end: a spine drops 5% of packets silently; the
        10-min watch detects, traceroute localizes, RS isolates it."""
        system = _build(seed=4)
        spine = system.topology.dc(0).spines[1]
        system.fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.05)
        )
        system.run_for(700.0)  # two near-real-time jobs
        incidents = system.dsa.incidents
        assert incidents, "no silent-drop incident detected"
        localized = {incident.localized_switch for incident in incidents}
        assert spine.device_id in localized
        assert not spine.is_up  # isolated by the RMA path

    def test_snmp_counters_stayed_clean(self):
        """The defining property: the dropping switch's SNMP looks fine."""
        system = _build(seed=5)
        spine = system.topology.dc(0).spines[0]
        system.fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.05)
        )
        system.run_for(400.0)
        visible = spine.counters.visible()
        assert visible["input_discards"] == 0
        assert visible["output_discards"] == 0
        assert spine.counters.silent_drops > 0  # ground truth disagrees

    def test_drop_rate_recovers_after_isolation(self):
        system = _build(seed=6)
        spine = system.topology.dc(0).spines[2]
        system.fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.08)
        )
        system.run_for(700.0)
        assert not spine.is_up
        # After isolation, fresh cross-podset probes avoid the dropper.
        dc = system.topology.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        success, _rtt, _drops = probe_rounds(system.fabric, a, b, 20_000)
        assert success.mean() > 0.999


class TestFigure8Patterns:
    def test_podset_down_white_cross(self):
        system = _build(seed=7)
        system.run_for(350.0)  # one normal window first
        podset_down(system.topology, 0, 1)
        system.run_for(600.0)
        pattern = system.database.latest("patterns_10min")
        assert pattern["pattern"] == "podset-down"
        assert pattern["affected_podsets"] == [1]

    def test_podset_failure_red_cross(self):
        system = _build(seed=8)
        for leaf in system.topology.dc(0).leaves_of(0):
            system.fabric.faults.inject(
                CongestionFault(
                    switch_id=leaf.device_id, drop_prob=0.0, extra_queue_s=7e-3
                )
            )
        system.run_for(650.0)
        pattern = system.database.latest("patterns_10min")
        assert pattern["pattern"] == "podset-failure"
        assert pattern["affected_podsets"] == [0]

    def test_spine_failure_green_diagonal(self):
        system = _build(seed=9)
        for spine in system.topology.dc(0).spines:
            system.fabric.faults.inject(
                CongestionFault(
                    switch_id=spine.device_id, drop_prob=0.0, extra_queue_s=7e-3
                )
            )
        system.run_for(650.0)
        pattern = system.database.latest("patterns_10min")
        assert pattern["pattern"] == "spine-failure"

    def test_latency_alerts_fire_during_spine_congestion(self):
        system = _build(seed=10)
        for spine in system.topology.dc(0).spines:
            system.fabric.faults.inject(
                CongestionFault(
                    switch_id=spine.device_id, drop_prob=0.0, extra_queue_s=7e-3
                )
            )
        system.run_for(1000.0)
        assert system.is_network_issue() is True
        metrics = {alert.metric for alert in system.alerts()}
        assert "p99_us" in metrics


class TestInterDc:
    def test_two_dc_system_probes_across_wan(self):
        config = PingmeshSystemConfig(
            specs=(
                TopologySpec(name="dc-w", region="us-west"),
                TopologySpec(
                    name="dc-e", region="europe", profile_name="interactive"
                ),
            ),
            seed=11,
            dsa=FAST_DSA,
            agent=AgentConfig(upload_period_s=120.0),
        )
        system = PingmeshSystem(config)
        system.run_for(400.0)
        inter_dc_records = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["src_dc"] != row["dst_dc"]
        ]
        assert inter_dc_records
        # WAN RTT dominates: inter-DC latency is tens of milliseconds.
        assert all(row["rtt_us"] > 10_000 for row in inter_dc_records if row["success"])
