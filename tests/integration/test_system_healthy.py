"""End-to-end: a healthy Pingmesh deployment."""

import pytest

from repro.autopilot.watchdog import HealthStatus
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.sla import ServiceDefinition
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec

# Short cadences so integration tests stay fast: 5-min "10-min" jobs, etc.
FAST_DSA = DsaConfig(
    ingestion_delay_s=0.0,
    near_real_time_period_s=300.0,
    hourly_period_s=900.0,
    daily_period_s=1800.0,
)


def _build(seed=1, services=(), spec=None):
    config = PingmeshSystemConfig(
        specs=(spec or TopologySpec(),),
        seed=seed,
        dsa=FAST_DSA,
        agent=AgentConfig(upload_period_s=120.0),
        services=tuple(services),
    )
    return PingmeshSystem(config)


@pytest.fixture(scope="module")
def ran_system():
    system = _build()
    system.run_for(1900.0)
    return system


class TestHealthyOperation:
    def test_every_agent_probes(self, ran_system):
        assert all(agent.probes_sent > 0 for agent in ran_system.agents.values())

    def test_data_lands_in_cosmos(self, ran_system):
        stream = ran_system.store.stream("pingmesh/latency")
        assert stream.record_count > 10_000

    def test_dsa_tables_populated(self, ran_system):
        tables = set(ran_system.database.tables())
        assert {"podpair_10min", "patterns_10min", "sla_hourly"} <= tables

    def test_pattern_is_normal(self, ran_system):
        assert ran_system.database.latest("patterns_10min")["pattern"] == "normal"

    def test_no_alerts_on_healthy_network(self, ran_system):
        assert ran_system.alerts() == []

    def test_not_a_network_issue(self, ran_system):
        assert ran_system.is_network_issue() is False

    def test_watchdogs_all_ok(self, ran_system):
        reports = ran_system.env.watchdogs.run_once()
        assert all(
            report.status == HealthStatus.OK for report in reports.values()
        ), {name: report.detail for name, report in reports.items()}

    def test_pa_collected_agent_counters(self, ran_system):
        server_id = next(iter(ran_system.agents))
        series = ran_system.env.perfcounter.series(server_id, "latency_p99_us")
        assert len(series) >= 3  # PA sweeps every 300 s

    def test_agent_resource_envelope(self, ran_system):
        """Figure 3's claim: tiny CPU, bounded memory."""
        now = ran_system.clock.now
        for agent in ran_system.agents.values():
            assert agent.usage.cpu_utilization(now) < 0.01  # << 1 % CPU
            assert agent.usage.peak_memory_mb < agent.memory_cap_mb

    def test_dc_sla_in_expected_band(self, ran_system):
        rows = ran_system.database.query(
            "sla_hourly", where=lambda r: r["scope"] == "datacenter"
        )
        assert rows
        newest = max(rows, key=lambda r: r["t"])
        assert 150.0 < newest["p50_us"] < 500.0
        assert newest["drop_rate"] < 1e-3

    def test_start_twice_rejected(self, ran_system):
        with pytest.raises(RuntimeError):
            ran_system.start()


class TestServices:
    def test_per_service_sla_tracked(self):
        spec = TopologySpec()
        # Build server ids up front — the service maps to servers (§1).
        prefix = f"{spec.name}/ps0/pod0"
        service = ServiceDefinition.of(
            "search", [f"{prefix}/srv{i}" for i in range(4)]
        )
        system = _build(services=[service])
        system.run_for(1000.0)
        rows = system.database.query(
            "sla_hourly", where=lambda r: r["scope"] == "service"
        )
        assert rows
        assert rows[0]["key"] == "search"
        assert system.is_network_issue(service="search") is False


class TestFailClosedFleet:
    def test_kill_switch_stops_the_fleet(self):
        system = _build()
        system.run_for(200.0)
        before = system.total_probes_sent()
        assert before > 0
        system.controller.remove_all_pinglists()
        # Agents notice at their next refresh; force refreshes now.
        for agent in system.agents.values():
            agent.refresh_pinglist(system.clock.now)
        system.run_for(300.0)
        assert system.total_probes_sent() == before  # nobody probes anymore
        assert all(agent.safety.fail_closed for agent in system.agents.values())

    def test_fleet_recovers_when_pinglists_return(self):
        system = _build()
        system.run_for(100.0)
        system.controller.remove_all_pinglists()
        for agent in system.agents.values():
            agent.refresh_pinglist(system.clock.now)
        system.controller.regenerate()
        for agent in system.agents.values():
            agent.refresh_pinglist(system.clock.now)
        before = system.total_probes_sent()
        system.run_for(120.0)
        assert system.total_probes_sent() > before


class TestAgentSupervision:
    def test_killed_agent_is_restarted_by_service_manager(self):
        system = _build(seed=44)
        system.run_for(100.0)
        victim = next(iter(system.agents.values()))
        victim.terminate("memory cap exceeded: synthetic kill")
        assert not victim.running
        # The Service Manager sweeps every 60 s and restarts after 60 s.
        system.run_for(200.0)
        assert victim.running
        assert victim.terminated_reason is None
        restarts = system.service_manager.restarts
        assert any(r.server_id == victim.server_id for r in restarts)

    def test_restarted_agent_resumes_probing(self):
        system = _build(seed=45)
        system.run_for(100.0)
        victim = next(iter(system.agents.values()))
        victim.terminate("memory cap exceeded: synthetic kill")
        before = victim.probes_sent
        system.run_for(400.0)
        assert victim.probes_sent > before
