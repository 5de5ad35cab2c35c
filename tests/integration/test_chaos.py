"""Chaos drills: random fault combinations must never break the system.

Pingmesh's value proposition is being trustworthy *during* incidents; these
tests throw randomized combinations of scenarios at a running deployment and
assert systemic invariants: nothing crashes, data keeps flowing from the
surviving parts, detectors only blame plausible devices, and the system
recovers when the faults clear.
"""

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import SCENARIOS, apply_scenario
from repro.netsim.topology import TopologySpec
from tests.conftest import probe_rounds

FAST_DSA = DsaConfig(
    ingestion_delay_s=0.0,
    near_real_time_period_s=300.0,
    hourly_period_s=900.0,
    daily_period_s=900.0,
)


def _build(seed):
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(TopologySpec(),),
            seed=seed,
            dsa=FAST_DSA,
            agent=AgentConfig(upload_period_s=120.0),
        )
    )


PAIRINGS = [
    ("tor-blackhole", "silent-spine"),
    ("port-blackhole", "leaf-congestion"),
    ("podset-down", "silent-spine"),
    ("fcs-errors", "tor-blackhole"),
    ("spine-congestion", "podset-down"),
]


class TestFaultCombinations:
    @pytest.mark.parametrize("names", PAIRINGS, ids=["+".join(p) for p in PAIRINGS])
    def test_system_survives_and_recovers(self, names):
        system = _build(seed=sum(map(len, names)))
        system.run_for(350.0)
        records_before = system.store.stream("pingmesh/latency").record_count
        scenarios = [apply_scenario(name, system.fabric) for name in names]

        system.run_for(700.0)

        # Invariant: the pipeline kept running (jobs may find incidents,
        # but nothing raises and no job run failed).
        assert [run for run in system.job_manager.runs if run.error] == []
        # Invariant: surviving agents kept reporting.
        assert (
            system.store.stream("pingmesh/latency").record_count > records_before
        )
        # Invariant: every repair the system filed targets a device that is
        # actually implicated by *some* active scenario (no scapegoats).
        ground_truth = {
            device
            for scenario in scenarios
            for device in scenario.ground_truth_devices
        }
        for request in (
            system.env.device_manager.pending + system.env.device_manager.history
        ):
            if ground_truth:
                assert request.device_id in ground_truth, (
                    f"repair filed against innocent {request.device_id}; "
                    f"guilty set: {sorted(ground_truth)}"
                )

        # Clear everything and confirm the network measures healthy again.
        for scenario in scenarios:
            scenario.revert()
        # Un-isolate anything the RMA path took out (operator replaces it).
        for switch in system.topology.dc(0).all_switches():
            if not switch.is_up:
                switch.bring_up()
        dc = system.topology.dc(0)
        success, _rtt, _drops = probe_rounds(
            system.fabric, dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0], 20_000
        )
        assert success.mean() > 0.999

    def test_every_scenario_alone_is_survivable(self):
        for index, name in enumerate(sorted(SCENARIOS)):
            system = _build(seed=100 + index)
            system.run_for(200.0)
            apply_scenario(name, system.fabric)
            system.run_for(500.0)
            assert [run for run in system.job_manager.runs if run.error] == [], name

    def test_agents_never_exceed_resource_envelope_under_chaos(self):
        system = _build(seed=55)
        apply_scenario("spine-congestion", system.fabric)
        apply_scenario("tor-blackhole", system.fabric)
        system.run_for(900.0)
        for agent in system.agents.values():
            assert agent.terminated_reason is None
            assert agent.usage.peak_memory_mb < agent.memory_cap_mb
