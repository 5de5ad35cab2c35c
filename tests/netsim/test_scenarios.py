"""Tests for the canned incident scenarios."""

import pytest

from repro.netsim.fabric import Fabric
from repro.netsim.scenarios import SCENARIOS, apply_scenario
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=8)


class TestScenarioRegistry:
    def test_all_scenarios_apply_and_revert(self, fabric):
        for name in SCENARIOS:
            scenario = apply_scenario(name, fabric)
            assert scenario.name == name
            assert scenario.description
            scenario.revert()
        assert not fabric.faults.faulted_switch_ids()
        assert all(server.is_up for server in fabric.topology.all_servers())

    def test_unknown_scenario_raises(self, fabric):
        with pytest.raises(KeyError):
            apply_scenario("alien-invasion", fabric)


class TestScenarioEffects:
    def test_tor_blackhole_breaks_pairs_deterministically(self, fabric):
        scenario = apply_scenario("tor-blackhole", fabric)
        dc = fabric.topology.dc(0)
        pod = dc.tors.index(dc.device(scenario.ground_truth_devices[0]))
        servers = dc.servers_in_pod(pod)
        outcomes = {
            (a.device_id, b.device_id): fabric.probe(a, b).success
            for a in servers[:4]
            for b in servers[:4]
            if a is not b
        }
        # Deterministic: re-probing any pair gives the same answer.
        for (a, b), success in outcomes.items():
            assert fabric.probe(a, b).success == success
        assert not all(outcomes.values())
        scenario.revert()
        assert all(
            fabric.probe(a, b).success
            for a in servers[:3]
            for b in servers[:3]
            if a is not b
        )

    def test_podset_down_and_revert(self, fabric):
        scenario = apply_scenario("podset-down", fabric)
        dc = fabric.topology.dc(0)
        assert all(not s.is_up for s in dc.servers_in_podset(1))
        scenario.revert()
        assert all(s.is_up for s in dc.servers_in_podset(1))

    def test_silent_spine_is_snmp_clean(self, fabric):
        scenario = apply_scenario("silent-spine", fabric)
        spine = fabric.topology.device(scenario.ground_truth_devices[0])
        dc = fabric.topology.dc(0)
        for _ in range(300):
            fabric.probe(dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0])
        assert spine.counters.visible()["input_discards"] == 0
        assert spine.counters.visible()["output_discards"] == 0

    def test_fcs_errors_prefer_big_frames(self, fabric):
        scenario = apply_scenario("fcs-errors", fabric)
        leaf_id = scenario.ground_truth_devices[0]
        dc = fabric.topology.dc(0)
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(1)[0]
        small_drops = big_drops = 0
        for _ in range(400):
            small = fabric.probe(a, b)
            big = fabric.probe(a, b, payload_bytes=30_000)
            if leaf_id in small.forward_hops:
                small_drops += small.syn_drops
                if big.payload_rtt_s is None or big.payload_rtt_s > 0.25:
                    big_drops += 1
        # Length-dependent: payload exchanges suffer far more than SYNs.
        assert big_drops > small_drops

    def test_leaf_congestion_latency_visible(self, fabric):
        import numpy as np

        dc = fabric.topology.dc(0)
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(1)[0]
        before = np.median([fabric.probe(a, b).rtt_s for _ in range(50)])
        apply_scenario("leaf-congestion", fabric)
        after = np.median([fabric.probe(a, b).rtt_s for _ in range(50)])
        assert after > before + 5e-3  # the injected 7 ms queue
