"""Tests for probe explanation."""

import pytest

from repro.netsim.explain import explain_probe
from repro.netsim.fabric import Fabric
from repro.netsim.faults import BlackholeType1, SilentRandomDrop
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=15)


def _cross_pair(fabric):
    dc = fabric.topology.dc(0)
    return dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]


class TestHealthyExplanations:
    def test_delivered_probe(self, fabric):
        a, b = _cross_pair(fabric)
        explanation = explain_probe(fabric, a, b)
        assert explanation.outcome == "delivered"
        assert len(explanation.forward_hops) == 5
        assert len(explanation.reverse_hops) == 5
        assert explanation.culprits == {}

    def test_accepts_server_objects_and_ids(self, fabric):
        a, b = _cross_pair(fabric)
        by_object = explain_probe(fabric, a, b)
        by_id = explain_probe(fabric, a.device_id, b.device_id)
        assert by_object.src == by_id.src


class TestFailureExplanations:
    def test_blackhole_named_as_culprit(self, fabric):
        a, b = fabric.topology.dc(0).servers_in_pod(0)[:2]
        tor = fabric.topology.dc(0).tor_of(a)
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        explanation = explain_probe(fabric, a, b)
        assert explanation.outcome == "timeout"
        assert tor.device_id in explanation.culprits
        assert explanation.culprits[tor.device_id] == 3  # every attempt
        assert {hop.fault_kind for attempt in explanation.attempts for hop in attempt} >= {
            "BlackholeType1"
        }

    def test_silent_dropper_accumulates_statistical_blame(self, fabric):
        a, b = _cross_pair(fabric)
        for spine in fabric.topology.dc(0).spines:
            fabric.faults.inject(
                SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.9)
            )
        explanation = explain_probe(fabric, a, b, attempts=20)
        assert explanation.culprits
        assert any("spine" in device for device in explanation.culprits)

    def test_dst_down(self, fabric):
        a, b = _cross_pair(fabric)
        b.bring_down()
        explanation = explain_probe(fabric, a, b)
        assert explanation.outcome == "dst_down"

    def test_src_down(self, fabric):
        a, b = _cross_pair(fabric)
        a.bring_down()
        explanation = explain_probe(fabric, a, b)
        assert explanation.outcome == "src_down"
        assert explanation.attempts == []

    def test_no_route(self, fabric):
        dc = fabric.topology.dc(0)
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(1)[0]
        for leaf in dc.leaves_of(0):
            leaf.bring_down()
        explanation = explain_probe(fabric, a, b)
        assert explanation.outcome == "no_route"
        assert explanation.forward_hops == []

    def test_decision_fields(self, fabric):
        a, b = fabric.topology.dc(0).servers_in_pod(0)[:2]
        tor = fabric.topology.dc(0).tor_of(a)
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        explanation = explain_probe(fabric, a, b, attempts=1)
        decision = explanation.attempts[0][0]
        assert decision.device_id == tor.device_id
        assert decision.direction == "forward"
        assert decision.action == "dropped-fault"
