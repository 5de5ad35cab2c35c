"""Tests for TCP traceroute and drop localization."""

import pytest

from repro.netsim.fabric import Fabric
from repro.netsim.faults import SilentRandomDrop
from repro.netsim.topology import TopologySpec
from repro.netsim.traceroute import (
    HopReport,
    TracerouteResult,
    localize_drop,
    tcp_traceroute,
)


@pytest.fixture()
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=21)


def _cross_podset_pair(fabric):
    dc = fabric.topology.dc(0)
    return dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]


class TestTraceroute:
    def test_healthy_path_has_low_loss_everywhere(self, fabric):
        a, b = _cross_podset_pair(fabric)
        result = tcp_traceroute(fabric, a, b, probes_per_hop=200)
        assert len(result.hops) == 5
        assert all(hop.loss_rate < 0.02 for hop in result.hops)
        assert localize_drop(result) is None

    def test_hop_order_matches_clos_tiers(self, fabric):
        a, b = _cross_podset_pair(fabric)
        result = tcp_traceroute(fabric, a, b)
        ids = [hop.device_id for hop in result.hops]
        assert "tor" in ids[0] and "leaf" in ids[1] and "spine" in ids[2]
        assert [hop.ttl for hop in result.hops] == [1, 2, 3, 4, 5]

    def test_pinned_port_gives_stable_path(self, fabric):
        a, b = _cross_podset_pair(fabric)
        first = tcp_traceroute(fabric, a, b, probes_per_hop=1)
        second = tcp_traceroute(fabric, a, b, probes_per_hop=1)
        assert [h.device_id for h in first.hops] == [
            h.device_id for h in second.hops
        ]

    def test_silent_dropper_localized_exactly(self, fabric):
        a, b = _cross_podset_pair(fabric)
        # Find the spine this pinned flow crosses, then poison it.
        path = tcp_traceroute(fabric, a, b, probes_per_hop=1)
        spine_id = path.hops[2].device_id
        fabric.faults.inject(SilentRandomDrop(switch_id=spine_id, drop_prob=0.05))
        result = tcp_traceroute(fabric, a, b, probes_per_hop=2000)
        assert localize_drop(result) == spine_id

    def test_loss_persists_downstream_of_dropper(self, fabric):
        a, b = _cross_podset_pair(fabric)
        path = tcp_traceroute(fabric, a, b, probes_per_hop=1)
        leaf_id = path.hops[1].device_id
        fabric.faults.inject(SilentRandomDrop(switch_id=leaf_id, drop_prob=0.10))
        result = tcp_traceroute(fabric, a, b, probes_per_hop=1500)
        losses = [hop.loss_rate for hop in result.hops]
        assert losses[0] < 0.02  # ToR before the dropper is clean
        assert all(loss > 0.05 for loss in losses[1:])

    def test_no_route_returns_empty_hops(self, fabric):
        dc = fabric.topology.dc(0)
        for leaf in dc.leaves_of(0):
            leaf.bring_down()
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(1)[0]
        result = tcp_traceroute(fabric, a, b)
        assert result.hops == []
        assert localize_drop(result) is None

    def test_accepts_device_id_strings(self, fabric):
        a, b = _cross_podset_pair(fabric)
        result = tcp_traceroute(fabric, a.device_id, b.device_id, probes_per_hop=10)
        assert result.src == a.device_id


def test_one_lost_probe_in_200_does_not_blame_a_hop():
    # 1 - 199/200 rounds to 0.0050000000000000044, just over the default
    # 0.005 step: one baseline loss used to make the leaf "the first lossy
    # hop" in front of a black-holed ToR.
    hops = [
        HopReport(1, "tor0", sent=200, received=200),
        HopReport(2, "leaf0", sent=200, received=199),
        HopReport(3, "tor1", sent=200, received=0),
    ]
    assert localize_drop(TracerouteResult("a", "b", None, hops)) == "tor1"
