"""Tests for ECMP path computation."""

import pytest

from repro.netsim.addressing import FiveTuple
from repro.netsim.devices import DeviceKind
from repro.netsim.routing import NoRouteError, PathScope, Router, classify_scope
from repro.netsim.topology import MultiDCTopology, TopologySpec


@pytest.fixture()
def multi():
    return MultiDCTopology(
        [
            TopologySpec(name="dc-a", region="us-west", n_spines=8),
            TopologySpec(name="dc-b", region="europe"),
        ]
    )


@pytest.fixture()
def router(multi):
    return Router(multi)


def _flow(src, dst, src_port=50_000, dst_port=81):
    return FiveTuple(src.ip, src_port, dst.ip, dst_port)


class TestScopeClassification:
    def test_same_host(self, multi):
        server = multi.dc(0).servers[0]
        assert classify_scope(multi, server, server) == PathScope.SAME_HOST

    def test_intra_pod(self, multi):
        a, b = multi.dc(0).servers_in_pod(0)[:2]
        assert classify_scope(multi, a, b) == PathScope.INTRA_POD

    def test_intra_podset(self, multi):
        dc = multi.dc(0)
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(1)[0]
        assert classify_scope(multi, a, b) == PathScope.INTRA_PODSET

    def test_intra_dc(self, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        assert classify_scope(multi, a, b) == PathScope.INTRA_DC

    def test_inter_dc(self, multi):
        a = multi.dc(0).servers[0]
        b = multi.dc(1).servers[0]
        assert classify_scope(multi, a, b) == PathScope.INTER_DC


class TestPathShapes:
    def test_same_host_has_no_hops(self, router, multi):
        server = multi.dc(0).servers[0]
        path = router.path(server, server, _flow(server, server))
        assert path.hops == []
        assert path.scope == PathScope.SAME_HOST

    def test_intra_pod_is_single_tor(self, router, multi):
        a, b = multi.dc(0).servers_in_pod(0)[:2]
        path = router.path(a, b, _flow(a, b))
        assert [hop.kind for hop in path.hops] == [DeviceKind.TOR]
        assert path.hops[0] is multi.dc(0).tor_of(a)

    def test_intra_podset_is_tor_leaf_tor(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(1)[0]
        path = router.path(a, b, _flow(a, b))
        assert [hop.kind for hop in path.hops] == [
            DeviceKind.TOR,
            DeviceKind.LEAF,
            DeviceKind.TOR,
        ]

    def test_intra_dc_crosses_spine(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        path = router.path(a, b, _flow(a, b))
        assert [hop.kind for hop in path.hops] == [
            DeviceKind.TOR,
            DeviceKind.LEAF,
            DeviceKind.SPINE,
            DeviceKind.LEAF,
            DeviceKind.TOR,
        ]
        assert path.wan_rtt == 0.0

    def test_inter_dc_crosses_borders_and_wan(self, router, multi):
        a = multi.dc(0).servers[0]
        b = multi.dc(1).servers[0]
        path = router.path(a, b, _flow(a, b))
        kinds = [hop.kind for hop in path.hops]
        assert kinds == [
            DeviceKind.TOR,
            DeviceKind.LEAF,
            DeviceKind.SPINE,
            DeviceKind.BORDER,
            DeviceKind.BORDER,
            DeviceKind.SPINE,
            DeviceKind.LEAF,
            DeviceKind.TOR,
        ]
        assert path.wan_rtt > 0
        # Borders belong to each side's DC respectively.
        assert path.hops[3].dc_index == 0
        assert path.hops[4].dc_index == 1


class TestEcmp:
    def test_path_is_deterministic_per_flow(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        flow = _flow(a, b)
        first = router.path(a, b, flow).hop_ids()
        assert all(
            router.path(a, b, flow).hop_ids() == first for _ in range(10)
        )
        # The id tuple is built once per (cached) path, the list per call.
        path = router.path(a, b, flow)
        assert path.hop_id_tuple is router.path(a, b, flow).hop_id_tuple
        assert path.hop_ids() == list(path.hop_id_tuple) == first

    def test_source_port_spreads_over_spines(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        spines = set()
        for port in range(50_000, 50_200):
            path = router.path(a, b, _flow(a, b, src_port=port))
            spines.add(path.hops[2].device_id)
        # 200 ports over 8 spines: expect most spines exercised.
        assert len(spines) >= 6

    def test_reverse_flow_may_take_different_spine(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        differs = False
        for port in range(50_000, 50_050):
            flow = _flow(a, b, src_port=port)
            fwd = router.path(a, b, flow).hops[2]
            rev = router.path(b, a, flow.reversed()).hops[2]
            if fwd is not rev:
                differs = True
                break
        assert differs


class TestFailureHandling:
    def test_down_spine_is_routed_around(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        victim = dc.spines[0]
        victim.bring_down()
        try:
            for port in range(50_000, 50_100):
                path = router.path(a, b, _flow(a, b, src_port=port))
                assert victim not in path.hops
        finally:
            victim.bring_up()

    def test_isolated_switch_is_also_excluded(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        victim = dc.spines[1]
        victim.isolate()
        try:
            for port in range(50_000, 50_100):
                path = router.path(a, b, _flow(a, b, src_port=port))
                assert victim not in path.hops
        finally:
            victim.bring_up()

    def test_all_leaves_down_raises_no_route(self, router, multi):
        dc = multi.dc(0)
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(1)[0]
        for leaf in dc.leaves_of(0):
            leaf.bring_down()
        try:
            with pytest.raises(NoRouteError):
                router.path(a, b, _flow(a, b))
        finally:
            for leaf in dc.leaves_of(0):
                leaf.bring_up()

    def test_down_tor_raises_no_route(self, router, multi):
        dc = multi.dc(0)
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(1)[0]
        tor = dc.tor_of(a)
        tor.bring_down()
        try:
            with pytest.raises(NoRouteError):
                router.path(a, b, _flow(a, b))
        finally:
            tor.bring_up()

    def test_faulty_but_up_switch_stays_on_path(self, router, multi):
        # Routing must NOT avoid a switch that is up but dropping packets —
        # that blindness is what makes silent drops a hard problem (§5).
        dc = multi.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        seen = set()
        for port in range(50_000, 50_100):
            path = router.path(a, b, _flow(a, b, src_port=port))
            seen.add(path.hops[2].device_id)
        assert len(seen) > 1  # spines still in rotation regardless of faults
