"""Tests for the Clos topology builder."""

import pytest

from repro.netsim.devices import DeviceKind, Server
from repro.netsim.topology import (
    MEDIUM_SPEC,
    ClosTopology,
    MultiDCTopology,
    TopologySpec,
)


class TestTopologySpec:
    def test_defaults_are_consistent(self):
        spec = TopologySpec()
        assert spec.n_pods == spec.n_podsets * spec.pods_per_podset
        assert spec.n_servers == spec.n_pods * spec.servers_per_pod

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            TopologySpec(n_podsets=0)
        with pytest.raises(ValueError):
            TopologySpec(servers_per_pod=0)

    def test_rejects_unknown_region(self):
        with pytest.raises(ValueError):
            TopologySpec(region="atlantis")


class TestClosTopology:
    @pytest.fixture(scope="class")
    def topo(self):
        return ClosTopology(TopologySpec())

    def test_device_counts(self, topo):
        spec = topo.spec
        assert len(topo.servers) == spec.n_servers
        assert len(topo.tors) == spec.n_pods
        assert len(topo.spines) == spec.n_spines
        assert sum(len(leaves) for leaves in topo.leaves) == (
            spec.n_podsets * spec.leaves_per_podset
        )

    def test_server_ips_unique(self, topo):
        ips = {server.ip for server in topo.servers}
        assert len(ips) == len(topo.servers)

    def test_device_lookup_by_id(self, topo):
        server = topo.servers[0]
        assert topo.device(server.device_id) is server

    def test_unknown_device_raises(self, topo):
        with pytest.raises(KeyError):
            topo.device("dc0/nothing")

    def test_tor_of_server(self, topo):
        server = topo.servers[0]
        tor = topo.tor_of(server)
        assert tor.kind == DeviceKind.TOR
        assert tor.pod_index == server.pod_index

    def test_servers_in_pod(self, topo):
        pod_servers = topo.servers_in_pod(2)
        assert len(pod_servers) == topo.spec.servers_per_pod
        assert all(server.pod_index == 2 for server in pod_servers)

    def test_servers_in_podset(self, topo):
        podset_servers = topo.servers_in_podset(1)
        expected = topo.spec.pods_per_podset * topo.spec.servers_per_pod
        assert len(podset_servers) == expected
        assert all(server.podset_index == 1 for server in podset_servers)

    def test_host_index_within_pod(self, topo):
        for server in topo.servers_in_pod(0):
            assert 0 <= server.host_index < topo.spec.servers_per_pod

    def test_all_switches_cover_every_tier(self, topo):
        kinds = {switch.kind for switch in topo.all_switches()}
        assert kinds == {
            DeviceKind.TOR,
            DeviceKind.LEAF,
            DeviceKind.SPINE,
            DeviceKind.BORDER,
        }

    def test_medium_spec_scales(self):
        topo = ClosTopology(MEDIUM_SPEC)
        assert len(topo.servers) == 800


class TestMultiDCTopology:
    @pytest.fixture(scope="class")
    def multi(self):
        return MultiDCTopology(
            [
                TopologySpec(name="dc-a", region="us-west"),
                TopologySpec(name="dc-b", region="europe"),
                TopologySpec(name="dc-c", region="asia"),
            ]
        )

    def test_requires_at_least_one_dc(self):
        with pytest.raises(ValueError):
            MultiDCTopology([])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            MultiDCTopology([TopologySpec(name="x"), TopologySpec(name="x")])

    def test_dc_lookup_by_name_and_index(self, multi):
        assert multi.dc("dc-b") is multi.dc(1)

    def test_unknown_dc_raises(self, multi):
        with pytest.raises(KeyError):
            multi.dc("dc-z")

    def test_wan_rtt_symmetric_and_positive(self, multi):
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert multi.wan_rtt[(i, j)] == multi.wan_rtt[(j, i)]
                    assert multi.wan_rtt[(i, j)] > 0

    def test_wan_rtt_tracks_distance(self, multi):
        # us-west <-> europe is shorter than us-west <-> asia.
        assert multi.wan_rtt[(0, 1)] < multi.wan_rtt[(0, 2)]

    def test_server_ips_unique_across_dcs(self, multi):
        ips = {server.ip for server in multi.all_servers()}
        assert len(ips) == multi.n_servers

    def test_device_routing_by_id_prefix(self, multi):
        server = multi.dc("dc-c").servers[5]
        assert multi.device(server.device_id) is server
        assert multi.server(server.device_id) is server

    def test_server_accessor_rejects_switches(self, multi):
        tor = multi.dc("dc-a").tors[0]
        with pytest.raises(TypeError):
            multi.server(tor.device_id)

    def test_single_factory(self):
        multi = MultiDCTopology.single()
        assert len(multi.dcs) == 1
        assert isinstance(multi.dcs[0].servers[0], Server)
