"""Property-based invariants over random topologies and flows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller.generator import PingmeshGenerator
from repro.netsim.addressing import FiveTuple
from repro.netsim.devices import DeviceKind
from repro.netsim.fabric import Fabric
from repro.netsim.routing import PathScope, Router
from repro.netsim.topology import MultiDCTopology, TopologySpec
from tests.conftest import probe_rounds

# Small bounded topologies keep each example fast while varying structure.
topologies = st.builds(
    TopologySpec,
    n_podsets=st.integers(min_value=1, max_value=3),
    pods_per_podset=st.integers(min_value=1, max_value=4),
    servers_per_pod=st.integers(min_value=1, max_value=6),
    leaves_per_podset=st.integers(min_value=1, max_value=3),
    n_spines=st.integers(min_value=1, max_value=5),
)


class TestRoutingInvariants:
    @given(
        topologies,
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=49_152, max_value=65_535),
    )
    @settings(max_examples=60, deadline=None)
    def test_path_structure_always_valid(self, spec, i, j, port):
        """Any path: starts at src's ToR, ends at dst's ToR, valid tiers."""
        topo = MultiDCTopology.single(spec)
        servers = topo.dc(0).servers
        src = servers[i % len(servers)]
        dst = servers[j % len(servers)]
        router = Router(topo)
        flow = FiveTuple(src.ip, port, dst.ip, 81)
        path = router.path(src, dst, flow)

        if src is dst:
            assert path.scope == PathScope.SAME_HOST
            assert path.hops == []
            return
        assert path.hops[0] is topo.dc(0).tor_of(src)
        assert path.hops[-1] is topo.dc(0).tor_of(dst) or (
            path.scope == PathScope.INTRA_POD
        )
        # Tier sequence is one of the three legal intra-DC shapes.
        kinds = tuple(hop.kind for hop in path.hops)
        assert kinds in (
            (DeviceKind.TOR,),
            (DeviceKind.TOR, DeviceKind.LEAF, DeviceKind.TOR),
            (
                DeviceKind.TOR,
                DeviceKind.LEAF,
                DeviceKind.SPINE,
                DeviceKind.LEAF,
                DeviceKind.TOR,
            ),
        )
        # Every hop is up (routing never uses down devices).
        assert all(hop.is_up for hop in path.hops)
        assert path.wan_rtt == 0.0

    @given(
        topologies,
        st.integers(min_value=49_152, max_value=65_535),
    )
    @settings(max_examples=40, deadline=None)
    def test_path_deterministic_per_flow(self, spec, port):
        topo = MultiDCTopology.single(spec)
        servers = topo.dc(0).servers
        src, dst = servers[0], servers[-1]
        router = Router(topo)
        flow = FiveTuple(src.ip, port, dst.ip, 81)
        assert (
            router.path(src, dst, flow).hop_ids()
            == router.path(src, dst, flow).hop_ids()
        )


class TestGeneratorInvariants:
    @given(topologies)
    @settings(max_examples=30, deadline=None)
    def test_no_server_pings_itself_and_peers_exist(self, spec):
        topo = MultiDCTopology.single(spec)
        generator = PingmeshGenerator(topo)
        for server in topo.dc(0).servers[:6]:
            pinglist = generator.generate_for(server.device_id)
            for entry in pinglist.entries:
                assert entry.peer_id != server.device_id
                peer = topo.server(entry.peer_id)  # must resolve
                if entry.purpose == "intra-pod":
                    assert peer.pod_index == server.pod_index
                elif entry.purpose == "tor-level":
                    assert peer.pod_index != server.pod_index
                    assert peer.host_index == server.host_index

    @given(topologies)
    @settings(max_examples=20, deadline=None)
    def test_probing_matrix_is_symmetric(self, spec):
        """i pings j  <=>  j pings i (both directions generated)."""
        topo = MultiDCTopology.single(spec)
        pinglists = PingmeshGenerator(topo).generate_all()
        edges = {
            (src, entry.peer_id)
            for src, pinglist in pinglists.items()
            for entry in pinglist.entries
        }
        assert all((dst, src) in edges for src, dst in edges)


class TestFabricInvariants:
    @given(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_probe_outcome_well_formed(self, seed, pair_index):
        fabric = Fabric.single_dc(TopologySpec(), seed=seed)
        servers = fabric.topology.dc(0).servers
        src = servers[pair_index % len(servers)]
        dst = servers[(pair_index * 7 + 1) % len(servers)]
        result = fabric.probe(src, dst)
        assert result.rtt_s >= 0
        if result.success:
            assert result.error is None
            assert result.syn_drops in (0, 1, 2)
            # RTT must be consistent with the retransmission signature.
            if result.syn_drops == 0:
                assert result.rtt_s < 3.0
            elif result.syn_drops == 1:
                assert 3.0 <= result.rtt_s < 9.0
            else:
                assert 9.0 <= result.rtt_s < 21.0
        else:
            assert result.error is not None

    @given(st.integers(min_value=1, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_probe_round_statistics_sane(self, seed):
        fabric = Fabric.single_dc(TopologySpec(), seed=seed)
        dc = fabric.topology.dc(0)
        success, rtt_s, _drops = probe_rounds(fabric, dc.servers[0], dc.servers[30], 2000)
        assert success.mean() > 0.99
        ok = rtt_s[success]
        assert (ok > 0).all()
        assert np.median(ok) < 5e-3  # healthy medians are sub-ms scale
