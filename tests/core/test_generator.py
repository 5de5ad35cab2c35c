"""Tests for the pinglist generation algorithm (§3.3.1)."""

import pytest

from repro.core.controller.generator import GeneratorConfig, PingmeshGenerator
from repro.netsim.topology import MultiDCTopology, TopologySpec


@pytest.fixture(scope="module")
def single_dc():
    return MultiDCTopology.single(TopologySpec())


@pytest.fixture(scope="module")
def multi_dc():
    return MultiDCTopology(
        [
            TopologySpec(name="dc-a", region="us-west"),
            TopologySpec(name="dc-b", region="europe"),
            TopologySpec(name="dc-c", region="asia"),
        ]
    )


class TestIntraPodLevel:
    def test_complete_graph_within_pod(self, single_dc):
        generator = PingmeshGenerator(single_dc)
        server = single_dc.dc(0).servers_in_pod(0)[0]
        pinglist = generator.generate_for(server.device_id)
        intra = pinglist.peers_by_purpose("intra-pod")
        expected_peers = single_dc.dc(0).spec.servers_per_pod - 1
        assert len(intra) == expected_peers
        assert all(entry.peer_id != server.device_id for entry in intra)

    def test_intra_pod_is_symmetric(self, single_dc):
        """Both directions are generated — each side measures independently."""
        generator = PingmeshGenerator(single_dc)
        a, b = single_dc.dc(0).servers_in_pod(0)[:2]
        a_list = generator.generate_for(a.device_id)
        b_list = generator.generate_for(b.device_id)
        assert b.device_id in {e.peer_id for e in a_list.peers_by_purpose("intra-pod")}
        assert a.device_id in {e.peer_id for e in b_list.peers_by_purpose("intra-pod")}


class TestTorLevel:
    def test_server_i_pings_server_i(self, single_dc):
        """'for any ToR-pair (ToRx, ToRy), let server i in ToRx ping server
        i in ToRy' — host indices must match."""
        generator = PingmeshGenerator(single_dc)
        dc = single_dc.dc(0)
        server = dc.servers_in_pod(0)[3]  # host index 3
        pinglist = generator.generate_for(server.device_id)
        for entry in pinglist.peers_by_purpose("tor-level"):
            peer = single_dc.server(entry.peer_id)
            assert peer.host_index == server.host_index
            assert peer.pod_index != server.pod_index

    def test_one_peer_per_other_pod(self, single_dc):
        generator = PingmeshGenerator(single_dc)
        dc = single_dc.dc(0)
        pinglist = generator.generate_for(dc.servers[0].device_id)
        tor_level = pinglist.peers_by_purpose("tor-level")
        assert len(tor_level) == dc.spec.n_pods - 1
        pods = {single_dc.server(e.peer_id).pod_index for e in tor_level}
        assert len(pods) == dc.spec.n_pods - 1

    def test_all_servers_participate(self, single_dc):
        """'We finally come up with the idea of letting all the servers
        participate' — every server has a non-empty pinglist."""
        generator = PingmeshGenerator(single_dc)
        pinglists = generator.generate_all()
        assert len(pinglists) == single_dc.n_servers
        assert all(len(p) > 0 for p in pinglists.values())

    def test_probing_load_is_balanced(self, single_dc):
        """Every server is probed by roughly the same number of peers."""
        generator = PingmeshGenerator(single_dc)
        pinglists = generator.generate_all()
        probed_by: dict[str, int] = {}
        for pinglist in pinglists.values():
            for entry in pinglist.entries:
                probed_by[entry.peer_id] = probed_by.get(entry.peer_id, 0) + 1
        counts = list(probed_by.values())
        assert max(counts) == min(counts)  # perfectly balanced by symmetry


class TestInterDcLevel:
    def test_only_selected_servers_probe_across_dcs(self, multi_dc):
        generator = PingmeshGenerator(
            multi_dc, GeneratorConfig(inter_dc_servers_per_podset=2)
        )
        dc = multi_dc.dc(0)
        selected = generator.inter_dc_selection(dc)
        assert len(selected) == dc.spec.n_podsets * 2
        chosen = selected[0]
        not_chosen = dc.servers_in_podset(0)[5]
        assert len(
            generator.generate_for(chosen.device_id).peers_by_purpose("inter-dc")
        ) > 0
        assert (
            generator.generate_for(not_chosen.device_id).peers_by_purpose("inter-dc")
            == []
        )

    def test_dc_complete_graph(self, multi_dc):
        """Selected servers probe selections of every *other* DC."""
        generator = PingmeshGenerator(multi_dc)
        chosen = generator.inter_dc_selection(multi_dc.dc(0))[0]
        entries = generator.generate_for(chosen.device_id).peers_by_purpose("inter-dc")
        dcs_probed = {multi_dc.server(e.peer_id).dc_index for e in entries}
        assert dcs_probed == {1, 2}

    def test_single_dc_has_no_inter_dc_entries(self, single_dc):
        generator = PingmeshGenerator(single_dc)
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        assert pinglist.peers_by_purpose("inter-dc") == []

    def test_selection_is_deterministic(self, multi_dc):
        """Stateless controller replicas must agree on the selection."""
        a = PingmeshGenerator(multi_dc).inter_dc_selection(multi_dc.dc(1))
        b = PingmeshGenerator(multi_dc).inter_dc_selection(multi_dc.dc(1))
        assert [s.device_id for s in a] == [s.device_id for s in b]

    def test_selection_skips_down_servers(self, multi_dc):
        """Regression: a down pivot must fall through to the next live
        server, not silently blind its podset's inter-DC coverage."""
        generator = PingmeshGenerator(
            multi_dc, GeneratorConfig(inter_dc_servers_per_podset=2)
        )
        dc = multi_dc.dc(0)
        healthy = generator.inter_dc_selection(dc)
        downed = healthy[0]
        downed.bring_down()
        try:
            selected = generator.inter_dc_selection(dc)
            assert downed.device_id not in {s.device_id for s in selected}
            assert all(s.is_up for s in selected)
            # The podset still fields its full complement of pivots.
            assert len(selected) == len(healthy)
            # The replacement is the next live server of the same podset.
            assert selected[0] is dc.servers_in_podset(0)[1]
        finally:
            downed.bring_up()


class TestExtensions:
    def test_qos_low_duplicates_tor_level(self, single_dc):
        generator = PingmeshGenerator(single_dc, GeneratorConfig(enable_qos_low=True))
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        high = [e for e in pinglist.entries if e.qos == "high" and e.purpose == "tor-level"]
        low = [e for e in pinglist.entries if e.qos == "low"]
        assert len(low) == len([e for e in high if e.payload_bytes == 0])

    def test_payload_entries_every_nth(self, single_dc):
        generator = PingmeshGenerator(
            single_dc, GeneratorConfig(payload_every_nth_peer=2, payload_bytes=1000)
        )
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        payload_entries = [e for e in pinglist.entries if e.payload_bytes == 1000]
        tor_level_plain = [
            e
            for e in pinglist.entries
            if e.purpose == "tor-level" and e.payload_bytes == 0
        ]
        assert len(payload_entries) == (len(tor_level_plain) + 1) // 2

    def test_vip_targets_appended(self, single_dc):
        generator = PingmeshGenerator(
            single_dc, GeneratorConfig(vip_targets=("search.vip", "storage.vip"))
        )
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        vips = pinglist.peers_by_purpose("vip")
        assert {e.peer_id for e in vips} == {"search.vip", "storage.vip"}


class TestSharedStateIsFrozen:
    def test_a_pinglist_cannot_alter_the_memo_it_came_from(self, single_dc):
        """Regression: ``generate_for`` used to hand out the memo's own
        ``list``, so one caller's ``entries.clear()`` emptied that server's
        pinglist in every later generation."""
        generator = PingmeshGenerator(single_dc)
        server_id = single_dc.dc(0).servers[0].device_id
        first = generator.generate_for(server_id, generation=1)
        assert isinstance(first.entries, tuple)
        first.entries = first.entries[:1]  # a holder trimming its own copy
        again = generator.generate_for(server_id, generation=2)
        assert len(again) == len(generator.generate_all()[server_id]) > 1
        assert generator.entries_computed == single_dc.n_servers

    def test_one_parameters_object_per_config(self, single_dc):
        generator = PingmeshGenerator(single_dc)
        a, b = (s.device_id for s in single_dc.dc(0).servers[:2])
        parameters = generator.generate_for(a).parameters
        assert generator.generate_for(b, generation=2).parameters is parameters
        generator.config = GeneratorConfig(probe_interval_s=30.0)
        swapped = generator.generate_for(a).parameters
        assert swapped is not parameters and swapped.probe_interval_s == 30.0


class TestThreshold:
    def test_peers_capped(self, single_dc):
        generator = PingmeshGenerator(
            single_dc, GeneratorConfig(max_peers_per_server=10)
        )
        for pinglist in generator.generate_all().values():
            assert len(pinglist) <= 10

    def test_intra_pod_survives_trimming(self, single_dc):
        generator = PingmeshGenerator(
            single_dc, GeneratorConfig(max_peers_per_server=8)
        )
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        # 7 intra-pod peers fit in the budget of 8 and have top priority.
        assert len(pinglist.peers_by_purpose("intra-pod")) == 7

    def test_trimming_samples_rather_than_truncates(self, single_dc):
        generator = PingmeshGenerator(
            single_dc, GeneratorConfig(max_peers_per_server=11)
        )
        pinglist = generator.generate_for(single_dc.dc(0).servers[0].device_id)
        tor_level = pinglist.peers_by_purpose("tor-level")
        pods = sorted(single_dc.server(e.peer_id).pod_index for e in tor_level)
        # 4 slots for 7 pods: sampled across the range, not pods [1,2,3,4].
        assert pods[-1] > 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(max_peers_per_server=0)
        with pytest.raises(ValueError):
            GeneratorConfig(inter_dc_servers_per_podset=0)
        with pytest.raises(ValueError):
            GeneratorConfig(payload_bytes=100)
        with pytest.raises(ValueError):
            GeneratorConfig(payload_every_nth_peer=-1)

    def test_pinglist_sizes_scale_with_dc_size(self):
        """§3.3.1: pinglist size depends on the size of the data center."""
        small = MultiDCTopology.single(TopologySpec())
        big = MultiDCTopology.single(
            TopologySpec(n_podsets=4, pods_per_podset=8, servers_per_pod=10)
        )
        small_len = len(
            PingmeshGenerator(small).generate_for(small.dc(0).servers[0].device_id)
        )
        big_len = len(
            PingmeshGenerator(big).generate_for(big.dc(0).servers[0].device_id)
        )
        assert big_len > small_len
