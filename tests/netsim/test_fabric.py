"""Tests for the Fabric engine: probes, batches, faults, counters."""

import numpy as np
import pytest

from repro.netsim.fabric import DEFAULT_PROBE_PORT, Fabric
from repro.netsim.faults import BlackholeType1, BlackholeType2, SilentRandomDrop
from repro.netsim.routing import PathScope
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.netsim.workload import profile_for
from tests.conftest import probe_rounds, record_probe_calls


@pytest.fixture()
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=7)


@pytest.fixture()
def dc(fabric):
    return fabric.topology.dc(0)


class TestScalarProbe:
    def test_healthy_probe_succeeds_with_sub_ms_rtt(self, fabric, dc):
        result = fabric.probe(dc.servers[0], dc.servers[1])
        assert result.success
        assert result.error is None
        assert 50e-6 < result.rtt_s < 0.1
        assert result.scope == PathScope.INTRA_POD

    def test_probe_accepts_device_ids(self, fabric, dc):
        result = fabric.probe(dc.servers[0].device_id, dc.servers[9].device_id)
        assert result.success

    def test_source_ports_rotate(self, fabric, dc):
        ports = {
            fabric.probe(dc.servers[0], dc.servers[1]).flow.src_port
            for _ in range(20)
        }
        assert len(ports) == 20

    def test_pinned_source_port_respected(self, fabric, dc):
        result = fabric.probe(dc.servers[0], dc.servers[1], src_port=55_123)
        assert result.flow.src_port == 55_123

    def test_down_destination_times_out(self, fabric, dc):
        victim = dc.servers[5]
        victim.bring_down()
        result = fabric.probe(dc.servers[0], victim)
        assert not result.success
        assert result.error == "timeout"
        assert result.rtt_s == pytest.approx(21.0)

    def test_down_source_reports_agent_down(self, fabric, dc):
        src = dc.servers[3]
        src.bring_down()
        result = fabric.probe(src, dc.servers[0])
        assert result.error == "agent_down"

    def test_refused_probe_is_not_counted_as_carried(self, fabric, dc):
        """A src-host-down probe never entered the network: it must land in
        ``probes_refused``, not ``probes_carried`` (the old accounting
        counted it as carried and broke the conservation ledger)."""
        fabric.probe(dc.servers[0], dc.servers[1])
        src = dc.servers[3]
        src.bring_down()
        fabric.probe(src, dc.servers[0])
        assert (fabric.probes_carried, fabric.probes_refused) == (1, 1)

    def test_probe_ledger_matches_observer_count(self, fabric, dc):
        """carried + refused == probes reported: every probe
        source — the scalar path, the refused path and a probe_many
        round — reports, so the ledger covers all 52."""
        seen = record_probe_calls(fabric)
        fabric.probe(dc.servers[0], dc.servers[1])
        dc.servers[3].bring_down()
        fabric.probe(dc.servers[3], dc.servers[0])
        probe_rounds(fabric, dc.servers[0], dc.servers[40], 50)
        assert fabric.probes_carried + fabric.probes_refused == len(seen) == 52

    def test_no_route_when_leaf_tier_down(self, fabric, dc):
        for leaf in dc.leaves_of(0):
            leaf.bring_down()
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(1)[0]
        result = fabric.probe(a, b)
        assert result.error == "no_route"

    def test_forward_hops_recorded(self, fabric, dc):
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        result = fabric.probe(a, b)
        assert len(result.forward_hops) == 5
        assert any("spine" in hop for hop in result.forward_hops)

    def test_payload_probe_reports_both_rtts(self, fabric, dc):
        result = fabric.probe(dc.servers[0], dc.servers[20], payload_bytes=1000)
        assert result.success
        assert result.payload_rtt_s is not None
        assert result.payload_rtt_s > 0

    def test_counters_increment(self, fabric, dc):
        tor = dc.tor_of(dc.servers[0])
        before = tor.counters.packets_forwarded
        fabric.probe(dc.servers[0], dc.servers[1])
        assert tor.counters.packets_forwarded > before

    def test_seed_determinism(self):
        results_a = _rtts(Fabric.single_dc(seed=123))
        results_b = _rtts(Fabric.single_dc(seed=123))
        assert results_a == results_b

    def test_different_seeds_differ(self):
        assert _rtts(Fabric.single_dc(seed=1)) != _rtts(Fabric.single_dc(seed=2))


def _rtts(fabric):
    dc = fabric.topology.dc(0)
    return [fabric.probe(dc.servers[0], dc.servers[30]).rtt_s for _ in range(10)]


class TestBatchProbe:
    """Many probes between one pair, as ``probe_many`` rounds draw them."""

    def test_shapes_and_masks(self, fabric, dc):
        a, b = dc.servers[0], dc.servers[30]
        success, rtt_s, syn_drops = probe_rounds(fabric, a, b, 5000)
        assert rtt_s.shape == syn_drops.shape == success.shape == (5000,)
        assert success.dtype == bool
        assert (rtt_s[success] > 0).all()

    def test_healthy_batch_mostly_succeeds(self, fabric, dc):
        a, b = dc.servers[0], dc.servers[30]
        success, _rtt, _drops = probe_rounds(fabric, a, b, 50_000)
        assert success.mean() > 0.999

    def test_attempt_drop_prob_matches_profile(self, fabric, dc):
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        plan = fabric.build_class_plan(a, [(b.device_id, DEFAULT_PROBE_PORT, 0)])
        profile = profile_for(dc.spec.profile_name)
        assert plan.groups[0].p_attempt == pytest.approx(
            profile.inter_pod_drop, rel=0.01
        )

    def test_drop_signatures_are_3s_and_9s(self, fabric, dc):
        a, b = dc.servers[0], dc.servers[30]
        _ok, rtt_s, syn_drops = probe_rounds(fabric, a, b, 300_000)
        one_drop = rtt_s[syn_drops == 1]
        if one_drop.size:
            assert (one_drop >= 3.0).all()
            assert (one_drop < 4.0).all()

    def test_batch_falls_back_to_scalar_on_fault(self, fabric, dc):
        a = dc.servers_in_pod(0)[0]
        b = dc.servers_in_pod(0)[1]
        tor = dc.tor_of(a)
        fabric.faults.inject(
            BlackholeType1(switch_id=tor.device_id, fraction=1.0)
        )
        # A ToR fault sends every probe of the pair to the scalar engine,
        # which sees the blackhole; the analytic draw would succeed.
        success, _rtt, _drops = probe_rounds(fabric, a, b, 50)
        assert not success.any()

    def test_batch_with_down_destination(self, fabric, dc):
        victim = dc.servers[2]
        victim.bring_down()
        success, _rtt, _drops = probe_rounds(fabric, dc.servers[0], victim, 20)
        assert not success.any()

    def test_batch_and_scalar_distributions_agree(self, dc):
        """Same models behind both paths: medians must line up."""
        fabric = Fabric.single_dc(TopologySpec(), seed=99)
        dc = fabric.topology.dc(0)
        a, b = dc.servers[0], dc.servers[30]
        scalar = np.array([fabric.probe(a, b).rtt_s for _ in range(800)])
        success, rtt_s, _drops = probe_rounds(fabric, a, b, 20_000)
        assert np.median(scalar) == pytest.approx(np.median(rtt_s[success]), rel=0.15)


class TestFaultsThroughFabric:
    def test_type1_blackhole_kills_pair_deterministically(self, fabric, dc):
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(0)[1]
        tor = dc.tor_of(a)
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        results = [fabric.probe(a, b) for _ in range(5)]
        assert all(r.error == "timeout" for r in results)
        # Every failed probe shows the full retransmission wait.
        assert all(r.rtt_s == pytest.approx(21.0) for r in results)

    def test_type2_blackhole_passes_some_ports(self, fabric, dc):
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(0)[1]
        tor = dc.tor_of(a)
        fabric.faults.inject(BlackholeType2(switch_id=tor.device_id, fraction=0.4))
        outcomes = [fabric.probe(a, b).success for _ in range(60)]
        assert any(outcomes) and not all(outcomes)

    def test_silent_drop_raises_timeout_rate(self, fabric, dc):
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        for spine in dc.spines:
            fabric.faults.inject(
                SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.3)
            )
        results = [fabric.probe(a, b) for _ in range(200)]
        retransmits = sum(1 for r in results if r.syn_drops > 0)
        assert retransmits > 20

    def test_silent_drops_invisible_to_snmp(self, fabric, dc):
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        spine = dc.spines[0]
        fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=1.0)
        )
        for _ in range(50):
            fabric.probe(a, b)
        assert spine.counters.input_discards == 0
        assert spine.counters.output_discards == 0

    def test_reload_switch_clears_blackhole(self, fabric, dc):
        a, b = dc.servers_in_pod(0)[0], dc.servers_in_pod(0)[1]
        tor = dc.tor_of(a)
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        assert not fabric.probe(a, b).success
        cleared = fabric.reload_switch(tor.device_id)
        assert len(cleared) == 1
        assert fabric.probe(a, b).success

    def test_reload_does_not_clear_silent_drops(self, fabric, dc):
        spine = dc.spines[0]
        fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.01)
        )
        cleared = fabric.reload_switch(spine.device_id)
        assert cleared == []
        assert fabric.faults.faults_on(spine.device_id)

    def test_isolate_switch_removes_from_rotation(self, fabric, dc):
        spine = dc.spines[2]
        fabric.isolate_switch(spine.device_id)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        for _ in range(100):
            result = fabric.probe(a, b)
            assert spine.device_id not in result.forward_hops

    def test_reload_helpers_reject_servers(self, fabric, dc):
        with pytest.raises(TypeError):
            fabric.reload_switch(dc.servers[0].device_id)
        with pytest.raises(TypeError):
            fabric.isolate_switch(dc.servers[0].device_id)


class TestExpectedAttemptDrop:
    def test_matches_empirical_timeouts(self, dc):
        fabric = Fabric.single_dc(TopologySpec(), seed=5)
        dc = fabric.topology.dc(0)
        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        expected = fabric.expected_attempt_drop(a, b)
        _ok, _rtt, syn_drops = probe_rounds(fabric, a, b, 2_000_000)
        empirical = (syn_drops >= 1).mean()
        assert empirical == pytest.approx(expected, rel=0.25)


class TestInterDC:
    def test_inter_dc_probe_includes_wan_latency(self):
        multi = MultiDCTopology(
            [
                TopologySpec(name="w", region="us-west"),
                TopologySpec(name="e", region="europe", profile_name="interactive"),
            ]
        )
        fabric = Fabric(multi, seed=3)
        a = multi.dc(0).servers[0]
        b = multi.dc(1).servers[0]
        result = fabric.probe(a, b)
        assert result.success
        assert result.scope == PathScope.INTER_DC
        assert result.rtt_s > multi.wan_rtt[(0, 1)]

    def test_profile_override_mapping(self):
        multi = MultiDCTopology.single(TopologySpec(name="dcx"))
        fabric = Fabric(
            multi, profiles={"dcx": profile_for("interactive")}
        )
        assert fabric.profile_of(0).name == "interactive"
