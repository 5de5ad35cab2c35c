"""The inter-DC tier: directional WAN latency, WAN faults, three-rung parity.

Four layers:

* **Topology** — the ``wan_rtt`` matrix is per *direction*; a probe's RTT
  composes forward + reverse entries (never twice either one), and a
  WAN fault bumps the state version so every generation-stamped cache
  rebuilds.
* **Shared drop constant** — ``drops.WAN_DIRECTION_DROP`` is the single
  binding the scalar engine, the analytic fast path, and the class rounds
  all read; monkeypatching it must move all three rungs together.
* **WAN faults** — fiber cut, DCI congestion, partial partition, and
  asymmetric reroute behave per their contracts, register under direction
  markers, and degrade the vectorized rungs to scalar.
* **Property** — across random cut/heal/congest sequences, cached WAN paths
  always equal fresh computation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import drops
from repro.netsim.addressing import FiveTuple
from repro.netsim.fabric import Fabric
from repro.netsim.faults import (
    AsymmetricWanRoute,
    DciCongestion,
    FaultInjector,
    WanFiberCut,
    WanPartialPartition,
    wan_link_id,
)
from repro.netsim.routing import PathScope, Router
from repro.netsim.topology import MultiDCTopology, TopologySpec


def _skew(topo: MultiDCTopology, src_dc: int, dst_dc: int, one_way_s: float) -> None:
    """Retime one WAN direction, as a long-lived asymmetric route does."""
    topo.wan_rtt[(src_dc, dst_dc)] = one_way_s
    topo.state_version.bump()


_SPECS = [
    TopologySpec(
        name="dc-w", region="us-west", n_podsets=2, pods_per_podset=2,
        servers_per_pod=2,
    ),
    TopologySpec(
        name="dc-e", region="us-east", n_podsets=2, pods_per_podset=2,
        servers_per_pod=2,
    ),
    TopologySpec(
        name="dc-eu", region="europe", n_podsets=2, pods_per_podset=2,
        servers_per_pod=2,
    ),
]


def _topology(wan_asymmetry: float = 0.0) -> MultiDCTopology:
    return MultiDCTopology(list(_SPECS), wan_asymmetry=wan_asymmetry)


def _fabric(seed: int = 7, wan_asymmetry: float = 0.0) -> Fabric:
    return Fabric(_topology(wan_asymmetry), seed=seed)


def _pair(fabric_or_topo):
    topo = getattr(fabric_or_topo, "topology", fabric_or_topo)
    return (
        topo.dc(0).servers_in_podset(0)[0],
        topo.dc(1).servers_in_podset(0)[0],
    )


class TestDirectionalWanMatrix:
    def test_default_matrix_is_symmetric_one_way(self):
        topo = _topology()
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                assert topo.wan_rtt[(i, j)] == topo.wan_rtt[(j, i)] > 0.0
                assert topo.wan_pair_rtt(i, j) == (
                    topo.wan_rtt[(i, j)] + topo.wan_rtt[(j, i)]
                )
        assert topo.wan_pair_rtt(0, 0) == 0.0

    def test_asymmetry_skews_directions_but_preserves_pair_rtt(self):
        symmetric = _topology()
        skewed = _topology(wan_asymmetry=0.25)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert skewed.wan_rtt[(i, j)] != skewed.wan_rtt[(j, i)]
            assert skewed.wan_pair_rtt(i, j) == pytest.approx(
                symmetric.wan_pair_rtt(i, j)
            )

    def test_wan_asymmetry_validated(self):
        with pytest.raises(ValueError):
            _topology(wan_asymmetry=1.0)
        with pytest.raises(ValueError):
            _topology(wan_asymmetry=-0.1)

    def test_path_carries_its_directions_entry(self):
        fabric = _fabric()
        src, dst = _pair(fabric)
        _skew(fabric.topology, 0, 1, 0.040)
        _skew(fabric.topology, 1, 0, 0.010)
        flow = FiveTuple(src.ip, 50_000, dst.ip, 81)
        forward = fabric.router.path(src, dst, flow)
        reverse = fabric.router.path(dst, src, flow.reversed())
        assert forward.wan_rtt == 0.040
        assert reverse.wan_rtt == 0.010

    def test_probe_rtt_sums_forward_and_reverse_legs(self):
        """An asymmetric pair's RTT floors at fwd + rev, not 2x either."""
        fabric = _fabric(seed=3)
        src, dst = _pair(fabric)
        _skew(fabric.topology, 0, 1, 0.200)
        _skew(fabric.topology, 1, 0, 0.001)
        pair = fabric.topology.wan_pair_rtt(0, 1)
        results = [fabric.probe(src, dst, t=float(i) * 15) for i in range(20)]
        ok = [r for r in results if r.success]
        assert ok
        for result in ok:
            assert result.rtt_s > pair
            # 2x the long leg would be ~0.4s; the sum is ~0.201s.
            assert result.rtt_s < 2 * 0.200


class TestSharedWanDropConstant:
    def test_kinds_and_path_computations_agree_on_wan(self):
        fabric = _fabric()
        src, dst = _pair(fabric)
        flow = FiveTuple(src.ip, 50_000, dst.ip, 81)
        path = fabric.router.path(src, dst, flow)
        assert path.scope is PathScope.INTER_DC
        model = fabric.drop_model(0)
        assert model.direction_drop_prob(path) == (
            model.direction_drop_prob_kinds(
                tuple(hop.kind for hop in path.hops), wan=True
            )
        )

    def test_wan_drop_keyed_on_scope_not_latency(self):
        """A zero-latency WAN link still pays the crossing drop."""
        fabric = _fabric()
        src, dst = _pair(fabric)
        fabric.topology.wan_rtt[(0, 1)] = 0.0
        fabric.topology.wan_rtt[(1, 0)] = 0.0
        fabric.topology.state_version.bump()
        flow = FiveTuple(src.ip, 50_000, dst.ip, 81)
        path = fabric.router.path(src, dst, flow)
        model = fabric.drop_model(0)
        survive_no_wan = 1.0 - model.direction_drop_prob_kinds(
            tuple(hop.kind for hop in path.hops), wan=False
        )
        survive = 1.0 - model.direction_drop_prob(path)
        assert survive == survive_no_wan * (1.0 - drops.WAN_DIRECTION_DROP)

    def test_monkeypatched_constant_moves_all_three_rungs(self, monkeypatch):
        """One binding: scalar traversal, analytic p_attempt, class facts."""
        monkeypatch.setattr(drops, "WAN_DIRECTION_DROP", 1.0)
        fabric = _fabric(seed=5)
        src, dst = _pair(fabric)
        # Analytic rung: a certain WAN drop makes every attempt fail.
        assert fabric.expected_attempt_drop(src, dst) == 1.0
        # Class rung reads the same number through the kinds formula.
        assert fabric._class_facts(src, dst).p_attempt == 1.0
        # Scalar rung: every inter-DC probe dies on the WAN crossing...
        for i in range(5):
            assert not fabric.probe(src, dst, t=float(i) * 15).success
        # ...while intra-DC probes never consult the constant.
        local = fabric.topology.dc(0).servers_in_podset(1)[0]
        assert fabric.probe(src, local, t=300.0).success

    def test_scalar_drop_rate_matches_analytic_with_inflated_constant(
        self, monkeypatch
    ):
        """Statistical pin: scalar Monte Carlo agrees with the closed form."""
        monkeypatch.setattr(drops, "WAN_DIRECTION_DROP", 0.25)
        fabric = _fabric(seed=13)
        src, dst = _pair(fabric)
        p_attempt = fabric.expected_attempt_drop(src, dst)
        # Both directions pay 25%: p_attempt ~ 1 - 0.75^2 ~ 0.4375.
        assert p_attempt == pytest.approx(0.4375, abs=0.01)
        flow = FiveTuple(src.ip, 50_000, dst.ip, 81)
        forward = fabric.router.path(src, dst, flow)
        reverse = fabric.router.path(dst, src, flow.reversed())
        n = 3000
        failures = 0
        for _ in range(n):
            ok, _extra = fabric._traverse(forward, flow, 0)
            if ok:
                ok, _extra = fabric._traverse(reverse, flow.reversed(), 0)
            failures += not ok
        # 5-sigma noise bound on a 3000-sample Bernoulli estimate.
        assert failures / n == pytest.approx(p_attempt, abs=0.05)


class TestWanFaultKinds:
    def test_fiber_cut_kills_both_directions_and_heals(self):
        fabric = _fabric(seed=9)
        src, dst = _pair(fabric)
        fault = fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
        assert set(fault.link_ids()) == {
            wan_link_id(0, 1), wan_link_id(1, 0),
        }
        for t, (a, b) in enumerate(((src, dst), (dst, src))):
            result = fabric.probe(a, b, t=float(t) * 15)
            assert not result.success
        # A pair not touching the cut trench still crosses fine.
        eu = fabric.topology.dc(2).servers_in_podset(0)[0]
        assert fabric.probe(src, eu, t=100.0).success
        fabric.faults.clear(fault)
        assert fabric.probe(src, dst, t=200.0).success

    def test_fiber_cut_markers_visible_to_envelope_machinery(self):
        fabric = _fabric()
        fault = fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
        marked = fabric.faults.faulted_switch_ids()
        assert wan_link_id(0, 1) in marked
        assert wan_link_id(1, 0) in marked
        assert fabric.faults.wan_faults_on(0, 1) == [fault]
        assert fabric.faults.wan_faults_on(1, 0) == [fault]
        assert fabric.faults.wan_faults_on(0, 2) == []

    def test_directional_fault_touches_one_direction_only(self):
        fabric = _fabric()
        fault = fabric.faults.inject(
            DciCongestion(src_dc=0, dst_dc=1, drop_prob=0.0)
        )
        assert fabric.faults.wan_faults_on(0, 1) == [fault]
        assert fabric.faults.wan_faults_on(1, 0) == []

    def test_congestion_queueing_inflates_rtt(self):
        fabric = _fabric(seed=21)
        src, dst = _pair(fabric)
        pair = fabric.topology.wan_pair_rtt(0, 1)
        fabric.faults.inject(
            DciCongestion(src_dc=0, dst_dc=1, drop_prob=0.0, extra_queue_s=0.030)
        )
        for i in range(10):
            result = fabric.probe(src, dst, t=float(i) * 15)
            if result.success:
                assert result.rtt_s > pair + 0.030

    def test_asymmetric_reroute_adds_latency_no_loss(self):
        fabric = _fabric(seed=23)
        src, dst = _pair(fabric)
        pair = fabric.topology.wan_pair_rtt(0, 1)
        fabric.faults.inject(
            AsymmetricWanRoute(src_dc=1, dst_dc=0, extra_latency_s=0.030)
        )
        results = [fabric.probe(src, dst, t=float(i) * 15) for i in range(10)]
        ok = [r for r in results if r.success]
        # 1e-5-scale baseline loss: expect essentially all to succeed.
        assert len(ok) >= 9
        # The SYN-ACK leg (dc1 -> dc0) pays the reroute on every probe.
        for result in ok:
            assert result.rtt_s > pair + 0.030

    def test_partial_partition_is_deterministic_and_pairwise(self):
        fabric = _fabric(seed=17)
        fabric.faults.inject(
            WanPartialPartition(src_dc=0, dst_dc=1, fraction=0.5)
        )
        fault = fabric.faults.wan_faults_on(0, 1)[0]
        sources = fabric.topology.dc(0).servers
        targets = fabric.topology.dc(1).servers
        verdicts = {}
        for s in sources:
            for d in targets:
                # Unordered-pair hash: SYN and SYN-ACK must agree.
                assert fault.matches(s.ip, d.ip) == fault.matches(d.ip, s.ip)
                verdicts[(s.device_id, d.device_id)] = fault.matches(s.ip, d.ip)
        assert any(verdicts.values()) and not all(verdicts.values())
        for (src_id, dst_id), blocked in list(verdicts.items())[:16]:
            result = fabric.probe(src_id, dst_id, t=30.0)
            assert result.success != blocked

    def test_wan_fault_survives_reload_and_rejects_same_dc(self):
        fabric = _fabric()
        fault = fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
        for dc in (fabric.topology.dc(0), fabric.topology.dc(1)):
            for border in dc.borders:
                fabric.faults.on_reload(border)
        assert fabric.faults.wan_faults_on(0, 1) == [fault]
        with pytest.raises(ValueError):
            WanFiberCut(src_dc=1, dst_dc=1)


class TestThreeRungParityUnderWanFaults:
    def _entries(self, fabric):
        return [
            (server.device_id, 81, 0)
            for server in fabric.topology.dc(1).servers[:6]
        ]

    def test_probe_many_degrades_wan_faulted_pairs_to_scalar(self):
        """With every entry on the faulted trench, probe_many must produce
        the exact probe stream the scalar engine does — same RNG draws."""
        scalar = _fabric(seed=31)
        fast = _fabric(seed=31)
        for fabric in (scalar, fast):
            fabric.faults.inject(
                WanPartialPartition(src_dc=0, dst_dc=1, fraction=0.5)
            )
        src, _ = _pair(scalar)
        entries = self._entries(scalar)
        want = [scalar.probe(src, dst_id, t=10.0, dst_port=port)
                for dst_id, port, _payload in entries]
        got = fast.probe_many(src, entries, t=10.0)
        assert [(r.success, r.rtt_s, r.syn_drops) for r in got] == [
            (r.success, r.rtt_s, r.syn_drops) for r in want
        ]

    def test_class_plan_degrades_only_the_faulted_pair(self):
        fabric = _fabric()
        src, _ = _pair(fabric)
        local = fabric.topology.dc(0).servers_in_podset(1)[0]
        remote = fabric.topology.dc(1).servers_in_podset(0)[0]
        eu = fabric.topology.dc(2).servers_in_podset(0)[0]
        entries = [(local.device_id, 81, 0), (remote.device_id, 81, 0),
                   (eu.device_id, 81, 0)]
        fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
        plan = fabric.build_class_plan(src, entries)
        # Only the dc0<->dc1 entry is fault-touched; dc0->dc2 stays classed.
        assert plan.passthrough == [1]
        assert plan.n_class_probes == 2

    def test_class_groups_split_on_destination_and_direction(self):
        fabric = _fabric()
        _skew(fabric.topology, 0, 1, 0.040)
        src, _ = _pair(fabric)
        remote_e = fabric.topology.dc(1).servers[:2]
        remote_eu = fabric.topology.dc(2).servers[:2]
        entries = [(s.device_id, 81, 0) for s in remote_e + remote_eu]
        plan = fabric.build_class_plan(src, entries)
        groups = {g.dst_dc: g for g in plan.groups}
        assert set(groups) == {1, 2}
        assert groups[1].wan_fwd == 0.040
        assert groups[1].wan_rev == fabric.topology.wan_rtt[(1, 0)]
        assert groups[1].wan_rtt == groups[1].wan_fwd + groups[1].wan_rev
        outcomes = fabric.run_class_plan(plan)
        assert {o.dst_dc for o in outcomes} == {1, 2}

    def test_class_round_rtt_includes_pair_wan_rtt(self):
        fabric = _fabric(seed=41)
        src, _ = _pair(fabric)
        _skew(fabric.topology, 0, 1, 0.200)
        _skew(fabric.topology, 1, 0, 0.001)
        entries = [(s.device_id, 81, 0) for s in fabric.topology.dc(1).servers]
        plan = fabric.build_class_plan(src, entries)
        outcomes = fabric.run_class_plan(plan)
        rtts = np.concatenate([o.rtt_s for o in outcomes])
        assert rtts.size
        assert np.all(rtts > 0.201)
        assert np.all(rtts < 0.400)

    def test_p_attempt_parity_holds_under_asymmetric_latency(self):
        """Direction-skewed latency must not perturb the drop closed form."""
        fabric = _fabric(wan_asymmetry=0.3)
        src, dst = _pair(fabric)
        facts = fabric._class_facts(src, dst)
        assert facts.p_attempt == fabric.expected_attempt_drop(src, dst)


_WAN_OPS = ("cut", "heal", "congest", "noop")


class TestWanCacheInvalidationProperty:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(_WAN_OPS), st.integers(0, 10_000)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_cached_wan_path_equals_fresh_across_cut_heal(self, ops):
        """Fiber cuts, heals and DCI congestion never leave a stale WAN
        path (or stale wan_rtt) in the generation-stamped cache."""
        topo = MultiDCTopology(
            [
                TopologySpec(
                    name="dc-w", region="us-west", n_podsets=1,
                    pods_per_podset=2, servers_per_pod=2,
                ),
                TopologySpec(
                    name="dc-e", region="us-east", n_podsets=1,
                    pods_per_podset=2, servers_per_pod=2,
                ),
            ]
        )
        router = Router(topo)
        injector = FaultInjector(state_version=topo.state_version)
        active: list = []
        src = topo.dc(0).servers[0]
        dst = topo.dc(1).servers[0]

        def check():
            for port in (50_000, 50_007):
                flow = FiveTuple(src.ip, port, dst.ip, 81)
                cached = router.path(src, dst, flow)
                fresh = router.uncached_path(src, dst, flow)
                assert cached.hop_ids() == fresh.hop_ids()
                assert cached.wan_rtt == fresh.wan_rtt
                assert cached.wan_rtt == topo.wan_rtt[(0, 1)]
                rev = router.path(dst, src, flow.reversed())
                assert rev.wan_rtt == topo.wan_rtt[(1, 0)]

        check()
        for op, pick in ops:
            if op == "cut":
                active.append(injector.inject(WanFiberCut(src_dc=0, dst_dc=1)))
            elif op == "heal" and active:
                injector.clear(active.pop(pick % len(active)))
            elif op == "congest":
                active.append(
                    injector.inject(DciCongestion(src_dc=pick % 2, dst_dc=(pick + 1) % 2))
                )
            check()
