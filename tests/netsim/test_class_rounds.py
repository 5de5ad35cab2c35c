"""The closed-form class-round engine against its contracts.

Three layers:

* **Exactness** — the path-free class facts (hop count, WAN RTT, attempt
  drop probability, fault envelope) must be *bit-identical* to what the
  per-pair path machinery computes; the whole engine rests on that.
* **Partition** — ``build_class_plan`` must refuse exactly the pairs the
  per-pair fast path would refuse (payload, down endpoints, envelope ∩
  faults), plus any pair whose route would not resolve.
* **Accounting** — probe-conservation ledger, round reports and
  SNMP increments must all agree with the per-pair path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.netsim.addressing import FiveTuple
from repro.netsim.fabric import (
    Fabric,
    merge_class_plans,
)
from repro.netsim.faults import CongestionFault, SilentRandomDrop
from repro.netsim.routing import SCOPE_HOP_KINDS, PathScope, classify_scope
from repro.netsim.topology import MultiDCTopology, TopologySpec
from tests.conftest import probe_rounds, record_probe_calls
from tests.netsim.test_compile_class_plan import compile_plan

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4, n_spines=4)


def _fabric(seed=7):
    return Fabric.single_dc(_SPEC, seed=seed)


def _multi_dc_fabric(seed=7):
    topology = MultiDCTopology(
        [
            TopologySpec(
                name="dc-e", region="us-east", n_podsets=2,
                pods_per_podset=2, servers_per_pod=2,
            ),
            TopologySpec(
                name="dc-w", region="us-west", n_podsets=2,
                pods_per_podset=2, servers_per_pod=2,
            ),
        ]
    )
    return Fabric(topology, seed=seed)


def _entries_for(fabric, src, peers):
    return [(peer.device_id, 81, 0) for peer in peers]


class TestClassFacts:
    def test_p_attempt_bit_identical_to_path_based(self):
        """For every scope, the kind-sequence drop probability must equal
        the representative-path computation float-for-float."""
        fabric = _multi_dc_fabric()
        dc0 = fabric.topology.dc(0)
        src = dc0.servers_in_podset(0)[0]
        peers = {
            PathScope.INTRA_POD: dc0.servers_in_podset(0)[1],
            PathScope.INTRA_PODSET: dc0.servers_in_podset(0)[-1],
            PathScope.INTRA_DC: dc0.servers_in_podset(1)[0],
            PathScope.INTER_DC: fabric.topology.dc(1).servers_in_podset(0)[0],
        }
        for scope, dst in peers.items():
            assert classify_scope(fabric.topology, src, dst) is scope
            facts = fabric._class_facts(src, dst)
            assert facts.route.scope is scope
            assert facts.route.n_hops == len(SCOPE_HOP_KINDS[scope])
            assert facts.p_attempt == fabric.expected_attempt_drop(src, dst)

    def test_wan_rtt_only_inter_dc(self):
        fabric = _multi_dc_fabric()
        src = fabric.topology.dc(0).servers_in_podset(0)[0]
        local = fabric.topology.dc(0).servers_in_podset(1)[0]
        remote = fabric.topology.dc(1).servers_in_podset(0)[0]
        local_route = fabric._class_facts(src, local).route
        assert (local_route.wan_fwd, local_route.wan_rev) == (0.0, 0.0)
        route = fabric._class_facts(src, remote).route
        # A probe pays both WAN directions; the route keeps each leg.
        assert route.wan_fwd + route.wan_rev == fabric.topology.wan_pair_rtt(0, 1)
        assert route.wan_fwd == fabric.topology.wan_rtt[(0, 1)]
        assert route.wan_rev == fabric.topology.wan_rtt[(1, 0)]

    def test_envelope_covers_every_path_of_the_sweep(self):
        """The route table's envelope is conservative: every hop of every
        source port's forward and reverse path, plus both ToRs."""
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        dst = dc.servers_in_podset(1)[0]
        envelope = fabric._class_facts(src, dst).route.envelope
        assert envelope == fabric._class_facts(dst, src).route.envelope
        crossed = set()
        for port in range(49_152, 49_152 + 256):
            flow = FiveTuple(src.ip, port, dst.ip, 81)
            crossed.update(fabric.router.path(src, dst, flow).hop_ids())
            crossed.update(fabric.router.path(dst, src, flow.reversed()).hop_ids())
        assert crossed <= envelope
        # 256 ports reach every leaf and spine of this small fabric.
        assert crossed == envelope

    def test_cache_invalidates_on_state_version_bump(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        dst = dc.servers_in_podset(1)[0]
        stale = fabric._class_facts(src, dst)
        assert fabric._class_facts(src, dst) is stale
        dc.spines[0].bring_down()
        fresh = fabric._class_facts(src, dst)  # repopulates under the new version
        assert fresh is not stale
        assert dc.spines[0] not in fresh.route.tiers[1][0]
        assert fabric._cache_version == fabric.state_version


class TestPlanPartition:
    def test_healthy_round_fully_classed(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        peers = [s for s in dc.servers if s is not src][:12]
        plan = fabric.build_class_plan(src, _entries_for(fabric, src, peers))
        assert plan.passthrough == []
        assert plan.n_class_probes == 12

    def test_payload_and_self_and_down_degrade(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        up_peer = dc.servers_in_podset(1)[0]
        down_peer = dc.servers_in_podset(1)[1]
        down_peer.bring_down()
        entries = [
            (up_peer.device_id, 81, 1000),  # payload → per-probe fidelity
            (src.device_id, 81, 0),  # self-probe → scalar's error path
            (down_peer.device_id, 81, 0),  # down dst → scalar timeout
            (dc.servers_in_podset(0)[1].device_id, 81, 0),  # healthy
        ]
        plan = fabric.build_class_plan(src, entries)
        assert plan.passthrough == [0, 1, 2]
        assert plan.n_class_probes == 1

    def test_fault_on_envelope_degrades_class(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        same_pod = dc.servers_in_podset(0)[1]
        cross = dc.servers_in_podset(1)[0]
        entries = _entries_for(fabric, src, [same_pod, cross])
        fault = fabric.faults.inject(
            SilentRandomDrop(switch_id=dc.spines[0].device_id, drop_prob=0.2)
        )
        plan = fabric.build_class_plan(src, entries)
        # The spine is on the cross-podset envelope only.
        assert plan.passthrough == [1]
        assert plan.n_class_probes == 1
        fabric.faults.clear(fault)
        plan = fabric.build_class_plan(src, entries)
        assert plan.passthrough == []

    def test_groups_key_on_purpose_and_scope(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        same_pod = dc.servers_in_podset(0)[1]
        cross = dc.servers_in_podset(1)[0]
        entries = _entries_for(fabric, src, [same_pod, cross])
        tags = [("intra-pod", "high"), ("tor-level", "high")]
        plan = fabric.build_class_plan(src, entries, tags)
        keys = {(g.purpose, g.scope) for g in plan.groups}
        assert keys == {
            ("intra-pod", PathScope.INTRA_POD),
            ("tor-level", PathScope.INTRA_DC),
        }


class TestRunClassPlan:
    def test_stale_plan_raises(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        plan = fabric.build_class_plan(
            src, _entries_for(fabric, src, dc.servers_in_podset(1)[:4])
        )
        dc.spines[0].bring_down()
        with pytest.raises(ValueError, match="stale"):
            fabric.run_class_plan(plan)

    def test_probe_conservation_and_observers(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        observed = record_probe_calls(fabric)
        before = fabric.probes_carried
        plan = fabric.build_class_plan(
            src, _entries_for(fabric, src, dc.servers_in_podset(1)[:6])
        )
        fabric.run_class_plan(plan)
        assert fabric.probes_carried - before == 6
        assert len(observed) == 6
        assert {(o[0], o[1]) for o in observed} == {
            (src.device_id, peer.device_id)
            for peer in dc.servers_in_podset(1)[:6]
        }

    def test_outcome_counts_sum_to_members(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        peers = [s for s in dc.servers if s is not src]
        plan = fabric.build_class_plan(src, _entries_for(fabric, src, peers))
        outcomes = fabric.run_class_plan(plan)
        assert sum(o.n for o in outcomes) == len(peers)
        for outcome in outcomes:
            assert outcome.success + outcome.failed == outcome.n
            assert len(outcome.rtt_s) == outcome.success

    def test_snmp_increments_match_fast_path_totals(self):
        """Every class probe charges one packet per forward hop, like the
        per-pair engines."""
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        cross = dc.servers_in_podset(1)[:4]
        before = sum(s.counters.packets_forwarded for s in dc.all_switches())
        plan = fabric.build_class_plan(src, _entries_for(fabric, src, cross))
        fabric.run_class_plan(plan)
        after = sum(s.counters.packets_forwarded for s in dc.all_switches())
        # INTRA_DC forward path: ToR, Leaf, Spine, Leaf, ToR = 5 hops/probe.
        assert after - before == 5 * len(cross)

    def test_class_rtts_match_probe_many_distribution(self):
        """Class-level RTT samples come from the same analytic model as
        ``probe_many``'s fast path — medians within a few percent over a
        big draw."""
        fabric_a = _fabric(seed=11)
        fabric_b = _fabric(seed=11)
        dc = fabric_a.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        dst = dc.servers_in_podset(1)[0]
        n = 4000
        success, rtt_s, _drops = probe_rounds(fabric_b, src, dst, n)
        plan = fabric_a.build_class_plan(
            src, [(dst.device_id, 81, 0)] * n
        )
        outcomes = fabric_a.run_class_plan(plan)
        class_rtts = np.concatenate([o.rtt_s for o in outcomes])
        batch_ok = rtt_s[success]
        assert np.isclose(
            np.median(class_rtts), np.median(batch_ok), rtol=0.05
        )
        assert np.isclose(
            np.percentile(class_rtts, 99), np.percentile(batch_ok, 99), rtol=0.10
        )


class TestLedgerAndMerge:
    def test_merge_class_plans_concatenates_groups(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src_a = dc.servers_in_podset(0)[0]
        src_b = dc.servers_in_podset(0)[1]
        peers = dc.servers_in_podset(1)[:4]
        plan_a = fabric.build_class_plan(src_a, _entries_for(fabric, src_a, peers))
        plan_b = fabric.build_class_plan(src_b, _entries_for(fabric, src_b, peers))
        merged = merge_class_plans([plan_a, plan_b])
        assert merged.n_class_probes == 8
        # Same (purpose, scope, p) key ⇒ one group with both sources' pairs.
        assert len(merged.groups) == 1
        assert merged.groups[0].n == 8

    def test_one_compile_over_many_sources_equals_the_merged_parts(self):
        """A source per entry (the broker's round): the same groups, the
        same members and as many SNMP packets as compiling source by source
        and merging — ``member_indices`` / ``passthrough`` partition the
        round's positions, and ``rounds`` name each source's members."""
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        sources = [dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[1]]
        peers = dc.servers_in_podset(0)[1:3] + dc.servers_in_podset(1)[2:4]
        dc.servers_in_podset(1)[3].bring_down()
        tags = [("broker", "high"), ("broker", "low")] * 2
        plans = [
            fabric.build_class_plan(src, _entries_for(fabric, src, peers), tags)
            for src in sources
        ]
        merged = merge_class_plans(plans)
        # Interleave the two sources' rounds, entry by entry.
        entries = [e for src in sources for e in _entries_for(fabric, src, peers)]
        order = [0, 4, 1, 5, 2, 6, 3, 7]
        whole = compile_plan(
            fabric,
            [sources[i // 4] for i in order],
            [entries[i] for i in order],
            [tags[i % 4] for i in order],
        )

        def keyed(plan):
            return {(g.purpose, g.qos, g.scope, g.n_hops, g.p_attempt): g.n for g in plan.groups}

        def members(plan):
            return sorted(
                (src, *round_[i][:2]) for src, round_, positions in plan.rounds
                for i in positions
            )

        assert keyed(whole) == keyed(merged) and len(whole.groups) > 1
        assert whole.n_class_probes == merged.n_class_probes == 6
        assert members(whole) == members(merged)
        assert sorted(order[i] for i in whole.passthrough) == [3, 7]
        positions = sorted(i for indices in whole.member_indices for i in indices)
        assert sorted(positions + whole.passthrough) == list(range(8))
        assert [src for src, _round, _positions in whole.rounds] == [
            s.device_id for s in sources
        ]
        assert sum(k for _c, k in whole.counter_increments) == sum(
            k for _c, k in merged.counter_increments
        )

    def test_merge_rejects_mixed_generations(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        peers = dc.servers_in_podset(1)[:2]
        plan_a = fabric.build_class_plan(src, _entries_for(fabric, src, peers))
        dc.spines[0].bring_down()
        plan_b = fabric.build_class_plan(src, _entries_for(fabric, src, peers))
        with pytest.raises(ValueError, match="generation"):
            merge_class_plans([plan_a, plan_b])

    def test_congestion_latency_fault_degrades_not_distorts(self):
        """A latency-only fault on the envelope must push pairs to the
        per-pair engines (which traverse the fault), never stay classed."""
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        cross = dc.servers_in_podset(1)[:4]
        fabric.faults.inject(
            CongestionFault(
                switch_id=dc.spines[0].device_id,
                drop_prob=0.0,
                extra_queue_s=400e-6,
            )
        )
        plan = fabric.build_class_plan(src, _entries_for(fabric, src, cross))
        assert plan.groups == []
        assert plan.passthrough == [0, 1, 2, 3]
