"""Fast rounds must be statistically indistinguishable from scalar rounds.

``probe_many`` samples the healthy partition of a round from the analytic
model the class rounds also draw from, while anything needing full fidelity
runs the scalar engine.  These tests pin both halves of that contract:
the partition rule (who goes where — envelope first, flow second) and
distribution parity (fast and scalar rounds with the same seed agree on
drop rate and percentiles, with or without a fault on the envelope).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.agent import AgentConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.fabric import Fabric
from repro.netsim.faults import BlackholeType1, SilentRandomDrop, podset_down
from repro.netsim.topology import TopologySpec
from repro.stream.sketch import ClassStats
from tests.conftest import record_probe_calls
from tests.netsim.test_degraded_lockstep import _comparable

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4, n_spines=4)


def _fabric(seed=5):
    return Fabric.single_dc(_SPEC, seed=seed)


def _round_entries(fabric, n=12):
    dc = fabric.topology.dc(0)
    src = dc.servers_in_podset(0)[0]
    peers = [s for s in dc.servers if s.device_id != src.device_id][:n]
    return src, [(peer.device_id, 81, 0) for peer in peers]


def _count_scalar_probes(fabric):
    """Monkeypatch-free spy: a scalar probe is a pass through the engine's
    per-hop core (``probe``'s or a judged flow's), so wrap the bound method."""
    calls = []
    original = fabric._probe_along

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    fabric._probe_along = spy
    return calls


class TestPartitionRule:
    def test_healthy_round_is_fully_fast(self):
        fabric = _fabric()
        src, entries = _round_entries(fabric)
        calls = _count_scalar_probes(fabric)
        results = fabric.probe_many(src, entries)
        assert len(results) == len(entries)
        assert calls == []  # nothing needed the scalar engine

    def test_payload_entries_take_the_scalar_engine(self):
        fabric = _fabric()
        src, entries = _round_entries(fabric, n=4)
        entries[1] = (entries[1][0], 81, 800)
        calls = _count_scalar_probes(fabric)
        results = fabric.probe_many(src, entries)
        assert len(calls) == 1
        assert results[1].payload_rtt_s is not None or not results[1].success

    def test_down_destination_takes_the_scalar_engine(self):
        fabric = _fabric()
        src, entries = _round_entries(fabric, n=4)
        fabric.topology.server(entries[2][0]).bring_down()
        calls = _count_scalar_probes(fabric)
        results = fabric.probe_many(src, entries)
        assert len(calls) == 1
        assert not results[2].success

    def test_fault_in_envelope_is_judged_per_flow(self):
        """A fault on a switch the pair's ECMP sweep *could* cross sends to
        the scalar engine the flows whose own path — out or back, under
        this round's source port — does cross it, and no other."""
        fabric = _fabric()
        src, _entries = _round_entries(fabric)
        # Fault one spine: every cross-podset pair has it in its envelope,
        # whichever spine a representative flow would hash to.
        spine = fabric.topology.dc(0).spines[0]
        fabric.faults.inject(SilentRandomDrop(switch_id=spine.device_id))
        scalar_ports = []
        core = fabric._probe_along
        fabric._probe_along = lambda forward, reverse, flow, *args, **kwargs: (
            scalar_ports.append(flow.src_port)
            or core(forward, reverse, flow, *args, **kwargs)
        )
        cross = [
            (s.device_id, port, 0)
            for s in fabric.topology.dc(0).servers_in_podset(1)
            for port in (81, 82, 83)
        ]
        results = fabric.probe_many(src, cross)
        crossing = []
        for result, (dst_id, _port, _payload) in zip(results, cross):
            dst = fabric.topology.server(dst_id)
            paths = (
                fabric.router.path(src, dst, result.flow),
                fabric.router.path(dst, src, result.flow.reversed()),
            )
            if any(spine in path.hops for path in paths):
                crossing.append(result.flow.src_port)
        assert scalar_ports == crossing
        assert 0 < len(crossing) < len(cross)
        # A fault on a ToR is on every flow's path: no flow escapes it.
        del fabric._probe_along
        tor = fabric.topology.dc(0).tor_of(fabric.topology.server(cross[0][0]))
        fabric.faults.inject(SilentRandomDrop(switch_id=tor.device_id))
        calls = _count_scalar_probes(fabric)
        behind_tor = [entry for entry in cross if fabric.topology.dc(0).tor_of(
            fabric.topology.server(entry[0])) is tor]
        fabric.probe_many(src, behind_tor)
        assert len(calls) == len(behind_tor) > 0

    def test_fault_outside_envelope_stays_fast(self):
        fabric = _fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_pod(0)[0]
        dst = dc.servers_in_pod(0)[1]  # intra-pod: envelope is one ToR
        other_podset_tor = next(t for t in dc.tors if t.podset_index == 1)
        fabric.faults.inject(SilentRandomDrop(switch_id=other_podset_tor.device_id))
        calls = _count_scalar_probes(fabric)
        fabric.probe_many(src, [(dst.device_id, 81, 0)])
        assert calls == []

    def test_blackhole_detected_identically_through_probe_many(self):
        """A type-1 blackhole on the source ToR must fail the affected
        pairs whether the round went fast or scalar — the partition rule
        degrades them to scalar, where the fault engine decides."""
        fabric = _fabric()
        src, entries = _round_entries(fabric)
        tor = fabric.topology.dc(0).tor_of(fabric.topology.server(src.device_id))
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        results = fabric.probe_many(src, entries, t=50.0)
        assert all(not r.success for r in results)


class TestUnroutableParity:
    def test_plan_resolved_rows_are_probe_rows_without_routing_or_a_draw(self):
        """Under ``podset-down`` the entries into the dark podset have no
        live route: the round plan answers them, field for field, as the
        pinned-port ``Fabric.probe`` would, reports and counts them alike —
        never routing them, calling the engine for them or drawing."""
        batched, looped = _fabric(seed=7), _fabric(seed=7)
        for fabric in (batched, looped):
            podset_down(fabric.topology, 0, 1)
        reports, loop_reports = record_probe_calls(batched), record_probe_calls(looped)
        called = []
        probe, path = batched.probe, batched.router.path
        batched.probe = lambda *args, **kw: called.append(args) or probe(*args, **kw)
        batched.router.path = lambda *args: called.append(args) or path(*args)
        dc = batched.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        entries = [
            (dst.device_id, port, 0) for dst in dc.servers_in_podset(1) for port in (81, 82)
        ]
        entries.append((entries[0][0], 83, 600))  # a payload echo
        rng = batched.rng.bit_generator.state
        batch = batched.probe_many(src, entries, t=30.0)
        want = [
            looped.probe(src.device_id, dst_id, t=30.0, payload_bytes=payload,
                         dst_port=port, src_port=batch.src_port[index])
            for index, (dst_id, port, payload) in enumerate(entries)
        ]
        assert {row.error for row in want} == {"no_route"}
        assert [_comparable(row) for row in batch] == [_comparable(row) for row in want]
        assert reports == loop_reports and len(reports) == len(entries)
        assert batched.probes_carried == looped.probes_carried == len(entries)
        assert batched.rng.bit_generator.state == rng
        assert called == []


class TestDistributionParity:
    def test_fast_and_scalar_rounds_match_statistically(self):
        """Same seed, same entries: drop rate and latency percentiles of
        the fast engine match the scalar engine within sampling noise."""
        rounds, t_step = 40, 30.0
        fast = _fabric(seed=5)
        scalar = _fabric(seed=5)
        src_f, entries = _round_entries(fast)
        src_s, _ = _round_entries(scalar)

        fast_results, scalar_results = [], []
        for r in range(rounds):
            t = r * t_step
            fast_results.extend(fast.probe_many(src_f, entries, t=t))
            for dst_id, dst_port, payload in entries:
                scalar_results.append(
                    scalar.probe(src_s, dst_id, t=t, dst_port=dst_port,
                                 payload_bytes=payload)
                )

        assert len(fast_results) == len(scalar_results)
        fast_ok = np.array([r.success for r in fast_results])
        scalar_ok = np.array([r.success for r in scalar_results])
        # Drop rates agree within a few sigma of the binomial noise floor.
        n = len(fast_results)
        tolerance = 4.0 * np.sqrt(0.01 / n) + 1e-9
        assert abs(fast_ok.mean() - scalar_ok.mean()) <= max(tolerance, 0.02)

        fast_rtt = np.array([r.rtt_s for r in fast_results])[fast_ok]
        scalar_rtt = np.array([r.rtt_s for r in scalar_results])[scalar_ok]
        for q in (50, 90):
            a = np.percentile(fast_rtt, q)
            b = np.percentile(scalar_rtt, q)
            assert abs(a - b) / b < 0.15, f"P{q}: fast {a:.6f}s vs scalar {b:.6f}s"

    def test_silent_spine_rounds_match_a_probe_loop_statistically(self):
        """One spine of four drops 20% of what crosses it: rounds judged
        per flow (most flows analytic, the crossing ones scalar) agree with
        an all-scalar ``Fabric.probe`` loop on every drop signature's count
        and on the clean probes' RTT quantiles."""
        rounds, t_step = 200, 30.0
        judged, scalar = _fabric(seed=5), _fabric(seed=5)
        for fabric in (judged, scalar):
            dc = fabric.topology.dc(0)
            fabric.faults.inject(
                SilentRandomDrop(switch_id=dc.spines[2].device_id, drop_prob=0.2)
            )
        src_j, src_s = (f.topology.dc(0).servers_in_podset(0)[0] for f in (judged, scalar))
        entries = [
            (s.device_id, port, 0)
            for s in judged.topology.dc(0).servers_in_podset(1)
            for port in (81, 82)
        ]
        calls = _count_scalar_probes(judged)
        judged_results, scalar_results = [], []
        for r in range(rounds):
            t = r * t_step
            judged_results.extend(judged.probe_many(src_j, entries, t=t))
            for dst_id, dst_port, _payload in entries:
                scalar_results.append(scalar.probe(src_s, dst_id, t=t, dst_port=dst_port))
        n = len(scalar_results)
        assert 0.3 * n < len(calls) < 0.6 * n  # 1 - (3/4)**2 of the flows cross
        drops_j = np.array([r.syn_drops for r in judged_results])
        drops_s = np.array([r.syn_drops for r in scalar_results])
        for signature in (1, 2, 3):
            a, b = (drops_j == signature).mean(), (drops_s == signature).mean()
            sigma = np.sqrt(2.0 * max(b, 1.0 / n) * (1.0 - b) / n)
            assert abs(a - b) <= 4.0 * sigma, f"{signature} drops: {a:.4f} vs {b:.4f}"
        assert (drops_s == 1).mean() > 0.05  # the fault is what is being compared
        rtt_j = np.array([r.rtt_s for r in judged_results])[drops_j == 0]
        rtt_s = np.array([r.rtt_s for r in scalar_results])[drops_s == 0]
        for q in (50, 90):
            a, b = np.percentile(rtt_j, q), np.percentile(rtt_s, q)
            assert abs(a - b) / b < 0.15, f"P{q}: judged {a:.6f}s vs scalar {b:.6f}s"

    def test_record_schema_identical_across_engines(self):
        from repro.core.dsa.records import make_record, make_records

        fabric = _fabric(seed=2)
        src, entries = _round_entries(fabric, n=6)
        results = fabric.probe_many(src, entries, t=40.0)
        bulk = make_records(
            fabric.topology, results, [("tor-level", "high")] * len(results)
        )
        single = [
            make_record(fabric.topology, r, purpose="tor-level", qos="high")
            for r in results
        ]
        assert bulk.rows() == single
        assert [list(row) for row in bulk.rows()] == [list(row) for row in single]


class TestClassRoundParity:
    """The fidelity ladder's top rung: closed-form class rounds must match
    the per-pair fast path in distribution, and exactly in accounting."""

    def test_class_and_fast_rounds_match_statistically(self):
        rounds, t_step = 40, 30.0
        classed = _fabric(seed=5)
        fast = _fabric(seed=5)
        src_c, entries = _round_entries(classed)
        src_f, _ = _round_entries(fast)

        class_rtts, fast_rtts = [], []
        class_failed = fast_failed = 0
        for r in range(rounds):
            t = r * t_step
            plan = classed.build_class_plan(src_c, entries)
            assert plan.passthrough == []  # healthy world: fully classed
            for outcome in classed.run_class_plan(plan, t=t):
                class_rtts.append(outcome.rtt_s)
                class_failed += outcome.failed
            results = fast.probe_many(src_f, entries, t=t)
            fast_rtts.append(
                np.array([r.rtt_s for r in results if r.success])
            )
            fast_failed += sum(1 for r in results if not r.success)

        class_rtt = np.concatenate(class_rtts)
        fast_rtt = np.concatenate(fast_rtts)
        n = rounds * len(entries)
        assert len(class_rtt) + class_failed == n
        assert len(fast_rtt) + fast_failed == n
        tolerance = 4.0 * np.sqrt(0.01 / n) + 1e-9
        assert abs(class_failed - fast_failed) / n <= max(tolerance, 0.02)
        for q in (50, 90):
            a = np.percentile(class_rtt, q)
            b = np.percentile(fast_rtt, q)
            assert abs(a - b) / b < 0.15, f"P{q}: class {a:.6f}s vs fast {b:.6f}s"

    def test_agent_rounds_agree_across_modes(self):
        """One ShardedFleet round and the fast agents' own rounds over the
        same world — a spine fault degrading part of it — launch the same
        probes, shard by shard: the sharded fleet changes who runs a round
        and how it draws, not what it probes."""
        systems = {
            mode: PingmeshSystem(
                PingmeshSystemConfig(
                    specs=(_SPEC,), seed=9, agent=AgentConfig(round_mode=mode)
                )
            )
            for mode in ("class", "fast")
        }
        fleet = ShardedFleet(systems["class"])
        systems["fast"].start()
        for system in systems.values():
            spine = system.topology.dc(0).spines[0]
            system.fabric.faults.inject(SilentRandomDrop(switch_id=spine.device_id))
        fleet.run_round(30.0)
        assert any(shard._passthrough for shard in fleet.shards.values())

        fast = systems["fast"]
        per_shard: dict = {}
        for agent in fast.agents.values():
            server = fast.topology.server(agent.server_id)
            key = (server.dc_index, server.podset_index)
            per_shard[key] = per_shard.get(key, 0) + agent.run_probe_round(30.0)
        assert per_shard == {
            key: shard.probes_sent for key, shard in fleet.shards.items()
        }


def _apply_event(fabric, event):
    """One world-mutating step of a hypothesis-generated sequence, applied
    identically to both fabrics under comparison."""
    dc = fabric.topology.dc(0)
    if event == "spine_fault":
        fabric.faults.inject(
            SilentRandomDrop(switch_id=dc.spines[0].device_id, drop_prob=0.1)
        )
    elif event == "clear_faults":
        for switch_id in sorted(fabric.faults.faulted_switch_ids()):
            for fault in fabric.faults.faults_on(switch_id):
                fabric.faults.clear(fault)
    elif event == "server_down":
        dc.servers_in_podset(1)[0].bring_down()
    elif event == "server_up":
        dc.servers_in_podset(1)[0].bring_up()
    elif event == "grow":
        if dc.spec.n_podsets < 4:  # bound the world size
            dc.add_podset()


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: max CDF distance."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    ca = np.searchsorted(a, grid, side="right") / len(a)
    cb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(ca - cb)))


class TestClassRoundPropertyParity:
    """Property: across arbitrary fault/flap/growth sequences, class-round
    execution conserves probes exactly and tracks the per-pair fast path's
    distribution within sketch error + sampling noise."""

    @given(
        events=st.lists(
            st.sampled_from(
                ["spine_fault", "clear_faults", "server_down",
                 "server_up", "grow"]
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=12, deadline=None)
    def test_counts_exact_and_quantiles_bounded(self, events):
        classed = _fabric(seed=13)
        fast = _fabric(seed=13)
        class_stats = ClassStats(relative_accuracy=0.01)
        fast_stats = ClassStats(relative_accuracy=0.01)
        class_rtts: list = []
        fast_rtts: list = []

        t = 0.0
        for event in events:
            _apply_event(classed, event)
            _apply_event(fast, event)
            dc = classed.topology.dc(0)
            src = dc.servers_in_podset(0)[0]
            peers = [s for s in dc.servers if s is not src][:16]
            entries = [(p.device_id, 81, 0) for p in peers]

            for _ in range(6):
                t += 30.0
                plan = classed.build_class_plan(src, entries)
                # Exact conservation: every entry is classed or passed through.
                assert plan.n_class_probes + len(plan.passthrough) == len(entries)
                carried_before = classed.probes_carried
                n_class_ok = 0
                for outcome in classed.run_class_plan(plan, t=t):
                    assert outcome.success + outcome.failed == outcome.n
                    n_class_ok += outcome.success
                    class_stats.observe_aggregate(
                        outcome.failed, outcome.rtt_s * 1e6
                    )
                    class_rtts.extend(outcome.rtt_s * 1e6)
                assert (
                    classed.probes_carried - carried_before
                    == plan.n_class_probes
                )
                if plan.passthrough:
                    degraded = [entries[i] for i in plan.passthrough]
                    for result in classed.probe_many(src, degraded, t=t):
                        class_stats.observe(result.success, result.rtt_s * 1e6)
                        if result.success:
                            class_rtts.append(result.rtt_s * 1e6)

                fast_src = fast.topology.dc(0).servers_in_podset(0)[0]
                for result in fast.probe_many(fast_src, entries, t=t):
                    fast_stats.observe(result.success, result.rtt_s * 1e6)
                    if result.success:
                        fast_rtts.append(result.rtt_s * 1e6)

        # Both sides saw exactly one outcome per entry per round.
        assert class_stats.probes == fast_stats.probes
        # Failure counts within binomial noise of each other (tiny p).
        n = class_stats.probes
        assert abs(class_stats.failed - fast_stats.failed) <= max(
            5, 4 * np.sqrt(0.05 * n)
        )
        # Distributional parity via the two-sample KS statistic.  The RTT
        # mixture is multimodal (one mode per scope), so fixed quantiles sit
        # on cliffs between modes and flake; the KS distance compares CDF
        # *probabilities* instead of positions and is immune to that.  The
        # bound is the classical critical value c(alpha)*sqrt(1/n1 + 1/n2)
        # with c=2.5 (alpha ~ 4e-6), generous enough for hypothesis's many
        # examples while still catching any systematic model divergence.
        if len(class_rtts) > 150 and len(fast_rtts) > 150:
            dist = _ks_distance(class_rtts, fast_rtts)
            bound = 2.5 * np.sqrt(1 / len(class_rtts) + 1 / len(fast_rtts))
            assert dist < bound, (
                f"KS distance {dist:.3f} exceeds {bound:.3f} "
                f"(n={len(class_rtts)}/{len(fast_rtts)})"
            )
