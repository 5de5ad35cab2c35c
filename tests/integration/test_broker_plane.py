"""Integration: the on-demand measurement plane over a live sharded fleet.

The contract under test is the tentpole's safety story: injected tenant
work rides the existing round engines (class plans + scalar passthrough),
never bypasses the probe-conservation ledger, never perturbs the baseline
pinglist rounds, and the invariant catalogue — the three broker
invariants included — stays clean while tenants hammer the system.
"""

from __future__ import annotations

import pytest

from repro.broker import MeasurementBroker, RequestState, TenantQuota
from repro.broker.admission import MAX_INJECTED_PER_FLEET_ROUND
from repro.chaos import build_campaign
from repro.chaos.invariants import InvariantChecker
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.drops import DropModel
from repro.netsim.routing import PathScope
from repro.netsim.topology import TopologySpec
from tests.conftest import record_probe_calls

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4)
_FAST_DSA = DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0)


def _fleet(seed: int = 3, with_broker: bool = True):
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,),
            seed=seed,
            dsa=_FAST_DSA,
            agent=AgentConfig(round_mode="class", upload_period_s=300.0),
        )
    )
    fleet = ShardedFleet(system)
    broker = MeasurementBroker(system) if with_broker else None
    return system, fleet, broker


class TestFleetIntegration:
    def test_idle_broker_keeps_baseline_bit_identical(self):
        _s1, bare, _none = _fleet(seed=3, with_broker=False)
        bare.run_for(600.0)
        _s2, idle, _b = _fleet(seed=3, with_broker=True)
        idle.run_for(600.0)
        assert idle.probes_sent == bare.probes_sent
        assert idle.rounds_run == bare.rounds_run
        assert idle.broker_probes_sent == 0

    def test_burst_completes_via_class_plans(self):
        system, fleet, broker = _fleet()
        broker.register_tenant("acme", TenantQuota(credits_per_window=2000))
        channel = broker.submit(
            "acme", src="podset:0/0", dst="podset:0/1", probes_per_pair=2
        )
        fleet.run_for(600.0)
        assert channel.state is RequestState.COMPLETED
        assert channel.probes_completed == channel.probes_admitted
        assert fleet.broker_probes_sent == channel.probes_launched
        assert broker.probes_launched == broker.probes_delivered

    def test_payload_bursts_take_the_passthrough_path(self):
        system, fleet, broker = _fleet()
        broker.register_tenant("acme", TenantQuota(credits_per_window=2000))
        channel = broker.submit(
            "acme", src="podset:0/0", dst="podset:0/1", payload_bytes=8192
        )
        fleet.run_for(600.0)
        assert channel.state is RequestState.COMPLETED
        # Passthrough probes keep per-probe fidelity: detail rows exist.
        assert channel.details
        assert broker.probes_launched == broker.probes_delivered

    def test_invariants_clean_with_active_broker_on_fleet(self):
        system, fleet, broker = _fleet()
        broker.register_tenant("acme", TenantQuota(credits_per_window=5000))
        checker = InvariantChecker(system)
        checker.attach()
        broker.submit("acme", src="podset:0/0", dst="podset:0/1")
        fleet.run_for(300.0)
        broker.submit("acme", src="podset:0/1", dst="podset:1/0", probes_per_pair=2)
        fleet.run_for(300.0)
        violations = checker.check_phase()
        assert violations == []
        assert checker.probes_observed > 0

    def test_round_injection_respects_fleet_cap(self):
        system, fleet, broker = _fleet()
        broker.register_tenant("acme", TenantQuota(credits_per_window=10_000))
        broker.submit("acme", src="dc:0", dst="dc:0", probes_per_pair=8)
        fleet.run_for(600.0)
        cap = MAX_INJECTED_PER_FLEET_ROUND
        assert broker.round_log
        for _t, injected, logged_cap in broker.round_log:
            assert injected <= logged_cap <= cap


class _LossyDrops(DropModel):
    """Every class loses 70% of its SYN attempts: 34% of probes fail."""

    def attempt_drop_prob_kinds(self, kinds, wan):
        return 0.7


def _pod_pairs(system, pod: int) -> list[tuple[str, str]]:
    """Two intra-pod pairs (a->b, b->a) of one pod."""
    a, b = (s.device_id for s in system.topology.dc(0).servers_in_pod(pod)[:2])
    return [(a, b), (b, a)]


def _delivered(broker) -> int:
    return sum(ch.successes + ch.failures for ch in broker.channels.values())


class TestRoundAttribution:
    """One class plan per round carries every request's probes; each
    outcome must land on exactly the requests whose probes it drew."""

    def _warm(self, credits: int = 10_000):
        system, fleet, broker = _fleet()
        broker.register_tenant("acme", TenantQuota(credits_per_window=credits))
        broker.register_tenant("zeta", TenantQuota(credits_per_window=credits))
        fleet.run_for(60.0)  # agents running, pinglists fetched
        return system, fleet, broker

    def test_every_round_conserves_across_shared_and_split_groups(self):
        system, fleet, broker = self._warm()
        servers = system.topology.dc(0).servers
        far = servers[-1].device_id  # other podset than servers[0]
        down = servers[5]
        down.bring_down()
        # Two tenants share the intra-pod group; "mixed" is split between
        # it and the cross-podset group; "degraded" has a class pair and a
        # pass-through pair (dead destination) in one request.
        shared = [
            broker.submit("acme", pairs=_pod_pairs(system, 0), probes_per_pair=3),
            broker.submit("zeta", pairs=_pod_pairs(system, 2), probes_per_pair=3),
        ]
        mixed = broker.submit(
            "acme",
            pairs=_pod_pairs(system, 3) + [(servers[0].device_id, far)],
            probes_per_pair=2,
        )
        degraded = broker.submit(
            "zeta",
            pairs=[(servers[0].device_id, servers[1].device_id),
                   (servers[0].device_id, down.device_id)],
            probes_per_pair=2,
        )
        groups_seen = []
        compile_plan = system.fabric.compile_class_plan

        def spy(sources, entries, tags):
            plan = compile_plan(sources, entries, tags)
            if {group.purpose for group in plan.groups} == {"broker"}:
                groups_seen.append(
                    (len(plan.groups), len(plan.passthrough), len(entries))
                )
            return plan

        system.fabric.compile_class_plan = spy
        t = system.clock.now
        for _ in range(3):
            before = (
                _delivered(broker), broker.probes_launched,
                broker.probes_delivered, fleet.broker_probes_sent,
            )
            t += 60.0
            fleet.run_round(t)
            injected = broker.round_log[-1][1]
            assert injected > 0
            after = (
                _delivered(broker), broker.probes_launched,
                broker.probes_delivered, fleet.broker_probes_sent,
            )
            assert [b - a for a, b in zip(before, after)] == [injected] * 4
        # Round one: four requests' 8 class probes in 2 groups (intra-pod,
        # cross-podset) plus the pass-through pair — not a group per request.
        assert groups_seen[0] == (2, 1, 9)
        for channel in shared + [mixed, degraded]:
            assert channel.state is RequestState.COMPLETED
            assert channel.successes + channel.failures == channel.probes_admitted
        assert degraded.failures == 2 and degraded.details  # the dead pair's
        assert all(a.conserved() for a in broker.accounts.values())

    def test_group_failures_are_attributed_without_positional_bias(self):
        system, fleet, broker = self._warm(credits=100_000)
        fabric = system.fabric
        fabric._dropmodel[0] = _LossyDrops(fabric.profile_of(0))
        fabric._class_facts_cache.clear()
        pairs = [pair for pod in range(4) for pair in _pod_pairs(system, pod)]
        group_failed = []
        run_plan = fabric.run_class_plan

        def spy(plan, t=0.0, **kwargs):
            outcomes = run_plan(plan, t=t, **kwargs)
            assert len(outcomes) == 1 and outcomes[0].n == len(pairs)
            group_failed.append(outcomes[0].failed)
            return outcomes

        fabric.run_class_plan = spy
        rounds = 400
        failures_by_slot = [0] * len(pairs)
        t = system.clock.now
        for _ in range(rounds):
            wave = [broker.submit("acme", pairs=[pair]) for pair in pairs]
            t += 60.0
            assert broker.on_fleet_round(fleet, t) == len(pairs)
            assert sum(ch.failures for ch in wave) == group_failed[-1]
            assert all(ch.state is RequestState.COMPLETED for ch in wave)
            for slot, channel in enumerate(wave):
                failures_by_slot[slot] += channel.failures
        assert min(group_failed) < max(group_failed)  # the branch really ran
        shares = [count / rounds for count in failures_by_slot]
        # p_fail = 0.7^3 = 0.343, sd of one share 0.024: every slot of the
        # group — first and last included — fails equally often.
        assert all(abs(share - 0.343) < 0.1 for share in shares), shares

    def test_one_notification_and_one_path_of_packets_per_probe(self):
        system, fleet, broker = self._warm()
        fabric = system.fabric
        servers = system.topology.dc(0).servers
        pairs = [pair for pod in range(4) for pair in _pod_pairs(system, pod)]
        pairs += [(servers[0].device_id, servers[-1].device_id),
                  (servers[-1].device_id, servers[1].device_id)]
        for pair in pairs:
            broker.submit("acme", pairs=[pair])
        expected_packets = 0
        for src, dst in pairs:
            route = fabric._class_facts(fabric._resolve(src), fabric._resolve(dst)).route
            expected_packets += 1 + len(route.tiers) + (route.scope is not PathScope.INTRA_POD)
        calls = record_probe_calls(fabric)
        switches = system.topology.dc(0).all_switches()
        before = sum(sw.counters.packets_forwarded for sw in switches)
        assert broker.on_fleet_round(fleet, system.clock.now + 60.0) == len(pairs)
        after = sum(sw.counters.packets_forwarded for sw in switches)
        assert sorted((src, dst) for src, dst, *_rest in calls) == sorted(pairs)
        assert after - before == expected_packets


class TestBrokerStormDrill:
    def test_storm_outcome_mix(self):
        system, campaign, canned = build_campaign("broker-storm", seed=0)
        report = campaign.run(canned.duration_s, phase_s=canned.phase_s)
        report.assert_clean()
        broker = system.broker
        states = [
            (ch.state, ch.reject_reason) for ch in broker.channels.values()
        ]
        assert (RequestState.REJECTED, "insufficient-credits") in states
        assert (RequestState.REJECTED, "unknown-tenant") in states
        # The blackout window fails bursts closed (more than once: the
        # breaker's hysteresis still rejects shortly after the heal).
        degraded = [
            s for s in states if s == (RequestState.REJECTED, "fleet-degraded")
        ]
        assert len(degraded) >= 2
        # The tight-deadline burst ends TRUNCATED with an exact refund.
        truncated = [
            ch
            for ch in broker.channels.values()
            if ch.state is RequestState.TRUNCATED
        ]
        assert truncated
        # Most of the fleet-facing work still completes.
        completed = [
            ch
            for ch in broker.channels.values()
            if ch.state is RequestState.COMPLETED
        ]
        assert len(completed) >= 14
        assert all(a.conserved() for a in broker.accounts.values())

    def test_storm_is_deterministic(self):
        def run():
            system, campaign, canned = build_campaign("broker-storm", seed=11)
            report = campaign.run(canned.duration_s, phase_s=canned.phase_s)
            broker = system.broker
            return (
                report.summary(),
                sorted(
                    (ch.request_id, ch.state.value, ch.probes_launched)
                    for ch in broker.channels.values()
                ),
                sorted(
                    (a.tenant_id, a.ledger()["balance"])
                    for a in broker.accounts.values()
                ),
            )

        assert run() == run()


class TestDownloadTelemetry:
    def test_phase_reports_carry_download_counters(self):
        system, campaign, canned = build_campaign("healthy-baseline", seed=0)
        report = campaign.run(canned.duration_s, phase_s=canned.phase_s)
        report.assert_clean()
        last = report.phases[-1]
        assert last.pinglist_requests > 0
        # Steady state is mostly conditional GETs: 304s dominate.
        assert 0 < last.pinglist_304s <= last.pinglist_requests

    def test_stream_plane_sees_download_rates(self):
        system = PingmeshSystem(
            PingmeshSystemConfig(specs=(_SPEC,), seed=0, dsa=_FAST_DSA)
        )
        system.start()
        system.run_for(600.0)
        assert system.stream is not None
        snapshot = system.stream.download_snapshot
        assert snapshot is not None and snapshot["requests"] > 0
        rates = system.stream.download_rates
        assert rates is not None
        fraction = rates["not_modified_fraction"]
        assert fraction is None or 0.0 <= fraction <= 1.0
