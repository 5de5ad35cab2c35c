"""Drills for the degraded-mode resilience layer.

Four campaigns exercise the layer end to end: a controller brownout
(slow, not dead), a replica flap storm (breakers vs health sweeps), a
recovery stampede (jitter vs thundering herd) and a Cosmos
blackout-and-heal (spool-and-replay).  Each drill asserts both the
invariant catalogue (``report.clean`` — which now includes the
replay ledger, the staleness machine and the herd bound) and the
campaign-specific degraded behaviour.
"""

from __future__ import annotations

from repro.chaos import build_campaign
from repro.core.controller.pinglist import Pinglist
from repro.resilience import BreakerState, PinglistState


def _run(name: str, seed: int = 0):
    system, campaign, canned = build_campaign(name, seed=seed)
    report = campaign.run(canned.duration_s, phase_s=canned.phase_s)
    return system, report


class TestControllerBrownout:
    def test_slow_replicas_degrade_to_stale_never_closed(self):
        system, report = _run("controller-brownout")
        assert report.clean, report.summary()
        # Slow is not dead: nobody may fall closed during the window...
        assert all(phase.fail_closed_agents == 0 for phase in report.phases)
        # ...but the fleet visibly rode through STALE on cached pinglists.
        assert max(phase.stale_agents for phase in report.phases) > 0
        stale_rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row.get("pinglist_stale")
        ]
        assert stale_rows, "STALE probing must be tagged in the upload rows"
        # Everyone recovered FRESH by campaign end.
        assert all(
            agent.pinglist_state is PinglistState.FRESH
            for agent in system.agents.values()
        )
        assert report.phases[-1].stale_agents == 0

    def test_breakers_eject_what_health_checks_cannot_see(self):
        system, report = _run("controller-brownout")
        assert report.clean, report.summary()
        slb = system.controller.slb
        # The up/down health check passed throughout (replicas never died)
        # so only request-path breakers could have ejected them.
        assert all(replica.up for replica in system.controller.replicas.values())
        assert any(
            backend.breaker.opened_count > 0
            for backend in slb.backends.values()
        )
        # All breakers re-closed after the heal.
        assert all(
            backend.breaker.state is BreakerState.CLOSED
            for backend in slb.backends.values()
        )

    def test_probing_never_stops(self):
        # The cached pinglist carries the fleet through the brownout: probes
        # keep flowing in every phase, including the window itself.
        _system, report = _run("controller-brownout")
        sent = [phase.total_probes_sent for phase in report.phases]
        assert all(b > a for a, b in zip(sent, sent[1:]))


class TestReplicaFlapStorm:
    def test_breakers_absorb_the_flaps_without_staleness(self):
        system, report = _run("replica-flap-storm")
        assert report.clean, report.summary()
        # Failover within one VIP call hides every flap: no agent ever
        # missed a refresh, let alone fell closed.
        assert all(phase.fail_closed_agents == 0 for phase in report.phases)
        assert all(phase.stale_agents == 0 for phase in report.phases)
        assert all(
            agent.safety.consecutive_failures == 0
            for agent in system.agents.values()
        )
        # The flapping replica's breaker tripped on request evidence (the
        # stretched health-check interval means sweeps could not help).
        assert (
            system.controller.slb.backends["controller0"].breaker.opened_count
            > 0
        )

    def test_recovered_replica_serves_byte_identical_files(self):
        system, report = _run("replica-flap-storm")
        assert report.clean, report.summary()
        flapped = system.controller.replicas["controller0"]
        survivor = system.controller.replicas["controller1"]
        assert flapped.up
        assert flapped.generation == survivor.generation
        # recover_replica() is lazy, but rendering stays deterministic:
        # the same files, byte for byte, at the fleet's generation stamp.
        for server in system.topology.all_servers():
            xml = flapped.serve(server.device_id)
            assert xml == survivor.serve(server.device_id)
            assert (
                Pinglist.from_xml(xml).generated_at
                == system.controller.last_generated_t
            )


class TestRecoveryStampede:
    def test_fleet_fails_closed_then_recovers_without_a_herd(self):
        system, report = _run("recovery-stampede")
        # report.clean covers refresh-herd-factor: the recovery wave
        # stayed under half the fleet per second.
        assert report.clean, report.summary()
        n = len(system.agents)
        # The 300s blackout (2.5 refresh periods) closed the whole fleet...
        assert max(phase.fail_closed_agents for phase in report.phases) == n
        # ...and the heal at 420s reopened every agent before 720s.
        assert report.phases[-1].fail_closed_agents == 0
        assert all(
            agent.pinglist_state is PinglistState.FRESH
            for agent in system.agents.values()
        )

    def test_recovery_requests_are_spread_not_synchronized(self):
        system, report = _run("recovery-stampede")
        assert report.clean, report.summary()
        buckets = system.controller.requests_by_second
        recovery = {
            second: count for second, count in buckets.items() if second >= 420
        }
        assert recovery, "agents must have re-polled after the heal"
        # The explicit form of the herd invariant: peak per-second request
        # rate over the recovery stays under half the fleet.
        assert max(recovery.values()) <= len(system.agents) // 2


class TestCosmosBlackoutHeal:
    def test_spool_replays_once_and_discards_are_bounded(self):
        system, report = _run("cosmos-blackout-heal")
        # report.clean covers upload-replay-no-duplication at every
        # phase boundary, including mid-blackout and right after the heal.
        assert report.clean, report.summary()
        for agent in system.agents.values():
            stats = agent.uploader.stats
            # Early batches exhausted their three spaced attempts...
            assert stats.records_discarded > 0
            # ...the last pre-heal batch survived the spool and replayed...
            assert stats.records_replayed > 0
            # ...and the backlog fully drained before campaign end.
            assert agent.uploader.spooled_records == 0
            assert stats.records_added == (
                stats.records_uploaded
                + stats.records_discarded
                + agent.uploader.buffered_records
            )

    def test_store_totals_match_uploader_ledgers_exactly(self):
        system, report = _run("cosmos-blackout-heal")
        assert report.clean, report.summary()
        landed = system.store.stream("pingmesh/latency").record_count
        uploaded = sum(
            agent.uploader.stats.records_uploaded
            for agent in system.agents.values()
        )
        assert landed == uploaded
