"""Each invariant must actually fire on the breach it claims to catch."""

from __future__ import annotations

from repro.chaos import InvariantChecker
from repro.core.agent.counters import LatencyCounters
from repro.core.agent.safety import MAX_PAYLOAD_BYTES, MIN_PROBE_INTERVAL_S

from tests.chaos.conftest import make_system


def _names(checker):
    return [violation.invariant for violation in checker.violations]


def _attached(system):
    checker = InvariantChecker(system)
    checker.attach()
    return checker


def _two_servers(system):
    servers = system.topology.dc(0).servers_in_podset(0)
    return servers[0].device_id, servers[1].device_id


class TestProbePathHooks:
    def test_attach_and_detach_manage_the_observer_list(self, system):
        assert system.fabric.round_observers == []
        checker = _attached(system)
        assert checker._on_round in system.fabric.round_observers
        checker.attach()  # idempotent: no double registration
        assert system.fabric.round_observers.count(checker._on_round) == 1
        checker.detach()
        assert system.fabric.round_observers == []
        checker.detach()  # idempotent
        assert system.fabric.round_observers == []

    def test_probe_results_pass_through_unchanged(self, system):
        src, dst = _two_servers(system)
        bare = system.fabric.probe(src, dst, t=5.0, dst_port=81)
        checker = _attached(system)
        hooked = system.fabric.probe(src, dst, t=50.0, dst_port=81)
        checker.detach()
        assert hooked.success == bare.success
        assert checker.probes_observed == 1

    def test_payload_cap_violation_fires(self, system):
        src, dst = _two_servers(system)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, payload_bytes=MAX_PAYLOAD_BYTES + 1)
        checker.detach()
        assert "payload-cap" in _names(checker)

    def test_payload_at_cap_is_legal(self, system):
        src, dst = _two_servers(system)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, payload_bytes=MAX_PAYLOAD_BYTES)
        checker.detach()
        assert checker.clean

    def test_spacing_floor_violation_fires(self, system):
        src, dst = _two_servers(system)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, dst_port=81)
        system.fabric.probe(src, dst, t=5.0 + MIN_PROBE_INTERVAL_S / 2, dst_port=81)
        checker.detach()
        assert "probe-spacing-floor" in _names(checker)

    def test_spacing_exactly_at_floor_is_legal(self, system):
        src, dst = _two_servers(system)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, dst_port=81)
        system.fabric.probe(src, dst, t=5.0 + MIN_PROBE_INTERVAL_S, dst_port=81)
        checker.detach()
        assert checker.clean

    def test_different_ports_are_distinct_probe_classes(self, system):
        # High-QoS, low-QoS, and VIP probes to one peer share an instant.
        src, dst = _two_servers(system)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, dst_port=81)
        system.fabric.probe(src, dst, t=5.0, dst_port=82)
        system.fabric.probe(src, dst, t=5.0, dst_port=80)
        checker.detach()
        assert checker.clean

    def test_fail_closed_agent_probing_fires(self, system):
        src, dst = _two_servers(system)
        system.agents[src].safety.record_pinglist_missing()
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, dst_port=81)
        checker.detach()
        assert "fail-closed-silent" in _names(checker)

    def test_terminated_agent_probing_fires(self, system):
        src, dst = _two_servers(system)
        system.agents[src].stop(now=1.0)
        checker = _attached(system)
        system.fabric.probe(src, dst, t=5.0, dst_port=81)
        checker.detach()
        assert "dead-agent-silent" in _names(checker)


class TestAgentChecks:
    def test_uploader_accounting_violation_fires(self, system):
        checker = InvariantChecker(system)
        agent = next(iter(system.agents.values()))
        # Simulate a lost-records bug: added never reconciled.
        agent.uploader.stats.records_added += 5
        checker._check_agent(agent, now=10.0)
        assert "uploader-accounting" in _names(checker)

    def test_drop_rate_honesty_violation_fires(self, system):
        checker = InvariantChecker(system)
        agent = next(iter(system.agents.values()))
        # Re-create the old bug: failures counted but a 0.0 drop rate
        # reported (the pre-fix drop_rate divided by successes only).

        class SuccessOnlyCounters(LatencyCounters):
            def drop_rate(self):
                return 0.0

        agent.counters = SuccessOnlyCounters()
        for _ in range(4):
            agent.counters.add(False, 0.0)
        checker._check_agent(agent, now=10.0)
        assert "drop-rate-honest" in _names(checker)

    def test_fixed_drop_rate_passes_the_honesty_check(self, system):
        checker = InvariantChecker(system)
        agent = next(iter(system.agents.values()))
        agent.counters.add(False, 0.0)
        checker._check_agent(agent, now=10.0)
        assert checker.clean


class TestPhaseChecks:
    def test_watchdog_latency_violation_fires_after_deadline(self, system):
        checker = InvariantChecker(system)
        checker.expect_watchdog_error("pinglists-generated", start_t=0.0, within_s=30.0)
        system.run_for(10.0)
        assert not checker.check_phase()  # deadline not passed yet
        system.run_for(40.0)
        new = checker.check_phase()
        assert [v.invariant for v in new] == ["watchdog-latency"]
        # A resolved expectation is not re-reported.
        assert not checker.check_phase()

    def test_watchdog_latency_satisfied_by_error_history(self, system):
        checker = InvariantChecker(system)
        for dip in system.controller.replicas:
            system.controller.fail_replica(dip)
        checker.expect_watchdog_error(
            "pinglists-generated", start_t=system.clock.now
        )
        system.run_for(130.0)
        checker.check_phase()
        assert checker.clean

    def test_repair_against_innocent_device_fires(self, system):
        checker = InvariantChecker(system)
        checker.note_ground_truth({"dc0/ps0/tor0"})
        system.env.device_manager.request_repair(
            "dc0/ps1/tor2", action="reload_switch", reason="scapegoat", t=5.0
        )
        checker.check_phase()
        assert "repair-ground-truth" in _names(checker)

    def test_repair_against_implicated_device_is_legal(self, system):
        checker = InvariantChecker(system)
        checker.note_ground_truth({"dc0/ps0/tor0"})
        system.env.device_manager.request_repair(
            "dc0/ps0/tor0", action="reload_switch", reason="implicated", t=5.0
        )
        checker.check_phase()
        assert checker.clean

    def test_sla_check_skipped_once_faulted(self, system):
        checker = InvariantChecker(system)
        checker.note_fault_started()
        checker.check_phase()
        assert checker.clean

    def test_healthy_system_full_catalogue_is_clean(self):
        system = make_system(seed=3)
        system.start()
        checker = InvariantChecker(system)
        checker.attach()
        try:
            system.run_for(400.0)
        finally:
            checker.detach()
        checker.check_phase()
        assert checker.clean
        assert checker.probes_observed > 0
