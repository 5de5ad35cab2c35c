"""Tests for the Service Manager's restart supervision."""

import pytest

from repro.autopilot.service_manager import ServiceManager
from repro.autopilot.shared_service import SharedService
from repro.netsim.simclock import SECONDS_PER_DAY, EventQueue, SimClock


@pytest.fixture()
def queue():
    return EventQueue(SimClock())


@pytest.fixture()
def sm(queue):
    manager = ServiceManager(
        queue, restart_delay_s=30.0, max_restarts_per_day=3, sweep_period_s=60.0
    )
    manager.start()
    return manager


def _crashed_service(name="svc", server="srv0"):
    service = SharedService(name, server)
    service.start(now=0.0)
    service.terminate("memory cap exceeded: 90.0 MB > 80.0 MB")
    return service


class TestRestart:
    def test_terminated_service_restarted_after_delay(self, queue, sm):
        service = _crashed_service()
        sm.supervise(service)
        queue.run_for(60.0)  # sweep notices
        assert not service.running
        queue.run_for(30.0)  # restart fires
        assert service.running
        assert len(sm.restarts) == 1
        assert "memory cap" in sm.restarts[0].reason

    def test_deliberate_stop_not_restarted(self, queue, sm):
        service = SharedService("svc", "srv0")
        service.start(now=0.0)
        service.stop()
        sm.supervise(service)
        queue.run_for(600.0)
        assert not service.running
        assert sm.restarts == []

    def test_running_service_untouched(self, queue, sm):
        service = SharedService("svc", "srv0")
        service.start(now=0.0)
        sm.supervise(service)
        queue.run_for(600.0)
        assert sm.restarts == []

    def test_no_duplicate_restart_scheduling(self, queue, sm):
        service = _crashed_service()
        sm.supervise(service)
        # Several sweeps happen before the restart delay elapses — the
        # instance must still restart exactly once.
        queue.run_for(300.0)
        assert len(sm.restarts) == 1


class TestCrashLoopBudget:
    def test_budget_exhaustion_leaves_service_down(self, queue, sm):
        service = _crashed_service()
        sm.supervise(service)
        for _ in range(10):
            queue.run_for(120.0)
            if service.running:
                service.terminate("crashed again")
        assert len(sm.restarts) == 3  # max_restarts_per_day
        assert not service.running
        assert sm.exhausted(service, queue.clock.now)

    def test_budget_replenishes_next_day(self, queue, sm):
        service = _crashed_service()
        sm.supervise(service)
        for _ in range(10):
            queue.run_for(120.0)
            if service.running:
                service.terminate("crashed again")
        assert len(sm.restarts) == 3
        queue.run_for(SECONDS_PER_DAY)
        assert service.running  # restarted once the day rolled over
        assert len(sm.restarts) == 4

    def test_budgets_are_per_instance(self, queue, sm):
        bad = _crashed_service(server="srv0")
        other = _crashed_service(server="srv1")
        sm.supervise_all([bad, other])
        queue.run_for(120.0)
        assert bad.running and other.running
        assert len(sm.restarts) == 2
        assert sm.restarts_in_last_day(bad, queue.clock.now) == 1


class TestValidation:
    def test_constructor_validation(self, queue):
        with pytest.raises(ValueError):
            ServiceManager(queue, restart_delay_s=-1)
        with pytest.raises(ValueError):
            ServiceManager(queue, max_restarts_per_day=0)
        with pytest.raises(ValueError):
            ServiceManager(queue, sweep_period_s=0)

    def test_double_start_rejected(self, queue):
        manager = ServiceManager(queue)
        manager.start()
        with pytest.raises(RuntimeError):
            manager.start()
