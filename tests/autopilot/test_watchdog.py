"""Tests for the Watchdog Service."""

import pytest

from repro.autopilot.watchdog import HealthStatus, WatchdogService
from repro.netsim.simclock import EventQueue, SimClock


@pytest.fixture()
def queue():
    return EventQueue(SimClock())


def _always(status, detail=""):
    return lambda: (status, detail)


class TestWatchdogService:
    def test_periodic_sweep_updates_latest(self, queue):
        service = WatchdogService(queue, check_period_s=60.0)
        service.register("pinglist-fresh", _always(HealthStatus.OK))
        service.start()
        queue.run_for(120.0)
        report = service.latest("pinglist-fresh")
        assert report.status == HealthStatus.OK
        assert report.t == 120.0

    def test_error_history_accumulates(self, queue):
        service = WatchdogService(queue, check_period_s=60.0)
        service.register("data-reported", _always(HealthStatus.ERROR, "no upload"))
        service.start()
        queue.run_for(180.0)
        assert len(service.error_history) == 3
        assert service.error_history[0].detail == "no upload"

    def test_raising_check_becomes_error(self, queue):
        service = WatchdogService(queue)

        def broken():
            raise RuntimeError("check bug")

        service.register("broken", broken)
        report = service.run_once()["broken"]
        assert report.status == HealthStatus.ERROR
        assert "check bug" in report.detail

    def test_duplicate_registration_rejected(self, queue):
        service = WatchdogService(queue)
        service.register("x", _always(HealthStatus.OK))
        with pytest.raises(ValueError):
            service.register("x", _always(HealthStatus.OK))

    def test_double_start_rejected(self, queue):
        service = WatchdogService(queue)
        service.start()
        with pytest.raises(RuntimeError):
            service.start()

    def test_invalid_period_rejected(self, queue):
        with pytest.raises(ValueError):
            WatchdogService(queue, check_period_s=-1)
