"""Tests for the SCOPE Job Manager."""

import pytest

from repro.cosmos.jobs import JobManager, JobStatus, ScopeJob
from repro.netsim.simclock import EventQueue, SimClock


@pytest.fixture()
def queue():
    return EventQueue(SimClock())


class TestScheduling:
    def test_job_runs_every_period(self, queue):
        manager = JobManager(queue)
        ticks = []
        manager.register(
            ScopeJob("10min", 600.0, lambda t: ticks.append(t) or [])
        )
        queue.run_for(3600.0)
        assert ticks == [600.0, 1200.0, 1800.0, 2400.0, 3000.0, 3600.0]

    def test_multiple_cadences_coexist(self, queue):
        manager = JobManager(queue)
        counts = {"fast": 0, "slow": 0}

        def bump(name):
            def run(t):
                counts[name] += 1

            return run

        manager.register(ScopeJob("fast", 600.0, bump("fast")))
        manager.register(ScopeJob("slow", 3600.0, bump("slow")))
        queue.run_for(7200.0)
        assert counts == {"fast": 12, "slow": 2}

    def test_first_run_delay_override(self, queue):
        manager = JobManager(queue)
        ticks = []
        manager.register(
            ScopeJob("j", 600.0, lambda t: ticks.append(t)), first_run_delay=0.0
        )
        queue.run_for(600.0)
        assert ticks == [0.0, 600.0]

    def test_duplicate_registration_rejected(self, queue):
        manager = JobManager(queue)
        manager.register(ScopeJob("j", 600.0, lambda t: None))
        with pytest.raises(ValueError):
            manager.register(ScopeJob("j", 300.0, lambda t: None))

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            ScopeJob("j", 0.0, lambda t: None)


def _runs_of(manager, name):
    return [run for run in manager.runs if run.job_name == name]


class TestRunRecords:
    def test_success_records_row_count(self, queue):
        manager = JobManager(queue)
        manager.register(ScopeJob("j", 100.0, lambda t: [{"a": 1}, {"a": 2}]))
        queue.run_for(100.0)
        runs = _runs_of(manager, "j")
        assert len(runs) == 1
        assert runs[0].status == JobStatus.SUCCEEDED
        assert runs[0].rows_out == 2

    def test_none_result_counts_zero_rows(self, queue):
        manager = JobManager(queue)
        manager.register(ScopeJob("j", 100.0, lambda t: None))
        queue.run_for(100.0)
        assert _runs_of(manager, "j")[0].rows_out == 0

    def test_failing_job_is_contained_and_rescheduled(self, queue):
        manager = JobManager(queue)

        def explode(t):
            raise RuntimeError("boom")

        manager.register(ScopeJob("bad", 100.0, explode))
        manager.register(ScopeJob("good", 100.0, lambda t: []))
        queue.run_for(300.0)
        assert [run.job_name for run in manager.runs if run.error] == ["bad"] * 3
        assert all(
            run.status == JobStatus.SUCCEEDED for run in _runs_of(manager, "good")
        )
        assert "boom" in _runs_of(manager, "bad")[0].error

    def test_jobs_listing(self, queue):
        manager = JobManager(queue)
        manager.register(ScopeJob("b", 10.0, lambda t: None))
        manager.register(ScopeJob("a", 10.0, lambda t: None))
        assert manager.jobs() == ["a", "b"]
