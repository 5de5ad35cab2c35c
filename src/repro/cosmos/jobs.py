"""The Job Manager: recurring SCOPE jobs without user intervention (§3.5).

"We have 10-min, 1-hour, 1-day jobs at different time scales. ... All our
jobs are automatically and periodically submitted by a Job Manager to SCOPE
without user intervention."

A :class:`ScopeJob` wraps a callback ``(t) -> rows-or-None``; the
:class:`JobManager` schedules each job on the shared event queue at its
period and records every run's status, duration and output size.  Failures
are contained: a raising job is marked FAILED and rescheduled — one broken
job must not take down the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.netsim.simclock import EventQueue

__all__ = ["JobStatus", "JobRun", "ScopeJob", "JobManager"]


class JobStatus(enum.Enum):
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass
class JobRun:
    """One execution of a job."""

    job_name: str
    scheduled_t: float
    status: JobStatus
    rows_out: int = 0
    error: str | None = None


@dataclass
class ScopeJob:
    """A named recurring job.

    ``callback(t)`` receives the simulated submission time and may return a
    list of result rows (counted in the run record) or ``None``.
    """

    name: str
    period_s: float
    callback: Callable[[float], Any]

    def __post_init__(self) -> None:
        if self.period_s <= 0:
            raise ValueError(f"job period must be positive: {self.period_s}")


class JobManager:
    """Schedules SCOPE jobs periodically on an event queue."""

    def __init__(self, queue: EventQueue) -> None:
        self.queue = queue
        self._jobs: dict[str, ScopeJob] = {}
        self.runs: list[JobRun] = []

    def register(self, job: ScopeJob, first_run_delay: float | None = None) -> None:
        """Register a job and schedule its first run.

        The first run defaults to one full period from now, i.e. the 10-min
        job first fires at t+600 s covering [t, t+600).
        """
        if job.name in self._jobs:
            raise ValueError(f"job already registered: {job.name}")
        self._jobs[job.name] = job
        delay = job.period_s if first_run_delay is None else first_run_delay
        self.queue.schedule_after(delay, lambda: self._run(job), name=job.name)

    def jobs(self) -> list[str]:
        return sorted(self._jobs)

    def _run(self, job: ScopeJob) -> None:
        t = self.queue.clock.now
        try:
            result = job.callback(t)
            rows = len(result) if result is not None else 0
            self.runs.append(
                JobRun(job.name, t, JobStatus.SUCCEEDED, rows_out=rows)
            )
        except Exception as exc:  # noqa: BLE001 - jobs must not kill the pipeline
            self.runs.append(
                JobRun(job.name, t, JobStatus.FAILED, error=repr(exc))
            )
        self.queue.schedule_after(job.period_s, lambda: self._run(job), name=job.name)
