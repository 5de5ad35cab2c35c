"""The Service Manager: per-server service supervision (§2.3).

"a Service Manager is a shared service that manages the life-cycle and
resource usage of other applications".  For Pingmesh the load-bearing duty
is restart supervision: the agent is deliberately fail-closed (the OS kills
it on a memory-cap breach), so something must bring it back — with enough
restraint that a crash-looping build does not burn the server.

:class:`ServiceManager` watches the services of one server: terminated
instances are restarted after ``restart_delay_s``, under a budget of
``max_restarts_per_day``; a service that exhausts its budget is left down
and reported to the watchdogs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autopilot.shared_service import SharedService
from repro.netsim.simclock import SECONDS_PER_DAY, EventQueue

__all__ = ["RestartRecord", "ServiceManager"]


@dataclass(frozen=True)
class RestartRecord:
    """One supervised restart."""

    t: float
    server_id: str
    service_name: str
    reason: str


class ServiceManager:
    """Supervises shared-service instances on one or many servers."""

    def __init__(
        self,
        queue: EventQueue,
        restart_delay_s: float = 60.0,
        max_restarts_per_day: int = 5,
        sweep_period_s: float = 60.0,
    ) -> None:
        if restart_delay_s < 0:
            raise ValueError(f"restart delay must be >= 0: {restart_delay_s}")
        if max_restarts_per_day < 1:
            raise ValueError(
                f"max_restarts_per_day must be >= 1: {max_restarts_per_day}"
            )
        if sweep_period_s <= 0:
            raise ValueError(f"sweep period must be positive: {sweep_period_s}")
        self.queue = queue
        self.restart_delay_s = restart_delay_s
        self.max_restarts_per_day = max_restarts_per_day
        self.sweep_period_s = sweep_period_s
        self._supervised: list[SharedService] = []
        self._pending_restart: set[int] = set()  # id() of instances queued
        self.restarts: list[RestartRecord] = []
        self._started = False

    def supervise(self, instance: SharedService) -> None:
        """Put one service instance under supervision."""
        self._supervised.append(instance)

    def supervise_all(self, instances: list[SharedService]) -> None:
        for instance in instances:
            self.supervise(instance)

    def start(self) -> None:
        """Begin the periodic crash sweeps."""
        if self._started:
            raise RuntimeError("service manager already started")
        self._started = True
        self.queue.schedule_after(self.sweep_period_s, self._sweep, name="sm-sweep")

    # -- supervision -----------------------------------------------------------

    def restarts_in_last_day(self, instance: SharedService, now: float) -> int:
        cutoff = now - SECONDS_PER_DAY
        return sum(
            1
            for record in self.restarts
            if record.server_id == instance.server_id
            and record.service_name == instance.name
            and record.t > cutoff
        )

    def exhausted(self, instance: SharedService, now: float) -> bool:
        """True when the instance has burned its daily restart budget."""
        return (
            self.restarts_in_last_day(instance, now) >= self.max_restarts_per_day
        )

    def _sweep(self) -> None:
        now = self.queue.clock.now
        for instance in self._supervised:
            if instance.running or id(instance) in self._pending_restart:
                continue
            if instance.terminated_reason is None:
                continue  # stopped deliberately, not crashed
            if self.exhausted(instance, now):
                continue  # crash loop: leave it down for the watchdogs
            self._pending_restart.add(id(instance))
            self.queue.schedule_after(
                self.restart_delay_s,
                lambda i=instance: self._restart(i),
                name="sm-restart",
            )
        self.queue.schedule_after(self.sweep_period_s, self._sweep, name="sm-sweep")

    def _restart(self, instance: SharedService) -> None:
        self._pending_restart.discard(id(instance))
        now = self.queue.clock.now
        if instance.running or self.exhausted(instance, now):
            return
        reason = instance.terminated_reason or "unknown"
        instance.start(now=now)
        self.restarts.append(
            RestartRecord(
                t=now,
                server_id=instance.server_id,
                service_name=instance.name,
                reason=reason,
            )
        )
