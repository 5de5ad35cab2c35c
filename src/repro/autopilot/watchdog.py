"""The Watchdog Service (§2.3, §3.5).

"All the components of Pingmesh have watchdogs to watch whether they are
running correctly or not, e.g., whether pinglists are generated correctly,
whether the CPU and memory usages are within budget, whether pingmesh data
are reported and stored, whether DSA reports network SLAs in time."

A watchdog is a named check callable returning a :class:`HealthStatus`;
the service sweeps all of them periodically and keeps the latest report
plus a history of ERROR transitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.netsim.simclock import EventQueue

__all__ = ["HealthStatus", "WatchdogReport", "WatchdogService"]


class HealthStatus(enum.Enum):
    OK = "ok"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class WatchdogReport:
    """Result of one watchdog check."""

    t: float
    name: str
    status: HealthStatus
    detail: str = ""


class WatchdogService:
    """Periodically runs registered health checks."""

    def __init__(self, queue: EventQueue, check_period_s: float = 60.0) -> None:
        if check_period_s <= 0:
            raise ValueError(f"period must be positive: {check_period_s}")
        self.queue = queue
        self.check_period_s = check_period_s
        self._checks: dict[str, Callable[[], tuple[HealthStatus, str]]] = {}
        self._latest: dict[str, WatchdogReport] = {}
        self.error_history: list[WatchdogReport] = []
        self._started = False

    def register(
        self, name: str, check: Callable[[], tuple[HealthStatus, str]]
    ) -> None:
        """Register a check returning ``(status, detail)``."""
        if name in self._checks:
            raise ValueError(f"watchdog already registered: {name}")
        self._checks[name] = check

    def start(self) -> None:
        if self._started:
            raise RuntimeError("watchdog service already started")
        self._started = True
        self.queue.schedule_after(self.check_period_s, self._sweep, name="watchdogs")

    def _sweep(self) -> None:
        t = self.queue.clock.now
        for name, check in self._checks.items():
            try:
                status, detail = check()
            except Exception as exc:  # noqa: BLE001 - a broken check IS an error
                status, detail = HealthStatus.ERROR, f"check raised: {exc!r}"
            report = WatchdogReport(t, name, status, detail)
            self._latest[name] = report
            if status == HealthStatus.ERROR:
                self.error_history.append(report)
        self.queue.schedule_after(self.check_period_s, self._sweep, name="watchdogs")

    def run_once(self) -> dict[str, WatchdogReport]:
        """Run all checks immediately (outside the periodic schedule)."""
        t = self.queue.clock.now
        for name, check in self._checks.items():
            try:
                status, detail = check()
            except Exception as exc:  # noqa: BLE001
                status, detail = HealthStatus.ERROR, f"check raised: {exc!r}"
            report = WatchdogReport(t, name, status, detail)
            self._latest[name] = report
            if status == HealthStatus.ERROR:
                self.error_history.append(report)
        return dict(self._latest)

    def latest(self, name: str) -> WatchdogReport | None:
        return self._latest.get(name)
