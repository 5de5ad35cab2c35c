"""The Repair Service (RS): executes DM's repair commands (§2.3, §5).

Two repair actions matter for Pingmesh:

* **reload_switch** — fixes TCAM-corruption black-holes (§5.1).  The paper's
  detector "limit[s] the algorithm to reload at most 20 switches per day.
  This is to limit the maximum number of switch reboots" — the same daily
  budget is enforced here.
* **rma_switch** — silent random droppers "cannot be fixed by switch reload
  and we have to RMA the faulty switch or components" (§5.2); the switch is
  isolated from live traffic until replaced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.autopilot.device_manager import DeviceManager, RepairRequest
from repro.netsim.fabric import Fabric
from repro.netsim.simclock import SECONDS_PER_DAY

__all__ = ["RepairAction", "RepairService", "DEFAULT_MAX_RELOADS_PER_DAY"]

DEFAULT_MAX_RELOADS_PER_DAY = 20


@dataclass
class RepairAction:
    """An executed (or deferred) repair."""

    t: float
    device_id: str
    action: str
    executed: bool
    detail: str = ""


class RepairService:
    """Drains the DM queue and acts on the fabric, within rate limits."""

    def __init__(
        self,
        device_manager: DeviceManager,
        fabric: Fabric,
        max_reloads_per_day: int = DEFAULT_MAX_RELOADS_PER_DAY,
    ) -> None:
        if max_reloads_per_day < 1:
            raise ValueError(
                f"max_reloads_per_day must be >= 1: {max_reloads_per_day}"
            )
        self.device_manager = device_manager
        self.fabric = fabric
        self.max_reloads_per_day = max_reloads_per_day
        self.actions: list[RepairAction] = []
        self._reload_times: list[float] = []

    # -- rate limiting -------------------------------------------------------

    def reloads_in_last_day(self, now: float) -> int:
        cutoff = now - SECONDS_PER_DAY
        return sum(1 for t in self._reload_times if t > cutoff)

    def reload_budget_left(self, now: float) -> int:
        return max(0, self.max_reloads_per_day - self.reloads_in_last_day(now))

    # -- execution ----------------------------------------------------------

    def process_queue(self, now: float) -> list[RepairAction]:
        """Execute every pending DM request allowed by the rate limits.

        Requests beyond the daily reload budget are re-queued untouched for
        the next day's run.
        """
        executed: list[RepairAction] = []
        deferred: list[RepairRequest] = []
        for request in self.device_manager.take_pending():
            if request.action == "reload_switch":
                if self.reload_budget_left(now) <= 0:
                    deferred.append(request)
                    continue
                action = self._reload(request, now)
            elif request.action == "rma_switch":
                action = self._rma(request, now)
            elif request.action == "reboot_server":
                action = self._reboot_server(request, now)
            else:
                raise ValueError(f"unknown repair action: {request.action!r}")
            executed.append(action)
        # Anything deferred goes back on the queue, preserving order.
        self.device_manager.pending = deferred + self.device_manager.pending
        return executed

    def _reload(self, request: RepairRequest, now: float) -> RepairAction:
        cleared = self.fabric.reload_switch(request.device_id)
        self._reload_times.append(now)
        self.device_manager.mark_completed(request)
        action = RepairAction(
            t=now,
            device_id=request.device_id,
            action="reload_switch",
            executed=True,
            detail=f"cleared {len(cleared)} fault(s)",
        )
        self.actions.append(action)
        return action

    def _rma(self, request: RepairRequest, now: float) -> RepairAction:
        self.fabric.isolate_switch(request.device_id)
        self.device_manager.mark_completed(request)
        action = RepairAction(
            t=now,
            device_id=request.device_id,
            action="rma_switch",
            executed=True,
            detail="isolated from live traffic, RMA pending",
        )
        self.actions.append(action)
        return action

    def _reboot_server(self, request: RepairRequest, now: float) -> RepairAction:
        server = self.fabric.topology.server(request.device_id)
        server.bring_up()
        self.device_manager.mark_completed(request)
        action = RepairAction(
            t=now, device_id=request.device_id, action="reboot_server", executed=True
        )
        self.actions.append(action)
        return action
