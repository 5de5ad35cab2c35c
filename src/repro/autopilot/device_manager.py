"""The Device Manager (DM): the repair command queue (§2.3).

"Device Manager (DM), which manages the machine state" — repairs are
"performed by the Repair Service (RS) ... by taking commands from DM".

We keep the request queue the Repair Service drains and the history of
completed requests; a per-device machine state is not modelled.  Pingmesh's black-hole detector
files repair requests here rather than poking switches directly, matching
the paper's "we then invoke a network repairing service to safely restart
the ToRs".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

__all__ = ["RepairRequest", "DeviceManager"]


@dataclass
class RepairRequest:
    """A queued command for the Repair Service."""

    request_id: int
    device_id: str
    action: str  # "reload_switch" | "rma_switch" | "reboot_server"
    reason: str
    requested_t: float
    completed: bool = False


class DeviceManager:
    """Queues repair commands."""

    def __init__(self) -> None:
        self._request_ids = itertools.count(1)
        self.pending: list[RepairRequest] = []
        self.history: list[RepairRequest] = []

    def request_repair(
        self, device_id: str, action: str, reason: str, t: float
    ) -> RepairRequest:
        """File a repair request; duplicate pending requests are coalesced."""
        for request in self.pending:
            if request.device_id == device_id and request.action == action:
                return request
        request = RepairRequest(
            request_id=next(self._request_ids),
            device_id=device_id,
            action=action,
            reason=reason,
            requested_t=t,
        )
        self.pending.append(request)
        return request

    def take_pending(self) -> list[RepairRequest]:
        """Hand the pending queue to the Repair Service (drains it)."""
        taken, self.pending = self.pending, []
        return taken

    def mark_completed(self, request: RepairRequest) -> None:
        request.completed = True
        self.history.append(request)
