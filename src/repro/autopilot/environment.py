"""An Autopilot environment: one managed cluster (§2.3).

"a cluster, which is a set of servers connected by a local data center
network, is managed by an Autopilot environment."  The environment wires
together the Autopilot services (DM, RS, WS, PA) over a fabric and a shared
event queue, and provides the Deployment-Service behaviour Pingmesh relies
on: deploying a shared service onto every server in the cluster.
"""

from __future__ import annotations

from typing import Callable

from repro.autopilot.device_manager import DeviceManager
from repro.autopilot.perfcounter import PerfcounterAggregator
from repro.autopilot.repair import RepairService
from repro.autopilot.shared_service import SharedService
from repro.autopilot.watchdog import WatchdogService
from repro.netsim.fabric import Fabric
from repro.netsim.simclock import EventQueue, SimClock

__all__ = ["AutopilotEnvironment"]


class AutopilotEnvironment:
    """The management plane of one cluster."""

    def __init__(
        self,
        name: str,
        fabric: Fabric,
        clock: SimClock | None = None,
        pa_period_s: float = 300.0,
        watchdog_period_s: float = 60.0,
        max_reloads_per_day: int = 20,
    ) -> None:
        self.name = name
        self.fabric = fabric
        self.clock = clock or SimClock()
        self.queue = EventQueue(self.clock)
        self.device_manager = DeviceManager()
        self.repair_service = RepairService(
            self.device_manager, fabric, max_reloads_per_day=max_reloads_per_day
        )
        self.perfcounter = PerfcounterAggregator(
            self.queue, collection_period_s=pa_period_s
        )
        self.watchdogs = WatchdogService(
            self.queue, check_period_s=watchdog_period_s
        )
        # server_id -> service_name -> instance
        self._deployed: dict[str, dict[str, SharedService]] = {}

    # -- deployment service ---------------------------------------------------

    def deploy_shared_service(
        self,
        factory: Callable[[str], SharedService],
        servers: list[str] | None = None,
    ) -> list[SharedService]:
        """Deploy a shared service instance onto servers (default: all).

        ``factory(server_id)`` builds the per-server instance; each instance
        is started and its perf counters registered with the PA.
        """
        if servers is None:
            servers = [
                server.device_id for server in self.fabric.topology.all_servers()
            ]
        instances = []
        for server_id in servers:
            instance = factory(server_id)
            slot = self._deployed.setdefault(server_id, {})
            if instance.name in slot:
                raise ValueError(
                    f"service {instance.name!r} already deployed on {server_id}"
                )
            slot[instance.name] = instance
            instance.start(self.clock.now)
            self.perfcounter.register_producer(server_id, instance.perf_counters)
            instances.append(instance)
        return instances

    # -- operation ----------------------------------------------------------

    def start_services(self) -> None:
        """Kick off the periodic Autopilot loops (PA sweeps, watchdogs)."""
        self.perfcounter.start()
        self.watchdogs.start()

    def run_for(self, duration_s: float, max_events: int | None = None) -> int:
        """Advance the whole environment by ``duration_s`` simulated seconds."""
        return self.queue.run_for(duration_s, max_events=max_events)
