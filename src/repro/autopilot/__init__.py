"""Autopilot substrate: the data center management stack (§2.3).

Autopilot is "Microsoft's software stack for automatic data center
management"; Pingmesh is built inside its framework.  We reproduce the
pieces Pingmesh touches:

* :mod:`repro.autopilot.shared_service` — the shared-service mode: code that
  runs on every managed server under strict CPU/memory budgets,
* :mod:`repro.autopilot.perfcounter` — the Perfcounter Aggregator (PA)
  5-minute counter pipeline,
* :mod:`repro.autopilot.watchdog` — the Watchdog Service (WS),
* :mod:`repro.autopilot.device_manager` — the Device Manager (DM) machine
  state store,
* :mod:`repro.autopilot.repair` — the Repair Service (RS) that reloads and
  RMAs switches,
* :mod:`repro.autopilot.environment` — an Autopilot environment binding the
  services to a cluster and a clock.
"""

from repro.autopilot.device_manager import DeviceManager, MachineState
from repro.autopilot.environment import AutopilotEnvironment
from repro.autopilot.perfcounter import PerfcounterAggregator
from repro.autopilot.repair import RepairAction, RepairService
from repro.autopilot.service_manager import ServiceManager
from repro.autopilot.shared_service import (
    ResourceBudgetExceeded,
    ResourceUsage,
    SharedService,
)
from repro.autopilot.watchdog import HealthStatus, WatchdogService

__all__ = [
    "AutopilotEnvironment",
    "DeviceManager",
    "HealthStatus",
    "MachineState",
    "PerfcounterAggregator",
    "RepairAction",
    "RepairService",
    "ResourceBudgetExceeded",
    "ResourceUsage",
    "ServiceManager",
    "SharedService",
    "WatchdogService",
]
