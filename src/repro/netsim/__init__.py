"""Data center network simulator substrate.

This package stands in for the production Clos network Pingmesh runs on.
It provides:

* a simulated clock and event queue (:mod:`repro.netsim.simclock`),
* IPv4 addressing and five-tuples (:mod:`repro.netsim.addressing`),
* a parametric Clos topology (:mod:`repro.netsim.topology`),
* ECMP routing (:mod:`repro.netsim.routing`),
* per-component latency and drop models (:mod:`repro.netsim.latency`,
  :mod:`repro.netsim.drops`),
* fault injection (:mod:`repro.netsim.faults`),
* TCP connect/probe semantics with SYN retransmission signatures
  (:mod:`repro.netsim.tcp`),
* the :class:`~repro.netsim.fabric.Fabric` engine tying it together, and
* TCP traceroute (:mod:`repro.netsim.traceroute`).
"""

from repro.netsim.addressing import FiveTuple, IPv4Address
from repro.netsim.explain import explain_probe
from repro.netsim.fabric import Fabric, ProbeResult
from repro.netsim.scenarios import SCENARIOS, apply_scenario
from repro.netsim.simclock import SimClock
from repro.netsim.topology import ClosTopology, MultiDCTopology, TopologySpec
from repro.netsim.transfer import transfer_probe
from repro.netsim.workload import WorkloadProfile

__all__ = [
    "ClosTopology",
    "Fabric",
    "FiveTuple",
    "IPv4Address",
    "MultiDCTopology",
    "ProbeResult",
    "SCENARIOS",
    "SimClock",
    "TopologySpec",
    "WorkloadProfile",
    "apply_scenario",
    "explain_probe",
    "transfer_probe",
]
