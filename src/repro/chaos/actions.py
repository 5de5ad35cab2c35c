"""Timed fault actions: the vocabulary of a chaos campaign.

Each action knows how to inflict one failure on a running
:class:`~repro.core.system.PingmeshSystem` at its start time and how to
heal it at its end time.  Actions that a watchdog is supposed to catch
declare ``expected_watchdog`` so the
:class:`~repro.chaos.invariants.InvariantChecker` can hold the watchdog to
a bounded detection delay (§3.5).
"""

from __future__ import annotations

from repro.netsim.faults import WanFault, podset_down, podset_up
from repro.netsim.scenarios import apply_scenario

__all__ = [
    "ChaosAction",
    "ScenarioAction",
    "ReplicaFlap",
    "ControllerBlackout",
    "ControllerBrownout",
    "PinglistKillSwitch",
    "CosmosBlackout",
    "PodsetPowerLoss",
    "VipBlackout",
    "MemorySqueeze",
    "StreamIngestBlackout",
    "WanLinkFault",
]


class ChaosAction:
    """One timed fault.  Subclasses implement :meth:`start` / :meth:`end`."""

    name: str = "chaos-action"
    # Watchdog that must reach ERROR after start() (None: no watchdog
    # covers this fault class — e.g. the kill switch is an operator action).
    expected_watchdog: str | None = None
    watchdog_within_s: float | None = None  # None: checker default grace

    def start(self, system, t: float) -> None:
        raise NotImplementedError

    def end(self, system, t: float) -> None:
        """Heal the fault.  Default: nothing to undo."""

    def ground_truth_devices(self, system) -> set[str]:
        """Devices legitimately blamable for this fault (scapegoat check)."""
        return set()


class ScenarioAction(ChaosAction):
    """Inject any canned ``netsim.scenarios`` scenario for a window."""

    def __init__(self, scenario_name: str, **kwargs) -> None:
        self.name = f"scenario:{scenario_name}"
        self.scenario_name = scenario_name
        self.kwargs = kwargs
        self.scenario = None

    def start(self, system, t: float) -> None:
        self.scenario = apply_scenario(
            self.scenario_name, system.fabric, **self.kwargs
        )

    def end(self, system, t: float) -> None:
        if self.scenario is not None:
            self.scenario.revert()

    def ground_truth_devices(self, system) -> set[str]:
        if self.scenario is None:
            return set()
        devices = set(self.scenario.ground_truth_devices)
        if self.scenario.downed_podset is not None:
            dc, podset = self.scenario.downed_podset
            devices.update(
                server.device_id
                for server in system.topology.dc(dc).servers_in_podset(podset)
            )
        return devices


class ReplicaFlap(ChaosAction):
    """One controller replica dies and later recovers.

    No watchdog expectation: losing one of N replicas is business as usual
    ("Every Pingmesh Controller server runs the same piece of code"), the
    SLB routes around it.  Recovery goes through
    :meth:`PingmeshControllerService.recover_replica`, which must stamp the
    rebuilt files with the fleet's generation time, not t=0.
    """

    def __init__(self, dip: str) -> None:
        self.name = f"replica-flap:{dip}"
        self.dip = dip

    def start(self, system, t: float) -> None:
        system.controller.fail_replica(self.dip)

    def end(self, system, t: float) -> None:
        system.controller.recover_replica(self.dip)


class ControllerBlackout(ChaosAction):
    """Every controller replica down — the ``pinglists-generated`` watchdog
    must reach ERROR within its bounded delay."""

    name = "controller-blackout"
    expected_watchdog = "pinglists-generated"

    def start(self, system, t: float) -> None:
        for dip in system.controller.replicas:
            system.controller.fail_replica(dip)

    def end(self, system, t: float) -> None:
        for dip in system.controller.replicas:
            system.controller.recover_replica(dip)


class ControllerBrownout(ChaosAction):
    """Controller replicas answer, but slower than the agent request
    timeout — slow, not dead.

    The up/down health check keeps passing, so only the request-path
    circuit breakers (fed by :class:`ControllerTimeoutError`) can eject
    the browned-out replicas.  With every replica slow, agents see
    timeouts, go STALE and keep probing their cached pinglists; no agent
    may fail closed unless the brownout outlasts three spaced refresh
    attempts.
    """

    def __init__(self, response_delay_s: float = 10.0, dips: list[str] | None = None) -> None:
        scope = "all" if dips is None else ",".join(dips)
        self.name = f"controller-brownout:{scope}"
        self.response_delay_s = response_delay_s
        self.dips = dips

    def _targets(self, system) -> list[str]:
        return self.dips if self.dips is not None else list(system.controller.replicas)

    def start(self, system, t: float) -> None:
        for dip in self._targets(system):
            system.controller.brownout_replica(dip, self.response_delay_s)

    def end(self, system, t: float) -> None:
        for dip in self._targets(system):
            system.controller.clear_brownout(dip)


class PinglistKillSwitch(ChaosAction):
    """§3.4.2's documented kill switch: remove every pinglist file.

    Agents that refresh during the window get a 404 and must fall closed —
    zero probes until the files come back (``end`` regenerates them).
    """

    name = "pinglist-kill-switch"

    def start(self, system, t: float) -> None:
        system.controller.remove_all_pinglists()

    def end(self, system, t: float) -> None:
        # Pure generation bump — the kill switch changed no topology, so
        # the lazy entry memo survives and the refresh is O(1) now and
        # O(cache hit) at the agents' next GET.
        system.controller.regenerate(t=t, changed_dcs=())


class CosmosBlackout(ChaosAction):
    """Cosmos refuses every upload for the window.

    Uploaders must retry, then discard — bounded memory with the discard
    accounted in :class:`UploadStats` (§3.4.2), never an unbounded buffer.
    """

    name = "cosmos-blackout"

    def start(self, system, t: float) -> None:
        def refuse(records, upload_t):
            raise ConnectionError("cosmos unavailable (chaos drill)")

        for agent in system.agents.values():
            agent.uploader.set_upload_fn(refuse)

    def end(self, system, t: float) -> None:
        for agent in system.agents.values():
            agent.uploader.set_upload_fn(None)


class PodsetPowerLoss(ChaosAction):
    """A whole podset loses power (Figure 8(b)) and later comes back."""

    def __init__(self, dc: int | str = 0, podset: int = 1) -> None:
        self.name = f"podset-power-loss:{dc}/{podset}"
        self.dc = dc
        self.podset = podset
        self.devices: list[str] = []

    def start(self, system, t: float) -> None:
        self.devices = podset_down(system.topology, self.dc, self.podset)

    def end(self, system, t: float) -> None:
        podset_up(system.topology, self.dc, self.podset)

    def ground_truth_devices(self, system) -> set[str]:
        return set(self.devices)


class VipBlackout(ChaosAction):
    """Every DIP behind a VIP goes dark for the window (§6.2).

    Agents must keep *measuring* the VIP — failed vip-purpose probes are
    the datum, not an error to suppress.
    """

    def __init__(self, vip: str) -> None:
        self.name = f"vip-blackout:{vip}"
        self.vip = vip

    def _dips(self, system) -> list[str]:
        try:
            return list(system.config.vips[self.vip])
        except KeyError:
            raise KeyError(
                f"system has no VIP {self.vip!r}; configured: "
                f"{sorted(system.config.vips)}"
            ) from None

    def start(self, system, t: float) -> None:
        for dip in self._dips(system):
            system.topology.server(dip).bring_down()

    def end(self, system, t: float) -> None:
        for dip in self._dips(system):
            system.topology.server(dip).bring_up()

    def ground_truth_devices(self, system) -> set[str]:
        return set(self._dips(system))


class MemorySqueeze(ChaosAction):
    """Shrink agents' memory caps so the OS kills them (fail-closed).

    The ``agents-within-budget`` watchdog must reach ERROR, and the Service
    Manager must restart the agents within its daily budget once the cap is
    restored — the "always-on" loop of §3.4.2 exercised end to end.
    """

    expected_watchdog = "agents-within-budget"

    def __init__(self, server_ids: list[str], cap_mb: float = 1.0) -> None:
        self.name = f"memory-squeeze:{len(server_ids)} agents"
        self.server_ids = list(server_ids)
        self.cap_mb = cap_mb
        self._saved_caps: dict[str, float] = {}

    def start(self, system, t: float) -> None:
        for server_id in self.server_ids:
            agent = system.agent_on(server_id)
            self._saved_caps[server_id] = agent.memory_cap_mb
            agent.memory_cap_mb = self.cap_mb

    def end(self, system, t: float) -> None:
        for server_id, cap in self._saved_caps.items():
            system.agent_on(server_id).memory_cap_mb = cap


class WanLinkFault(ChaosAction):
    """Inject one WAN fault (fiber cut, DCI congestion, partial partition,
    asymmetric reroute) on the long-haul segment for a window.

    Only inter-DC probes between the affected DC pair are touched; every
    intra-DC series must stay healthy throughout.  Ground truth covers the
    WAN direction markers, both DCs' border routers, and the ToRs of the
    pods hosting inter-DC pivot servers — the only devices a localizer
    could defensibly implicate for a long-haul failure (no single switch
    owns the segment, so blame lands on its endpoints).
    """

    def __init__(self, fault: WanFault) -> None:
        kind = type(fault).__name__
        self.name = f"wan-link-fault:{kind}:dc{fault.src_dc}>dc{fault.dst_dc}"
        self.fault = fault
        self._injected: WanFault | None = None

    def start(self, system, t: float) -> None:
        self._injected = system.fabric.faults.inject(self.fault)

    def end(self, system, t: float) -> None:
        if self._injected is not None:
            system.fabric.faults.clear(self._injected)
            self._injected = None

    def ground_truth_devices(self, system) -> set[str]:
        devices: set[str] = set(self.fault.link_ids())
        for dc_index in (self.fault.src_dc, self.fault.dst_dc):
            dc = system.topology.dc(dc_index)
            devices.update(border.device_id for border in dc.borders)
            generator = system.controller.generator
            for server in generator.inter_dc_selection(dc):
                devices.add(dc.tor_of(server).device_id)
        return devices


class StreamIngestBlackout(ChaosAction):
    """Every replica behind the stream-ingest VIP goes out of rotation.

    The streaming plane must fail closed: deltas flushed during the window
    are dropped *and counted* (never buffered unboundedly, never silently
    lost), the ``stream-ingesting`` watchdog must reach ERROR, the batch
    plane keeps working untouched, and ingest must resume the moment the
    replicas return.
    """

    name = "stream-ingest-blackout"
    expected_watchdog = "stream-ingesting"

    def start(self, system, t: float) -> None:
        system.stream.fail_ingest_replica()

    def end(self, system, t: float) -> None:
        system.stream.recover_ingest_replica()
