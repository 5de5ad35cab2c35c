"""Fault injection: the failures Pingmesh exists to find.

Section 5 describes two families of *silent* switch drops:

* **Packet black-holes** — deterministic drops of packets matching a
  pattern.  Type 1 keys on the (src IP, dst IP) pair (TCAM parity errors);
  type 2 additionally keys on the transport ports (ECMP-related errors).
  Both are cleared by reloading the switch (§5.1).
* **Silent random packet drops** — probabilistic drops from fabric-module
  bit flips, CRC errors inside the switch, badly seated linecards.  Not
  cleared by a reload; the switch must be isolated and RMA'd (§5.2).

Plus the visible kinds (FCS errors on a link, congestion discards) and
whole-unit outages (podset down) that produce Figure 8's patterns.

Every fault implements a per-packet ``evaluate`` against a traversed hop.
Black-hole pattern membership is decided by a salted deterministic hash of
the relevant header fields, so a given (src, dst[, ports]) is either always
dropped or never — exactly the determinism the detection algorithm relies
on.  All randomness comes from the caller's ``numpy`` generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.netsim.addressing import FiveTuple, IPv4Address
from repro.netsim.devices import Switch
from repro.netsim.topology import MultiDCTopology

__all__ = [
    "Fault",
    "BlackholeType1",
    "BlackholeType2",
    "SilentRandomDrop",
    "FcsErrorFault",
    "CongestionFault",
    "WanFault",
    "WanFiberCut",
    "DciCongestion",
    "WanPartialPartition",
    "AsymmetricWanRoute",
    "FaultVerdict",
    "FaultInjector",
    "wan_link_id",
    "podset_down",
    "podset_up",
]

_fault_counter = itertools.count(1)


def _mix64(*words: int) -> int:
    """Deterministic 64-bit mix of integer words (PYTHONHASHSEED-proof)."""
    h = 0xCBF29CE484222325
    for word in words:
        h ^= word & 0xFFFFFFFFFFFFFFFF
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


@dataclass
class FaultVerdict:
    """What a fault (or the absence of one) does to a traversing packet."""

    dropped: bool = False
    silent: bool = False  # true ⇒ no SNMP counter increment
    counter: str | None = None  # which visible counter to bump if not silent
    extra_latency_s: float = 0.0


@dataclass
class Fault:
    """Base fault bound to one switch."""

    switch_id: str
    fault_id: int = field(default_factory=lambda: next(_fault_counter))
    cleared_by_reload: bool = False
    description: str = ""

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        """Judge one packet.  ``uniform`` is a pre-drawn U(0,1) sample."""
        raise NotImplementedError


@dataclass
class BlackholeType1(Fault):
    """Deterministic drops keyed on the (src IP, dst IP) pair (§5.1).

    ``fraction`` is the fraction of address pairs whose TCAM entry is
    corrupted.  Membership is a salted hash of the pair, so the same pair is
    dropped 100 % of the time regardless of ports — "server A cannot talk to
    server B, but it can talk to servers C and D just fine".
    """

    fraction: float = 0.05
    cleared_by_reload: bool = True

    def matches(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bool:
        h = _mix64(self.fault_id, 0x7CA1, src_ip.value, dst_ip.value)
        return (h % 1_000_000) < self.fraction * 1_000_000

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if self.matches(flow.src_ip, flow.dst_ip):
            return FaultVerdict(dropped=True, silent=True)
        return FaultVerdict()


@dataclass
class BlackholeType2(Fault):
    """Deterministic drops keyed on addresses *and* ports (§5.1).

    "Server A can talk to Server B's destination port Y using source port X,
    but not source port Z."  Because the agent draws a fresh source port per
    probe, a type-2 black-hole shows as a *partial* loss rate between the
    affected pair — which is precisely why varying the source port matters
    (ablation: ``bench_ablation_srcport``).
    """

    fraction: float = 0.05
    cleared_by_reload: bool = True

    def matches(self, flow: FiveTuple) -> bool:
        h = _mix64(
            self.fault_id,
            0x7CA2,
            flow.src_ip.value,
            flow.dst_ip.value,
            (flow.src_port << 16) | flow.dst_port,
            flow.protocol,
        )
        return (h % 1_000_000) < self.fraction * 1_000_000

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if self.matches(flow):
            return FaultVerdict(dropped=True, silent=True)
        return FaultVerdict()


@dataclass
class SilentRandomDrop(Fault):
    """Random drops the switch does not report (§5.2).

    The incident in the paper showed 1–2 % random drops at one Spine switch
    with clean SNMP/syslog; root cause was bit flips in a fabric module.
    A reload does not fix it (``cleared_by_reload=False``).
    """

    drop_prob: float = 0.015

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if uniform < self.drop_prob:
            return FaultVerdict(dropped=True, silent=True)
        return FaultVerdict()


@dataclass
class FcsErrorFault(Fault):
    """A link with an elevated bit-error rate.

    Drop probability grows with frame length — the reason payload pings
    exist: "it can help detect packet drops that are related to packet
    length (e.g., fiber FCS errors)" (§4.1).  FCS drops are *visible* in the
    switch counters.
    """

    bit_error_rate: float = 1e-8

    def drop_prob(self, packet_bytes: int) -> float:
        bits = 8 * max(64, packet_bytes)
        return 1.0 - (1.0 - self.bit_error_rate) ** bits

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if uniform < self.drop_prob(packet_bytes):
            return FaultVerdict(dropped=True, silent=False, counter="fcs_errors")
        return FaultVerdict()


@dataclass
class CongestionFault(Fault):
    """A congested switch: visible output discards plus queueing delay.

    With network QoS deployed (§6.2), congestion bites the low-priority
    DSCP class first: traffic to ``low_priority_port`` sees its queueing
    delay and drop probability scaled by ``low_priority_multiplier``.
    That asymmetry is exactly what the low-QoS pinglist class exists to
    observe.
    """

    drop_prob: float = 1e-3
    extra_queue_s: float = 500e-6
    low_priority_port: int | None = None
    low_priority_multiplier: float = 1.0

    def _scale(self, flow: FiveTuple) -> float:
        if (
            self.low_priority_port is not None
            and flow.dst_port == self.low_priority_port
        ):
            return self.low_priority_multiplier
        return 1.0

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        scale = self._scale(flow)
        if uniform < min(0.95, self.drop_prob * scale):
            return FaultVerdict(
                dropped=True, silent=False, counter="output_discards"
            )
        return FaultVerdict(extra_latency_s=self.extra_queue_s * scale)


# -- WAN faults -------------------------------------------------------------


def wan_link_id(src_dc: int, dst_dc: int) -> str:
    """The registry key for one WAN *direction* (DC ``src_dc`` → ``dst_dc``).

    WAN faults live in the same injector tables as switch faults, keyed by
    these synthetic ids — so envelope checks, ``faulted_switch_ids`` and the
    fast-path degradation logic see WAN trouble with no special casing.
    The ``wan:`` prefix can never collide with a device id (those start
    with the DC name).
    """
    return f"wan:dc{src_dc}>dc{dst_dc}"


@dataclass
class WanFault(Fault):
    """Base fault bound to a WAN direction instead of a switch.

    ``bidirectional`` faults (a fiber cut severs both directions of the
    trench) register under both direction keys; directional faults (a
    congested DCI egress, a one-way reroute) affect only
    ``src_dc → dst_dc``.  WAN faults are never cleared by a switch reload —
    there is no switch to reload.
    """

    switch_id: str = ""
    src_dc: int = 0
    dst_dc: int = 1
    bidirectional: bool = False

    def __post_init__(self) -> None:
        if self.src_dc == self.dst_dc:
            raise ValueError(f"WAN fault needs two distinct DCs: {self.src_dc}")
        if not self.switch_id:
            self.switch_id = wan_link_id(self.src_dc, self.dst_dc)

    def directions(self) -> tuple[tuple[int, int], ...]:
        if self.bidirectional:
            return ((self.src_dc, self.dst_dc), (self.dst_dc, self.src_dc))
        return ((self.src_dc, self.dst_dc),)

    def link_ids(self) -> tuple[str, ...]:
        return tuple(wan_link_id(a, b) for a, b in self.directions())


@dataclass
class WanFiberCut(WanFault):
    """The long-haul trench is severed: every crossing packet dies.

    Bidirectional by nature, and invisible to any switch counter — the
    border routers keep forwarding into a dead fiber.  Only repairable by
    the fiber provider (cleared when the fault is cleared), never by a
    switch reload.
    """

    bidirectional: bool = True

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        return FaultVerdict(dropped=True, silent=True)


@dataclass
class DciCongestion(WanFault):
    """A congested DCI egress: directional discards plus queueing delay.

    Inter-DC links run far hotter than the intra-DC fabric, and congestion
    hits one *direction* (the egress queue of one side), which is exactly
    why the latency/drop picture across a DC pair can be asymmetric.
    """

    drop_prob: float = 5e-3
    extra_queue_s: float = 2e-3

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if uniform < min(0.95, self.drop_prob):
            return FaultVerdict(
                dropped=True, silent=False, counter="output_discards"
            )
        return FaultVerdict(extra_latency_s=self.extra_queue_s)


@dataclass
class WanPartialPartition(WanFault):
    """A deterministic subset of server pairs cannot cross the WAN.

    Models a partially-failed DCI LAG or a poisoned long-haul prefix: a
    salted hash of the *unordered* (src IP, dst IP) pair decides membership,
    so the SYN and its SYN-ACK (reversed addresses) agree — an affected pair
    is black-holed 100 % of the time, both ways, while other pairs sail
    through.  The inter-DC analogue of a type-1 black-hole.
    """

    fraction: float = 0.3
    bidirectional: bool = True

    def matches(self, src_ip: IPv4Address, dst_ip: IPv4Address) -> bool:
        lo, hi = sorted((src_ip.value, dst_ip.value))
        h = _mix64(self.fault_id, 0x7AB7, lo, hi)
        return (h % 1_000_000) < self.fraction * 1_000_000

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        if self.matches(flow.src_ip, flow.dst_ip):
            return FaultVerdict(dropped=True, silent=True)
        return FaultVerdict()


@dataclass
class AsymmetricWanRoute(WanFault):
    """One direction rerouted the long way around: latency only, no loss.

    A long-lived routing change (provider maintenance, BGP policy) that
    inflates one direction's propagation while the reverse keeps the short
    path — the classic cause of `fwd != rev` WAN latency that symmetric
    models cannot represent.
    """

    extra_latency_s: float = 0.030

    def evaluate(
        self, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        return FaultVerdict(extra_latency_s=self.extra_latency_s)


class FaultInjector:
    """Registry of active faults, consulted by the fabric per hop.

    ``state_version`` (when attached) is bumped on every inject/clear so
    the verdicts stamped against it are rebuilt: a fault changes which pairs
    may take the analytic fast path.  Routing itself is unchanged, so its
    routing generation stays.
    """

    def __init__(self, state_version=None) -> None:
        self._by_switch: dict[str, list[Fault]] = {}
        self._by_id: dict[int, Fault] = {}
        self._next_id = itertools.count(1)
        self._faulted: frozenset[str] = frozenset()
        self.state_version = state_version

    def _bump(self) -> None:
        """Every registry mutation ends here: one faulted-id set per generation."""
        self._faulted = frozenset(
            key for key, faults in self._by_switch.items() if faults
        )
        if self.state_version is not None:
            self.state_version.bump(routing=False)

    @staticmethod
    def _keys_of(fault: Fault) -> tuple[str, ...]:
        """The registry keys one fault occupies (both for bidirectional WAN)."""
        if isinstance(fault, WanFault):
            return fault.link_ids()
        return (fault.switch_id,)

    def inject(self, fault: Fault) -> Fault:
        """Activate a fault; returns it for later :meth:`clear`.

        The injector owns the fault's identity: ``fault_id`` is reassigned
        from this injector's own sequence, so the salted drop-membership
        hashes of the black-hole faults depend only on injection order
        within this fabric — never on how many faults the process happened
        to construct before (same seed, same run, any test ordering).
        """
        fault.fault_id = next(self._next_id)
        for key in self._keys_of(fault):
            self._by_switch.setdefault(key, []).append(fault)
        self._by_id[fault.fault_id] = fault
        self._bump()
        return fault

    def clear(self, fault: Fault | int) -> None:
        """Deactivate a fault by object or id (no-op if already gone)."""
        fault_id = fault if isinstance(fault, int) else fault.fault_id
        found = self._by_id.pop(fault_id, None)
        if found is None:
            return
        for key in self._keys_of(found):
            faults = self._by_switch.get(key, [])
            self._by_switch[key] = [f for f in faults if f.fault_id != fault_id]
        self._bump()

    def faults_on(self, switch_id: str) -> list[Fault]:
        return list(self._by_switch.get(switch_id, []))

    def wan_faults_on(self, src_dc: int, dst_dc: int) -> list[Fault]:
        """Active faults on the WAN direction ``src_dc`` → ``dst_dc``."""
        return list(self._by_switch.get(wan_link_id(src_dc, dst_dc), []))

    def faulted_switch_ids(self) -> frozenset[str]:
        """Ids of every switch (or WAN direction) carrying at least one fault."""
        return self._faulted

    def on_reload(self, switch: Switch) -> list[Fault]:
        """Apply a switch reload: clear reload-fixable faults; return them."""
        cleared = [
            fault
            for fault in self.faults_on(switch.device_id)
            if fault.cleared_by_reload
        ]
        for fault in cleared:
            self.clear(fault)
        return cleared

    def evaluate_hop(
        self, switch: Switch, flow: FiveTuple, packet_bytes: int, uniform: float
    ) -> FaultVerdict:
        """Combine all faults on one hop for one packet.

        The first fault that drops wins; latency penalties accumulate.
        Counter bookkeeping happens here so callers only see the verdict.
        """
        faults = self._by_switch.get(switch.device_id)
        if not faults:
            return FaultVerdict()
        extra_latency = 0.0
        for fault in faults:
            verdict = fault.evaluate(flow, packet_bytes, uniform)
            if verdict.dropped:
                if verdict.silent:
                    switch.counters.silent_drops += 1
                elif verdict.counter:
                    current = getattr(switch.counters, verdict.counter)
                    setattr(switch.counters, verdict.counter, current + 1)
                return FaultVerdict(
                    dropped=True,
                    silent=verdict.silent,
                    counter=verdict.counter,
                    extra_latency_s=extra_latency,
                )
            extra_latency += verdict.extra_latency_s
        return FaultVerdict(extra_latency_s=extra_latency)

    def evaluate_wan(
        self,
        src_dc: int,
        dst_dc: int,
        flow: FiveTuple,
        packet_bytes: int,
        uniform: float,
    ) -> FaultVerdict:
        """Combine all faults on one WAN direction for one packet.

        Same first-drop-wins / latency-accumulates semantics as
        :meth:`evaluate_hop`, but with no switch counters: no single switch
        owns the long-haul segment, so WAN drops are visible only through
        the probes themselves — the Pingmesh-sees-what-SNMP-cannot regime.
        """
        faults = self._by_switch.get(wan_link_id(src_dc, dst_dc))
        if not faults:
            return FaultVerdict()
        extra_latency = 0.0
        for fault in faults:
            verdict = fault.evaluate(flow, packet_bytes, uniform)
            if verdict.dropped:
                return FaultVerdict(
                    dropped=True,
                    silent=verdict.silent,
                    counter=verdict.counter,
                    extra_latency_s=extra_latency,
                )
            extra_latency += verdict.extra_latency_s
        return FaultVerdict(extra_latency_s=extra_latency)


# -- whole-unit outage helpers (Figure 8 scenarios) ------------------------


def podset_down(topology: MultiDCTopology, dc: int | str, podset: int) -> list[str]:
    """Power off a whole podset (servers, ToRs, Leaves) — Fig. 8(b).

    Returns the ids of the devices brought down, for symmetric restoration.
    """
    return _set_podset_state(topology, dc, podset, up=False)


def podset_up(topology: MultiDCTopology, dc: int | str, podset: int) -> list[str]:
    """Restore a podset powered off by :func:`podset_down`."""
    return _set_podset_state(topology, dc, podset, up=True)


def _set_podset_state(
    topology: MultiDCTopology, dc: int | str, podset: int, up: bool
) -> list[str]:
    dc_topo = topology.dc(dc)
    if not 0 <= podset < dc_topo.spec.n_podsets:
        raise ValueError(f"no podset {podset} in {dc_topo.spec.name}")
    devices: Iterable = itertools.chain(
        dc_topo.servers_in_podset(podset),
        (tor for tor in dc_topo.tors if tor.podset_index == podset),
        dc_topo.leaves_of(podset),
    )
    touched = []
    for device in devices:
        if up:
            device.bring_up()
        else:
            device.bring_down()
        touched.append(device.device_id)
    return touched
