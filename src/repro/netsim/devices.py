"""Device models: servers, switches, and their operational state.

Switches keep SNMP-style counters.  Crucially for the paper's §5 story,
*silent* packet drops (black-holes, fabric bit flips) do **not** increment
the discard counters — "a switch may drop packets even though its SNMP tells
us everything is fine" (§6).  Congestion and FCS drops do increment them.

Every operational state transition bumps the topology's shared
:class:`StateVersion` (attached at registration time), which is what lets
the router and fabric cache between transitions: a cache stamped with the
current version is valid exactly until the next up/down/isolate/reload,
fault change or growth its contents depend on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import ClassVar

from repro.netsim.addressing import IPv4Address

__all__ = [
    "DeviceKind",
    "DeviceState",
    "StateVersion",
    "SnmpCounters",
    "Device",
    "Server",
    "Switch",
]


class StateVersion:
    """Two monotonic counters stamping the network's state.

    ``value`` moves on every device up/down/isolate transition, switch
    reload, fault inject/clear, topology growth and WAN retime; ``routing``
    on all of those but fault changes and server flips, which move no
    route.  A cache records the counter its contents depend on and is
    rebuilt when that one moves — over-bumping is always safe, missing a
    bump never is.
    """

    __slots__ = ("value", "routing")

    def __init__(self) -> None:
        self.value = 0
        self.routing = 0

    def bump(self, routing: bool = True) -> int:
        self.value += 1
        if routing:
            self.routing += 1
        return self.value

    def __repr__(self) -> str:
        return f"StateVersion({self.value})"


class DeviceKind(enum.Enum):
    """The role a device plays in the Clos fabric."""

    SERVER = "server"
    TOR = "tor"
    LEAF = "leaf"
    SPINE = "spine"
    BORDER = "border"  # inter-DC border router


class DeviceState(enum.Enum):
    UP = "up"
    DOWN = "down"
    ISOLATED = "isolated"  # removed from serving live traffic (RMA pending)


@dataclass
class SnmpCounters:
    """What the switch *admits* to via SNMP.

    ``silent_drops`` is ground truth kept by the simulator for verification;
    it is deliberately not part of :meth:`visible`.
    """

    packets_forwarded: int = 0
    input_discards: int = 0
    output_discards: int = 0
    fcs_errors: int = 0
    silent_drops: int = 0

    def visible(self) -> dict[str, int]:
        """The counters an operator polling SNMP would see."""
        return {
            "packets_forwarded": self.packets_forwarded,
            "input_discards": self.input_discards,
            "output_discards": self.output_discards,
            "fcs_errors": self.fcs_errors,
        }

    def reset(self) -> None:
        self.packets_forwarded = 0
        self.input_discards = 0
        self.output_discards = 0
        self.fcs_errors = 0
        self.silent_drops = 0


@dataclass
class Device:
    """Base class for anything with a name and an up/down state."""

    device_id: str
    kind: DeviceKind
    dc_index: int
    state: DeviceState = DeviceState.UP

    # Attached by the owning topology at registration; a bare Device built
    # in a test simply has no version to bump.
    _state_version: ClassVar[StateVersion | None] = None

    @property
    def is_up(self) -> bool:
        return self.state == DeviceState.UP

    def _set_state(self, state: DeviceState) -> None:
        if self.state == state:
            return
        self.state = state
        if self._state_version is not None:
            # Routes are pod to pod: only a switch's liveness can move one.
            self._state_version.bump(routing=self.kind is not DeviceKind.SERVER)

    def bring_down(self) -> None:
        self._set_state(DeviceState.DOWN)

    def bring_up(self) -> None:
        self._set_state(DeviceState.UP)

    def isolate(self) -> None:
        """Remove from live traffic rotation without powering off."""
        self._set_state(DeviceState.ISOLATED)


@dataclass
class Server(Device):
    """A physical server: one NIC, one ToR uplink.

    ``podset_index``/``pod_index`` locate it in the Clos structure;
    ``host_index`` is its position under the ToR, which the pinglist
    generation algorithm pairs across ToRs (§3.3.1: "let server i in ToRx
    ping server i in ToRy").
    """

    podset_index: int = 0
    pod_index: int = 0
    host_index: int = 0
    ip: IPv4Address = field(default_factory=lambda: IPv4Address(0))


@dataclass
class Switch(Device):
    """A switch at any tier, with SNMP counters and a reload history."""

    podset_index: int | None = None
    pod_index: int | None = None
    counters: SnmpCounters = field(default_factory=SnmpCounters)
    reload_count: int = 0

    def reload(self) -> None:
        """Power-cycle the switch.

        Reloading clears TCAM corruption (type-1/2 black-holes) per §5.1,
        but does *not* fix fabric-module bit flips (§5.2) — the fault layer
        decides which faults a reload clears.  A reload always bumps the
        state version: even an UP→UP reload changes fault state downstream.
        """
        self.reload_count += 1
        self.counters.reset()
        self.state = DeviceState.UP
        if self._state_version is not None:
            self._state_version.bump()
