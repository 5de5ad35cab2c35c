"""Pinglist files: the controller↔agent contract (§3.3, §6.2).

"Pingmesh Controller and Pingmesh Agent interact only through the pinglist
files, which are standard XML files, via standard Web API."  That loose
coupling is credited for Pingmesh's easy evolution, so we keep it literal:
pinglists are XML both ways and the agent never sees controller internals,
though it reads only the standard XML the controller writes (see below).

A pinglist carries the peers one server must probe, each tagged with the
level of the complete-graph design it came from (intra-pod, ToR-level,
inter-DC, or VIP monitoring) and a QoS class, plus the ping parameters
(probe interval, payload size, destination ports per class).

The XML stays the only contract in-process too, and it is kept cheap by
structure rather than bypassed.  §3.3.1's graphs repeat one peer in many
pinglists (4,096 servers with 64 peers each name 8,192 distinct entries),
so entries are immutable and *interned*: :meth:`PinglistEntry.interned`
hands out one object per distinct value for as long as any pinglist holds
it, and an entry renders its ``<Peer/>`` element once
(:attr:`PinglistEntry.xml`).  ``to_xml`` joins those fragments behind a
per-:class:`PingParameters` head — byte for byte what
``xml.etree.ElementTree`` would write, which ``tests/core/test_pinglist.py``
keeps as the reference renderer.

``from_xml`` takes what the controller writes (``<Peers>`` last, holding
only ``<Peer .../>`` elements and whitespace; ``test_pinglist_hostile.py``
lists the standard XML it refuses).  ElementTree parses the rest of the
document once and each distinct peer fragment once, kept under its text in
a weak-valued table that lets an entry go with its last pinglist.
"""

from __future__ import annotations

import re
import weakref
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from functools import cached_property

__all__ = ["PingParameters", "PinglistEntry", "Pinglist", "PinglistParseError"]

# Purposes, one per complete-graph level (§3.3.1) plus VIP monitoring (§6.2).
VALID_PURPOSES = ("intra-pod", "tor-level", "inter-dc", "vip")
# QoS classes introduced for DSCP-differentiated probing (§6.2).
VALID_QOS = ("high", "low")


# ElementTree's attribute escaping, as one translation table.
_ATTRIBUTE_ESCAPES = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\r": "&#13;",
        "\n": "&#10;",
        "\t": "&#09;",
    }
)


class PinglistParseError(Exception):
    """The XML was not a well-formed pinglist."""


@dataclass(frozen=True)
class PingParameters:
    """How the agent should probe (controller-chosen, §3.3.1).

    ``probe_interval_s`` must respect the agent's hard-coded 10 s minimum;
    the agent clamps regardless (defense in depth, §3.4.2).
    """

    probe_interval_s: float = 60.0
    payload_bytes: int = 0
    timeout_s: float = 9.0
    tcp_port_high: int = 81
    tcp_port_low: int = 82
    # §6.2: a VIP is probed on its service port, not the mesh probe ports —
    # the point is reachability of the *service* behind the SLB.
    vip_service_port: int = 80

    def __post_init__(self) -> None:
        if self.probe_interval_s <= 0:
            raise ValueError(f"probe interval must be positive: {self.probe_interval_s}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be >= 0: {self.payload_bytes}")
        for port in (self.tcp_port_high, self.tcp_port_low, self.vip_service_port):
            if not 0 < port <= 65_535:
                raise ValueError(f"port out of range: {port}")

    def port_for(self, qos: str, purpose: str = "tor-level") -> int:
        if purpose == "vip":
            return self.vip_service_port
        if qos == "high":
            return self.tcp_port_high
        if qos == "low":
            return self.tcp_port_low
        raise ValueError(f"unknown qos class: {qos!r}")

    @cached_property
    def xml(self) -> str:
        """The ``<Parameters>`` element, rendered once per object."""
        return (
            "<Parameters>"
            f"<ProbeIntervalSeconds>{self.probe_interval_s!r}</ProbeIntervalSeconds>"
            f"<PayloadBytes>{self.payload_bytes}</PayloadBytes>"
            f"<TimeoutSeconds>{self.timeout_s!r}</TimeoutSeconds>"
            f"<TcpPortHigh>{self.tcp_port_high}</TcpPortHigh>"
            f"<TcpPortLow>{self.tcp_port_low}</TcpPortLow>"
            f"<VipServicePort>{self.vip_service_port}</VipServicePort>"
            "</Parameters>"
        )


@dataclass(frozen=True)
class PinglistEntry:
    """One peer to probe.

    Immutable, so one object can stand in every pinglist that names the
    peer: what is derived from the fields alone (:attr:`xml`, :attr:`tag`)
    is computed once per object and shared with it.
    """

    peer_id: str
    peer_ip: str
    purpose: str = "tor-level"
    qos: str = "high"
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.purpose not in VALID_PURPOSES:
            raise ValueError(f"unknown purpose: {self.purpose!r}")
        if self.qos not in VALID_QOS:
            raise ValueError(f"unknown qos: {self.qos!r}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be >= 0: {self.payload_bytes}")

    @classmethod
    def interned(
        cls,
        peer_id: str,
        peer_ip: str,
        purpose: str = "tor-level",
        qos: str = "high",
        payload_bytes: int = 0,
    ) -> "PinglistEntry":
        """The one shared entry with these values, validated when created.

        A hit returns an object that passed ``__post_init__`` under equal
        values, so interning never admits what construction would reject.
        """
        key = (peer_id, peer_ip, purpose, qos, payload_bytes)
        entry = _INTERNED.get(key)
        if entry is None:
            entry = _INTERNED[key] = cls(*key)
        return entry

    @cached_property
    def xml(self) -> str:
        """The ``<Peer/>`` element, rendered once per object."""
        escapes = _ATTRIBUTE_ESCAPES
        return (
            f'<Peer id="{self.peer_id.translate(escapes)}"'
            f' ip="{self.peer_ip.translate(escapes)}"'
            f' purpose="{self.purpose}" qos="{self.qos}"'
            f' payloadBytes="{self.payload_bytes}" />'
        )

    @cached_property
    def tag(self) -> tuple[str, str]:
        """``(purpose, qos)``, as probe rounds label their results."""
        return (self.purpose, self.qos)

    def probe_entry(self, port: int, payload_bytes: int) -> tuple[str, int, int]:
        """``(peer_id, port, payload_bytes)``, as the probe engines take it.

        The last triple built is kept, so every agent probing this entry
        under one configuration holds the same tuple.
        """
        kept = self.__dict__.get("_probe_entry")
        if kept is None or kept[1] != port or kept[2] != payload_bytes:
            kept = self.__dict__["_probe_entry"] = (self.peer_id, port, payload_bytes)
        return kept


# Weak-valued: an entry lives exactly as long as a pinglist (or a generator
# memo) holds it, so neither table can grow across systems or generations.
_INTERNED: "weakref.WeakValueDictionary[tuple, PinglistEntry]" = (
    weakref.WeakValueDictionary()
)
# The entry each ``<Peer .../>`` fragment parsed to, by its text up to "/>".
_FRAGMENTS: "weakref.WeakValueDictionary[str, PinglistEntry]" = weakref.WeakValueDictionary()
# Its lookup at C level: the backing dict's weak reference, or a stand-in
# that, called like a dead reference, gives None.
_ref = _FRAGMENTS.data.get
_DEAD = type(None)
_PEERS_START = re.compile(r"<Peers(?:[ \t\r\n][^<>]*)?>")
_PEER_START = re.compile(r"[ \t\r\n]*<Peer[ \t\r\n]")


@dataclass
class Pinglist:
    """A full pinglist for one server.

    ``entries`` is a tuple: the generator's memo, every replica's rendering
    and every agent's parse of a generation share entry objects (and the
    memo shares the tuple itself), so nothing a holder does may alter it.
    """

    server_id: str
    generation: int
    generated_at: float
    parameters: PingParameters = field(default_factory=PingParameters)
    entries: tuple[PinglistEntry, ...] = ()

    def __post_init__(self) -> None:
        self.entries = tuple(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def peers_by_purpose(self, purpose: str) -> list[PinglistEntry]:
        if purpose not in VALID_PURPOSES:
            raise ValueError(f"unknown purpose: {purpose!r}")
        return [entry for entry in self.entries if entry.purpose == purpose]

    # -- XML serialization ---------------------------------------------------

    def to_xml(self) -> str:
        escapes = _ATTRIBUTE_ESCAPES
        head = (
            f'<Pinglist server="{self.server_id.translate(escapes)}"'
            f' generation="{str(self.generation).translate(escapes)}"'
            f' generatedAt="{repr(self.generated_at).translate(escapes)}">'
            f"{self.parameters.xml}"
        )
        if not self.entries:
            return head + "<Peers /></Pinglist>"
        peers = "".join([entry.xml for entry in self.entries])
        return f"{head}<Peers>{peers}</Peers></Pinglist>"

    @classmethod
    def from_xml(cls, text: str) -> "Pinglist":
        close = text.rfind("</Peers")
        start = text.rfind("<Peers", 0, max(close, 0))
        head, pieces = text, []
        try:
            if start >= 0:  # the last <Peers ...> start tag before the last </Peers
                opened = _PEERS_START.match(text, start)
                if opened is None:
                    raise PinglistParseError("malformed <Peers> start tag")
                # Every peer ends in "/>", and only XML whitespace follows the last.
                *pieces, rest = text[opened.end():close].split("/>")
                if rest.strip(" \t\r\n") or "<!DOCTYPE" in text[:start]:
                    raise PinglistParseError("Peers holds more than <Peer .../> elements")
                # The marker proves the peers were the content of an element.
                head = f"{text[:opened.end()]}<_/>{text[close:]}"
            root = ET.fromstring(head)
        except (ET.ParseError, UnicodeEncodeError) as exc:
            raise PinglistParseError(f"malformed XML: {exc}") from exc
        if root.tag != "Pinglist":
            raise PinglistParseError(f"unexpected root element: {root.tag!r}")
        try:
            peers = root.find("Peers")
            if start >= 0 and (
                peers is None or peers is not root[-1] or [el.tag for el in peers] != ["_"]
            ):
                raise PinglistParseError("Peers is not the root's last child")
            params_el = root.find("Parameters")
            if params_el is None:
                raise PinglistParseError("missing Parameters element")
            parameters = PingParameters(
                probe_interval_s=float(params_el.findtext("ProbeIntervalSeconds")),
                payload_bytes=int(params_el.findtext("PayloadBytes")),
                timeout_s=float(params_el.findtext("TimeoutSeconds")),
                tcp_port_high=int(params_el.findtext("TcpPortHigh")),
                tcp_port_low=int(params_el.findtext("TcpPortLow")),
                # Absent in pinglists from older controllers: keep the default.
                vip_service_port=int(params_el.findtext("VipServicePort") or 80),
            )
            return cls(
                server_id=root.attrib["server"],
                generation=int(root.attrib["generation"]),
                generated_at=float(root.attrib["generatedAt"]),
                parameters=parameters,
                entries=tuple([_ref(piece, _DEAD)() or _parse_peer(piece) for piece in pieces]),
            )
        except (ET.ParseError, KeyError, TypeError, ValueError) as exc:
            raise PinglistParseError(f"invalid pinglist content: {exc}") from exc


def _parse_peer(piece: str) -> PinglistEntry:
    """ElementTree's reading of the element ``piece + "/>"``, validated and
    kept under ``piece`` for as long as a pinglist holds the entry."""
    if _PEER_START.match(piece) is None:
        raise PinglistParseError(f"not a <Peer .../> element: {piece!r}")
    peer = ET.fromstring(piece + "/>").attrib
    payload = int(peer.get("payloadBytes", "0"))
    entry = PinglistEntry.interned(peer["id"], peer["ip"], peer["purpose"], peer["qos"], payload)
    return _FRAGMENTS.setdefault(piece, entry)
