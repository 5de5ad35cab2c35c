"""Hostile pinglist XML, held to the verdicts of the whole-document parser.

The agent reads nothing from the controller but pinglist XML (§3.3), and
§3.4.2 asks it to fail closed.  Every input here starts from one real
rendered 64-peer pinglist and is damaged one way: cut at every byte, one
bit flipped in the head, in a peer and in the tail, attributes and
elements duplicated or dropped, entity references good and bad, the
characters XML forbids, misplaced structure, and numbers out of range.

:func:`_reference` is the parser every verdict is measured against: the
ElementTree whole-document ``from_xml`` this suite was recorded with, its
verdicts pinned per family as (inputs, rejected, sha256 prefix).
``Pinglist.from_xml`` must agree with it on every input, or raise
:class:`PinglistParseError`, never another exception.  The one exception
to agreement: an input tagged with a form in :data:`NARROWED`, which the
reference accepts and ``from_xml`` may refuse.  The set may only shrink.
"""

from __future__ import annotations

import gc
import hashlib
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import pytest

from repro.core.controller.generator import GeneratorConfig, PingmeshGenerator
from repro.core.controller.pinglist import (
    PingParameters,
    Pinglist,
    PinglistEntry,
    PinglistParseError,
)
from repro.netsim.topology import MultiDCTopology, TopologySpec

# Forms the reference accepts and the controller never writes, which
# ``from_xml`` refuses because it reads the peers as ``<Peer .../>``
# fragments, each parsed by ElementTree on its own.
NARROWED = frozenset(
    {
        "peer-start-end-pair",  # <Peer ...></Peer>, a nested <Peer> included
        "markup-among-peers",  # comments, PIs, CDATA, text or other elements
        "raw-gt-in-peer-attribute",  # as "/>"; the renderer writes &gt;
        "peers-not-last-child",  # or a second <Peers> before the last one
        "document-type-declaration",  # its entities and defaults reach no fragment
        "namespace-outside-a-peer",  # a prefix or default declared by an ancestor
    }
)
REJECTED = "rejected"


def _reference(text: str) -> Pinglist:
    """The whole-document parser, as it stood when this suite was recorded
    (a lone surrogate, which it let escape as ``UnicodeEncodeError``, is
    counted as the rejection it should have been)."""
    try:
        root = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as exc:
        raise PinglistParseError(f"malformed XML: {exc}") from exc
    if root.tag != "Pinglist":
        raise PinglistParseError(f"unexpected root element: {root.tag!r}")
    try:
        params = root.find("Parameters")
        if params is None:
            raise PinglistParseError("missing Parameters element")
        parameters = PingParameters(
            probe_interval_s=float(params.findtext("ProbeIntervalSeconds")),
            payload_bytes=int(params.findtext("PayloadBytes")),
            timeout_s=float(params.findtext("TimeoutSeconds")),
            tcp_port_high=int(params.findtext("TcpPortHigh")),
            tcp_port_low=int(params.findtext("TcpPortLow")),
            vip_service_port=int(params.findtext("VipServicePort") or 80),
        )
        peers = root.find("Peers")
        entries = tuple(
            PinglistEntry.interned(
                peer.attrib["id"],
                peer.attrib["ip"],
                peer.attrib["purpose"],
                peer.attrib["qos"],
                int(peer.attrib.get("payloadBytes", "0")),
            )
            for peer in (peers if peers is not None else ())
        )
        return Pinglist(
            server_id=root.attrib["server"],
            generation=int(root.attrib["generation"]),
            generated_at=float(root.attrib["generatedAt"]),
            parameters=parameters,
            entries=entries,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PinglistParseError(f"invalid pinglist content: {exc}") from exc


def _verdict(parse, text: str) -> str:
    """What ``parse`` made of ``text``: the pinglist re-rendered (the wire
    is byte-identical to ElementTree's, so equal text is an equal
    pinglist), or ``REJECTED``.  Any other exception propagates."""
    try:
        return parse(text).to_xml()
    except PinglistParseError:
        return REJECTED


def _document() -> str:
    """A real controller's pinglist: 64 peers of every level, a low-QoS
    and a payload slice, and a VIP whose name needs escaping."""
    spec = TopologySpec(n_podsets=4, pods_per_podset=6, servers_per_pod=8, n_spines=4)
    topology = MultiDCTopology([spec, replace(spec, name="dc1", region="europe")])
    config = GeneratorConfig(
        max_peers_per_server=64,
        enable_qos_low=True,
        payload_every_nth_peer=3,
        vip_targets=("search.vip", "a&b<c>.vip"),
    )
    generator = PingmeshGenerator(topology, config)
    generator.note_topology_delta(None)
    server = topology.all_servers()[0].device_id
    pinglist = generator.generate_for(server, generation=7, t=1234.5)
    assert len(pinglist) == 64
    return pinglist.to_xml()


DOC = _document()
PEERS = re.findall(r"<Peer [^>]*/>", DOC)
HEAD = DOC[: DOC.index("<Peer ")]
TAIL = "</Peers></Pinglist>"
ESCAPED_PEER = next(peer for peer in PEERS if "&amp;" in peer)
assert len(PEERS) == 64 and DOC == HEAD + "".join(PEERS) + TAIL


def _peer_at(index: int, text: str) -> str:
    """``DOC`` with peer ``index`` replaced by ``text``."""
    return DOC.replace(PEERS[index], text, 1)


def _flips(region: str, start: int, value_spans=()) -> list[tuple[str, str | None]]:
    """Every single-bit flip of every character of ``region``, which sits
    at ``start`` in ``DOC``.  A flip of a peer's ``<Peer`` (which can turn
    it into text or another element) or to a raw ``>`` inside a peer
    attribute value is tagged with its form."""
    inputs = []
    for offset, char in enumerate(region):
        for bit in range(8):
            flipped = chr(ord(char) ^ (1 << bit))
            form = None
            if value_spans and offset <= 4:
                form = "markup-among-peers"
            elif flipped == ">" and any(a <= offset < b for a, b in value_spans):
                form = "raw-gt-in-peer-attribute"
            at = start + offset
            inputs.append((DOC[:at] + flipped + DOC[at + 1 :], form))
    return inputs


def _peer_flips(peer: str) -> list[tuple[str, str | None]]:
    spans = [match.span(1) for match in re.finditer(r'"([^"]*)"', peer)]
    return _flips(peer, DOC.index(peer), spans)


def _attributes() -> list[tuple[str, str | None]]:
    """Each peer attribute, root attribute and parameter dropped, and
    written twice."""
    inputs = []
    for name in ("id", "ip", "purpose", "qos", "payloadBytes"):
        attribute = re.search(rf' {name}="[^"]*"', PEERS[3]).group()
        inputs.append((_peer_at(3, PEERS[3].replace(attribute, "")), None))
        inputs.append((_peer_at(3, PEERS[3].replace(attribute, attribute * 2)), None))
    root_tag = DOC[: DOC.index(">") + 1]
    for attribute in re.findall(r' \w+="[^"]*"', root_tag):
        inputs.append((DOC.replace(attribute, "", 1), None))
        inputs.append((DOC.replace(attribute, attribute * 2, 1), None))
    for element in re.findall(r"<(\w+)>[^<]*</\1>", HEAD):
        whole = re.search(rf"<{element}>[^<]*</{element}>", HEAD).group()
        inputs.append((DOC.replace(whole, "", 1), None))
        inputs.append((DOC.replace(whole, whole.replace(">0<", ">5<") + whole, 1), None))
    inputs.append((DOC.replace(HEAD[HEAD.index("<Parameters>") :], "<Peers>", 1), None))
    return inputs


_REFERENCES = (
    "&amp;", "&lt;", "&gt;", "&quot;", "&apos;", "&#65;", "&#x41;", "&#10;",
    "&#x10FFFF;", "&#0;", "&#x0;", "&#xD800;", "&#x110000;", "&#xFFFE;", "&#-1;",
    "&foo;", "&nbsp;", "&AMP;", "&amp", "&", "&;", "&#;", "&#x;", "&#65", "&#xG;",
)
_CONTROLS = tuple(chr(c) for c in range(32)) + ("\x7f", "\x85", "\ufeff", "\ufffe", "\uffff")


def _insertions(pieces) -> list[tuple[str, str | None]]:
    """Each piece inside a peer's id and ip, the server name, a parameter's
    text, between two peers (text among them), before the root and after."""
    inputs = []
    for piece in pieces:
        inputs += [
            (_peer_at(5, PEERS[5].replace('id="', f'id="x{piece}', 1)), None),
            (_peer_at(6, PEERS[6].replace('" purpose', f'{piece}" purpose', 1)), None),
            (DOC.replace('server="', f'server="{piece}', 1), None),
            (DOC.replace("<PayloadBytes>", f"<PayloadBytes>{piece}", 1), None),
            (DOC.replace(PEERS[7], PEERS[7] + piece, 1), "markup-among-peers"),
            (piece + DOC, None),
            (DOC + piece, None),
        ]
    return inputs


def _structure() -> list[tuple[str, str | None]]:
    """Structure moved, repeated, nested or tacked on."""
    first, second = PEERS[0], PEERS[1]
    pair = first.replace(" />", "></Peer>")
    named = 'xmlns:n="urn:n"'
    return [
        (DOC.replace(TAIL, "</Peers><Peers>" + second + TAIL), "peers-not-last-child"),
        (DOC.replace("<Peers>", "<Peers>" + second + "</Peers><Peers>"), "peers-not-last-child"),
        (DOC.replace("<Peers>", "<Peers />" + "<Peers>"), "peers-not-last-child"),
        (DOC.replace(TAIL, "</Peers><Extra />" + "</Pinglist>"), "peers-not-last-child"),
        (DOC.replace("<Parameters>", f"<Peers>{second}</Peers><Parameters>"),
         "peers-not-last-child"),
        (_peer_at(0, pair), "peer-start-end-pair"),
        (_peer_at(0, first.replace(" />", ">" + second + "</Peer>")), "peer-start-end-pair"),
        (_peer_at(0, first + "<!-- a comment -->"), "markup-among-peers"),
        (_peer_at(0, first + "<?pi among peers?>"), "markup-among-peers"),
        (_peer_at(0, first + "<![CDATA[x]]>"), "markup-among-peers"),
        (_peer_at(0, first + "text"), "markup-among-peers"),
        (_peer_at(0, first.replace("<Peer ", "<Server ")), "markup-among-peers"),
        (_peer_at(0, first.replace("srv", "srv>", 1)), "raw-gt-in-peer-attribute"),
        (_peer_at(0, first.replace("srv", "srv/>", 1)), "raw-gt-in-peer-attribute"),
        ("<!DOCTYPE Pinglist>" + DOC, "document-type-declaration"),
        (
            '<!DOCTYPE Pinglist [<!ATTLIST Peer payloadBytes CDATA "7">]>'
            + DOC.replace(' payloadBytes="0"', ""),
            "document-type-declaration",
        ),
        (
            '<!DOCTYPE Pinglist [<!ENTITY e "pod">]>' + _peer_at(0, first.replace("pod", "&e;")),
            "document-type-declaration",
        ),
        (DOC.replace("<Pinglist ", f"<Pinglist {named} ").replace(" />", ' n:x="1" />', 1),
         "namespace-outside-a-peer"),
        (DOC.replace("<Peers>", '<Peers xmlns="urn:p">'), "namespace-outside-a-peer"),
        (DOC.replace(" />", f' {named} n:x="1" />', 1), None),
        (DOC.replace("<Peers>", '<Peers xmlns="">'), None),
        (DOC.replace("<Peers>", '<Peers a="1">'), None),
        (DOC.replace("<Peers>", "<Peers\n>"), None),
        (DOC.replace("<Peers>", '<Peers a="&bad;">'), None),
        (DOC.replace(" />", "/>"), None),
        (DOC.replace(" />", "\n\t/>"), None),
        (DOC.replace('" ', '"\n  ').replace("=", " = "), None),
        (DOC.replace('"', "'"), None),
        (DOC.replace(" />", ' extra="1" />'), None),
        (DOC.replace("><Peer ", ">\n  <Peer ").replace("/></Peers>", "/>\n</Peers>"), None),
        (DOC.replace("><Peer ", ">\x0b<Peer "), None),
        (_peer_at(0, first.replace(" />", "></Server>")), None),
        (_peer_at(0, first.replace("<Peer ", "<Peer")), None),
        (_peer_at(0, "<Peer/>"), None),
        (_peer_at(0, "<Peer />"), None),
        (_peer_at(0, first.replace("/>", "/ >")), None),
        (DOC.replace(TAIL, "</Peers><!-- after the peers --></Pinglist>"), None),
        (DOC.replace("<Parameters>", "<!-- <Peers> --><Parameters>"), None),
        (f"<!-- <Peers> {''.join(PEERS)} </Peers -->{DOC.replace(''.join(PEERS), '')}", None),
        (HEAD.replace("<Peers>", "") + "<Peers />" + "</Pinglist>", None),
        (HEAD.replace("<Peers>", "") + "<Peers></Peers>" + "</Pinglist>", None),
        (HEAD.replace("<Peers>", "") + "</Pinglist>", None),
        (HEAD.replace("<Peers>", "") + "<Peer " + first[6:] + "</Pinglist>", None),
        (HEAD + "".join(PEERS), None),
        (HEAD + "".join(PEERS) + "</Peers>", None),
        (DOC.replace("</Peers>", "</Peers >"), None),
        (DOC.replace("</Pinglist>", "</Pinglist\n>"), None),
        (DOC.replace("<Pinglist ", '<Pinglist xmlns="urn:p" '), None),
        ('<?xml version="1.0" encoding="utf-8"?>\n' + DOC, None),
        ('<?xml version="1.0" encoding="latin-1"?>' + DOC, None),
        ("\ufeff" + DOC, None),
        ("\n  " + DOC + "\n", None),
        (DOC + "<!-- end -->", None),
        (DOC + "<?pi end?>", None),
        (DOC + "x", None),
        (DOC + "<a/>", None),
        (DOC + "</Pinglist>", None),
        (DOC + "]]>", None),
        (DOC + DOC, None),
        (DOC.replace("Pinglist", "PingList"), None),
        (DOC.replace("<Pinglist", "<Outer><Pinglist") + "</Outer>", None),
        ("", None),
        ("<Pinglist/>", None),
    ]


_NUMBERS = (
    "-1", "0", "1", "65535", "65536", "99999999999999999999", "1.5", "1e3", "0x50",
    " 81 ", "+81", "8_1", "٨١", "", "nan", "inf", "-inf", "1e400", "-0",
)


def _numbers() -> list[tuple[str, str | None]]:
    """Negative, huge and non-integer ports, payloads, intervals and
    stamps, in the head and in a peer."""
    inputs = []
    for value in _NUMBERS:
        for element in ("TcpPortHigh", "TcpPortLow", "VipServicePort", "PayloadBytes",
                        "ProbeIntervalSeconds", "TimeoutSeconds"):
            inputs.append((re.sub(rf"<{element}>[^<]*<", f"<{element}>{value}<", DOC, 1), None))
        for attribute in ("generation", "generatedAt"):
            stamp = f'{attribute}="{value}"'
            inputs.append((re.sub(rf'{attribute}="[^"]*"', stamp, DOC, 1), None))
        payload = f'payloadBytes="{value}"'
        inputs.append((_peer_at(2, PEERS[2].replace('payloadBytes="0"', payload)), None))
    return inputs


FAMILIES = {
    "truncated": lambda: [(DOC[:end], None) for end in range(len(DOC))],
    "head-flips": lambda: _flips(HEAD, 0),
    "peer-flips": lambda: _peer_flips(PEERS[0]) + _peer_flips(ESCAPED_PEER),
    "tail-flips": lambda: _flips(TAIL, len(DOC) - len(TAIL)),
    "attributes": _attributes,
    "entities": lambda: _insertions(_REFERENCES),
    "controls": lambda: _insertions(_CONTROLS),
    "structure": _structure,
    "numbers": _numbers,
}

# Per family, the reference's verdicts: (inputs, rejected, sha256 prefix of
# the verdicts joined by newlines).
PINNED = {
    "attributes": (29, 21, "14b8430f963dee04"),
    "controls": (259, 224, "ec3259d5becee090"),
    "entities": (175, 138, "a23c0eb9bd1dc352"),
    "head-flips": (2488, 2300, "ec0a8a09716ebea2"),
    "numbers": (171, 74, "625ffb9b02ca5c7e"),
    "peer-flips": (1560, 1009, "86ae37d37c1d3636"),
    "structure": (63, 19, "cbd3ff33130d05bb"),
    "tail-flips": (152, 152, "36b83c67cf58f03e"),
    "truncated": (6378, 6378, "cb1dd45f77fb361e"),
}


def _pin(verdicts: list[str]) -> tuple[int, int, str]:
    digest = hashlib.sha256("\n".join(verdicts).encode("utf-8", "surrogatepass")).hexdigest()
    return len(verdicts), verdicts.count(REJECTED), digest[:16]


def test_the_document_round_trips():
    assert Pinglist.from_xml(DOC).to_xml() == DOC == _reference(DOC).to_xml()


def test_the_fragment_table_does_not_outlive_its_entries():
    from repro.core.controller import pinglist as module

    piece = '<Peer id="only-here" ip="10.9.9.9" purpose="vip" qos="low" payloadBytes="77" '
    parsed = Pinglist.from_xml(_peer_at(0, piece + "/>"))
    assert module._FRAGMENTS[piece] is parsed.entries[0]
    del parsed
    gc.collect()
    assert piece not in module._FRAGMENTS


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_hostile_inputs_get_the_reference_verdict(family):
    inputs = FAMILIES[family]()
    expected = [_verdict(_reference, text) for text, _form in inputs]
    assert _pin(expected) == PINNED[family]
    for (text, form), reference in zip(inputs, expected):
        got = _verdict(Pinglist.from_xml, text)
        if got != reference:
            assert got == REJECTED and form in NARROWED, (form, text)


@pytest.mark.parametrize("form", sorted(NARROWED))
def test_every_narrowed_form_is_one_the_reference_accepts(form):
    """Each form names inputs the reference reads as a pinglist."""
    tagged = [text for text, tag in _structure() if tag == form]
    assert tagged and all(_verdict(_reference, text) != REJECTED for text in tagged)


def test_a_lone_surrogate_is_rejected():
    for text, _form in _insertions(("\ud800",)):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(text)


def test_the_narrowed_set_only_shrinks():
    assert NARROWED <= {
        "peer-start-end-pair",
        "markup-among-peers",
        "raw-gt-in-peer-attribute",
        "peers-not-last-child",
        "document-type-declaration",
        "namespace-outside-a-peer",
    }
