"""Tests for pinglist models and XML round-tripping.

``to_xml`` assembles memoised fragments instead of building an element
tree; the ElementTree renderer it replaced lives on here
(:func:`_reference_xml`) and the wire is held to it byte for byte.
"""

import gc
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.controller.pinglist import (
    VALID_PURPOSES,
    VALID_QOS,
    PingParameters,
    Pinglist,
    PinglistEntry,
    PinglistParseError,
)


def _reference_xml(pinglist: Pinglist) -> str:
    """The wire format's definition: what ``Pinglist.to_xml`` was."""
    root = ET.Element(
        "Pinglist",
        {
            "server": pinglist.server_id,
            "generation": str(pinglist.generation),
            "generatedAt": repr(pinglist.generated_at),
        },
    )
    parameters = pinglist.parameters
    params = ET.SubElement(root, "Parameters")
    ET.SubElement(params, "ProbeIntervalSeconds").text = repr(parameters.probe_interval_s)
    ET.SubElement(params, "PayloadBytes").text = str(parameters.payload_bytes)
    ET.SubElement(params, "TimeoutSeconds").text = repr(parameters.timeout_s)
    ET.SubElement(params, "TcpPortHigh").text = str(parameters.tcp_port_high)
    ET.SubElement(params, "TcpPortLow").text = str(parameters.tcp_port_low)
    ET.SubElement(params, "VipServicePort").text = str(parameters.vip_service_port)
    peers = ET.SubElement(root, "Peers")
    for entry in pinglist.entries:
        ET.SubElement(
            peers,
            "Peer",
            {
                "id": entry.peer_id,
                "ip": entry.peer_ip,
                "purpose": entry.purpose,
                "qos": entry.qos,
                "payloadBytes": str(entry.payload_bytes),
            },
        )
    return ET.tostring(root, encoding="unicode")


# Names as the wire may carry them: XML's five specials, the whitespace an
# attribute value would otherwise lose, non-ASCII — anything XML 1.0 allows.
_xml_chars = st.characters(
    blacklist_categories=("Cs",),
    blacklist_characters=[chr(c) for c in range(32) if chr(c) not in "\t\n\r"]
    + ["\ufffe", "\uffff"],
)
_names = st.one_of(
    st.text(alphabet="&<>\"' \t\n\rab\u00e9\u4e2d", max_size=12),
    st.text(alphabet=_xml_chars, max_size=20),
)
_entries = st.builds(
    PinglistEntry,
    peer_id=_names,
    peer_ip=_names,
    purpose=st.sampled_from(VALID_PURPOSES),
    qos=st.sampled_from(VALID_QOS),
    payload_bytes=st.one_of(st.just(0), st.integers(min_value=0, max_value=70_000)),
)
_pinglists = st.builds(
    Pinglist,
    server_id=_names,
    generation=st.integers(min_value=0, max_value=10**9),
    generated_at=st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    parameters=st.builds(
        PingParameters,
        probe_interval_s=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
        payload_bytes=st.integers(min_value=0, max_value=65_536),
        timeout_s=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        tcp_port_high=st.integers(min_value=1, max_value=65_535),
        tcp_port_low=st.integers(min_value=1, max_value=65_535),
        vip_service_port=st.integers(min_value=1, max_value=65_535),
    ),
    entries=st.lists(_entries, max_size=12),
)


def _pinglist(entries=None, **params):
    return Pinglist(
        server_id="dc0/ps0/pod0/srv0",
        generation=3,
        generated_at=123.5,
        parameters=PingParameters(**params),
        entries=entries
        or [
            PinglistEntry("dc0/ps0/pod0/srv1", "10.0.0.2", "intra-pod"),
            PinglistEntry("dc0/ps0/pod1/srv0", "10.0.0.9", "tor-level"),
            PinglistEntry("dc1/ps0/pod0/srv0", "11.0.0.1", "inter-dc", qos="low"),
            PinglistEntry(
                "dc0/ps1/pod4/srv0", "10.0.0.33", "tor-level", payload_bytes=1000
            ),
        ],
    )


class TestModels:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            PingParameters(probe_interval_s=0)
        with pytest.raises(ValueError):
            PingParameters(payload_bytes=-1)
        with pytest.raises(ValueError):
            PingParameters(tcp_port_high=0)

    def test_port_for_qos(self):
        params = PingParameters(tcp_port_high=81, tcp_port_low=82)
        assert params.port_for("high") == 81
        assert params.port_for("low") == 82
        with pytest.raises(ValueError):
            params.port_for("mid")

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", purpose="warp")
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", qos="medium")
        with pytest.raises(ValueError):
            PinglistEntry("x", "10.0.0.1", payload_bytes=-5)

    def test_len_and_purpose_filter(self):
        pinglist = _pinglist()
        assert len(pinglist) == 4
        assert len(pinglist.peers_by_purpose("tor-level")) == 2
        assert len(pinglist.peers_by_purpose("vip")) == 0
        with pytest.raises(ValueError):
            pinglist.peers_by_purpose("nothing")

    def test_entries_are_frozen_on_construction(self):
        """A pinglist shares its entries with the generator's memo and with
        every other holder of the generation: the caller's list is copied
        into a tuple, and there is nothing to append to."""
        mine = [PinglistEntry("a", "10.0.0.1"), PinglistEntry("b", "10.0.0.2")]
        pinglist = _pinglist(entries=mine)
        mine.append(PinglistEntry("c", "10.0.0.3"))
        assert isinstance(pinglist.entries, tuple) and len(pinglist) == 2
        assert not hasattr(pinglist.entries, "append")


class TestInterning:
    def test_equal_values_are_one_object(self):
        a = PinglistEntry.interned("x", "10.0.0.1", "intra-pod")
        b = PinglistEntry.interned("x", "10.0.0.1", "intra-pod", "high", 0)
        assert a is b
        assert a == PinglistEntry("x", "10.0.0.1", "intra-pod")
        assert a is not PinglistEntry.interned("x", "10.0.0.1", "intra-pod", "low")

    def test_interning_validates_like_construction(self):
        PinglistEntry.interned("x", "10.0.0.1")  # a valid neighbour in the table
        with pytest.raises(ValueError):
            PinglistEntry.interned("x", "10.0.0.1", purpose="warp")
        with pytest.raises(ValueError):
            PinglistEntry.interned("x", "10.0.0.1", qos="medium")
        with pytest.raises(ValueError):
            PinglistEntry.interned("x", "10.0.0.1", payload_bytes=-5)

    def test_the_table_does_not_outlive_its_entries(self):
        from repro.core.controller import pinglist as module

        key = ("only-here", "10.9.9.9", "vip", "low", 77)
        entry = PinglistEntry.interned(*key)
        assert module._INTERNED[key] is entry
        del entry
        gc.collect()
        assert key not in module._INTERNED


class TestXmlRoundTrip:
    def test_roundtrip_preserves_everything(self):
        original = _pinglist(probe_interval_s=30.0, payload_bytes=0)
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.server_id == original.server_id
        assert parsed.generation == original.generation
        assert parsed.generated_at == original.generated_at
        assert parsed.parameters == original.parameters
        assert parsed.entries == original.entries

    def test_empty_pinglist_roundtrip(self):
        original = _pinglist(entries=[])
        original.entries = []
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.entries == ()

    def test_xml_is_standard_and_humanish(self):
        xml = _pinglist().to_xml()
        assert xml.startswith("<Pinglist")
        assert "<Peers>" in xml
        assert 'purpose="inter-dc"' in xml

    def test_malformed_xml_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml("<Pinglist><unclosed>")

    def test_wrong_root_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml("<NotAPinglist/>")

    def test_missing_parameters_rejected(self):
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(
                '<Pinglist server="s" generation="1" generatedAt="0.0"><Peers/></Pinglist>'
            )

    def test_bad_attribute_types_rejected(self):
        xml = _pinglist().to_xml().replace('generation="3"', 'generation="three"')
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(xml)

    @pytest.mark.parametrize(
        "good,bad",
        [
            ('purpose="tor-level"', 'purpose="warp"'),
            ('qos="high"', 'qos="medium"'),
            ('payloadBytes="1000"', 'payloadBytes="-1000"'),
            ('payloadBytes="1000"', 'payloadBytes="1e3"'),
            (' ip="10.0.0.33"', ""),
        ],
    )
    def test_invalid_peer_rejected_beside_its_interned_twin(self, good, bad):
        """Parsing the valid document first puts every one of its entries
        in the intern table; a peer that differs from one of them only in
        the invalid attribute must still be refused."""
        xml = _pinglist().to_xml()
        assert Pinglist.from_xml(xml).entries == _pinglist().entries
        assert good in xml
        with pytest.raises(PinglistParseError):
            Pinglist.from_xml(xml.replace(good, bad))

    @given(_pinglists)
    def test_wire_is_byte_identical_to_elementtree(self, pinglist):
        assert pinglist.to_xml() == _reference_xml(pinglist)

    @given(_pinglists)
    def test_roundtrip_is_identity(self, pinglist):
        assert Pinglist.from_xml(pinglist.to_xml()) == pinglist

    @given(_pinglists)
    def test_equal_attributes_parse_to_the_same_entry_object(self, pinglist):
        xml = pinglist.to_xml()
        first, second = Pinglist.from_xml(xml), Pinglist.from_xml(xml)
        assert all(a is b for a, b in zip(first.entries, second.entries))
        by_value = {}
        for entry in first.entries:
            assert by_value.setdefault(entry, entry) is entry

    def test_every_purpose_and_qos_on_the_wire(self):
        entries = [
            PinglistEntry(f"s{i}", "10.0.0.1", purpose, qos, payload)
            for i, (purpose, qos, payload) in enumerate(
                (p, q, b) for p in VALID_PURPOSES for q in VALID_QOS for b in (0, 900)
            )
        ]
        pinglist = _pinglist(entries=entries)
        assert pinglist.to_xml() == _reference_xml(pinglist)
        assert Pinglist.from_xml(pinglist.to_xml()) == pinglist

    def test_empty_peer_list_on_the_wire(self):
        pinglist = _pinglist()
        pinglist.entries = ()
        assert pinglist.to_xml() == _reference_xml(pinglist)
        assert pinglist.to_xml().endswith("<Peers /></Pinglist>")

    @given(
        st.floats(min_value=1.0, max_value=3600.0, allow_nan=False),
        st.integers(min_value=0, max_value=65_536),
        st.integers(min_value=0, max_value=500),
    )
    def test_roundtrip_property(self, interval, payload, n_peers):
        entries = [
            PinglistEntry(f"srv{i}", f"10.0.{i // 256}.{i % 256 or 1}", "tor-level")
            for i in range(min(n_peers, 40))
        ]
        original = Pinglist(
            server_id="s",
            generation=1,
            generated_at=0.0,
            parameters=PingParameters(
                probe_interval_s=interval, payload_bytes=payload
            ),
            entries=entries,
        )
        parsed = Pinglist.from_xml(original.to_xml())
        assert parsed.parameters.probe_interval_s == interval
        assert len(parsed.entries) == len(entries)


class TestParserRobustness:
    @given(st.text(max_size=300))
    def test_arbitrary_text_never_crashes_the_parser(self, text):
        """Fuzz: any input either parses or raises PinglistParseError."""
        try:
            Pinglist.from_xml(text)
        except PinglistParseError:
            pass

    @given(st.text(alphabet="<>/ab \"'=", max_size=120))
    def test_tag_soup_never_crashes_the_parser(self, soup):
        try:
            Pinglist.from_xml("<Pinglist" + soup)
        except PinglistParseError:
            pass
