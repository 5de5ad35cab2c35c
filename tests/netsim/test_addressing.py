"""Tests for IPv4 addressing, five-tuples and port allocation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netsim.addressing import (
    EPHEMERAL_PORT_MAX,
    EPHEMERAL_PORT_MIN,
    PROTO_TCP,
    PROTO_UDP,
    EphemeralPortAllocator,
    FiveTuple,
    IPv4Address,
    ecmp_hash_many,
)


class TestIPv4Address:

    def test_value_bounds(self):
        with pytest.raises(ValueError):
            IPv4Address(-1)
        with pytest.raises(ValueError):
            IPv4Address(2**32)
        assert str(IPv4Address(0xFFFFFFFF)) == "255.255.255.255"

    def test_hashable_and_ordered(self):
        a = IPv4Address(0x0A000001)
        b = IPv4Address(0x0A000002)
        assert a < b
        assert len({a, b, IPv4Address(0x0A000001)}) == 2

    def test_int_conversion(self):
        assert int(IPv4Address(256)) == 256


def _tuple(src_port=50_000, dst_port=80, proto=PROTO_TCP):
    return FiveTuple(
        src_ip=IPv4Address(0x0A000001),
        src_port=src_port,
        dst_ip=IPv4Address(0x0A000002),
        dst_port=dst_port,
        protocol=proto,
    )


class TestFiveTuple:
    def test_reversed_swaps_endpoints(self):
        flow = _tuple()
        back = flow.reversed()
        assert back.src_ip == flow.dst_ip
        assert back.dst_ip == flow.src_ip
        assert back.src_port == flow.dst_port
        assert back.dst_port == flow.src_port
        assert back.protocol == flow.protocol

    def test_double_reverse_is_identity(self):
        flow = _tuple()
        assert flow.reversed().reversed() == flow

    def test_rejects_bad_ports(self):
        with pytest.raises(ValueError):
            _tuple(src_port=0)
        with pytest.raises(ValueError):
            _tuple(dst_port=70_000)

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError):
            _tuple(proto=1)  # ICMP is deliberately unsupported (§3.4.1)

    def test_udp_allowed(self):
        assert _tuple(proto=PROTO_UDP).protocol == PROTO_UDP

    def test_ecmp_hash_is_deterministic(self):
        assert _tuple().ecmp_hash() == _tuple().ecmp_hash()

    def test_ecmp_hash_varies_with_salt(self):
        flow = _tuple()
        hashes = {flow.ecmp_hash(salt) for salt in range(16)}
        assert len(hashes) > 8

    def test_ecmp_hash_varies_with_source_port(self):
        hashes = {_tuple(src_port=p).ecmp_hash() for p in range(50_000, 50_064)}
        assert len(hashes) > 48  # near-perfect dispersion over 64 ports

    def test_str_format(self):
        assert str(_tuple()) == "10.0.0.1:50000->10.0.0.2:80/tcp"

    @given(
        st.integers(min_value=1, max_value=65_535),
        st.integers(min_value=1, max_value=65_535),
    )
    def test_hash_depends_on_both_ports(self, sport, dport):
        base = _tuple(src_port=sport, dst_port=dport).ecmp_hash()
        other_sport = sport % 65_535 + 1
        if other_sport != sport:
            assert _tuple(src_port=other_sport, dst_port=dport).ecmp_hash() != base


_ports = st.integers(min_value=1, max_value=65_535)
_words32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


class TestEcmpHashMany:
    @given(
        flows=st.lists(
            st.tuples(
                _words32, _ports, _words32, _ports,
                st.sampled_from((PROTO_TCP, PROTO_UDP)),
                # Any 64-bit salt: the multiplicative mix wraps on almost
                # every step whatever the salt, the extremes included.
                st.one_of(
                    st.integers(min_value=0, max_value=(1 << 64) - 1),
                    st.sampled_from((0, (1 << 64) - 1, 0x1EAF, 0xD1EAF)),
                ),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_the_scalar_hash(self, flows):
        src_ip, src_port, dst_ip, dst_port, protocol, salt = zip(*flows)
        hashed = ecmp_hash_many(src_ip, src_port, dst_ip, dst_port, protocol, salt)
        assert hashed.tolist() == [
            FiveTuple(IPv4Address(a), sport, IPv4Address(b), dport, proto).ecmp_hash(salt)
            for a, sport, b, dport, proto, salt in flows
        ]

    def test_arguments_broadcast(self):
        """One flow against a column of salts, as a path's tiers hash it."""
        flow = _tuple()
        salts = [0x1EAF, 0x59135, 0xD1EAF]
        hashed = ecmp_hash_many(
            flow.src_ip.value, [flow.src_port], flow.dst_ip.value, flow.dst_port,
            flow.protocol, salts,
        )
        assert hashed.tolist() == [flow.ecmp_hash(salt) for salt in salts]


class TestEphemeralPortAllocator:
    def test_allocates_distinct_ports(self):
        allocator = EphemeralPortAllocator()
        ports = [allocator.allocate() for _ in range(1000)]
        assert len(set(ports)) == 1000
        assert all(EPHEMERAL_PORT_MIN <= p <= EPHEMERAL_PORT_MAX for p in ports)

    def test_wraps_around_at_range_end(self):
        allocator = EphemeralPortAllocator(start=EPHEMERAL_PORT_MAX)
        assert allocator.allocate() == EPHEMERAL_PORT_MAX
        assert allocator.allocate() == EPHEMERAL_PORT_MIN

    def test_rejects_start_outside_range(self):
        with pytest.raises(ValueError):
            EphemeralPortAllocator(start=80)
