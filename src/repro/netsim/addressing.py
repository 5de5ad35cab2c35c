"""IPv4 addressing and TCP/UDP five-tuples.

The simulator assigns every server a deterministic IPv4 address derived from
its position in the topology (data center, podset, pod, host index).  ECMP
next-hop selection hashes the five-tuple, mirroring production switch
behaviour (§2.1 of the paper): "ECMP uses the hash value of the TCP/UDP
five-tuple for next hop selection."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "IPv4Address",
    "FiveTuple",
    "ecmp_hash_many",
    "EphemeralPortAllocator",
    "PROTO_TCP",
    "PROTO_UDP",
    "EPHEMERAL_PORT_MIN",
    "EPHEMERAL_PORT_MAX",
]

PROTO_TCP = 6
PROTO_UDP = 17

# Windows-style dynamic port range, matching the production agent's behaviour
# of drawing a fresh source port for every probe.
EPHEMERAL_PORT_MIN = 49_152
EPHEMERAL_PORT_MAX = 65_535

# The ECMP hash's mix (FNV-1a's offset basis and prime), shared by
# FiveTuple.ecmp_hash and its array form.
_HASH_SEED = 0xCBF29CE484222325
_HASH_PRIME = 0x100000001B3


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address stored as a 32-bit integer.

    Using a frozen dataclass keeps addresses hashable (they key routing and
    fault tables) while staying cheap to construct in bulk.
    """

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.value:#x}")

    def __str__(self) -> str:
        # Memoized: pinglist generation stringifies every peer IP of every
        # server (millions of calls at 64k servers), always for the same
        # few-thousand distinct addresses.
        text = self.__dict__.get("_text")
        if text is None:
            v = self.value
            text = f"{(v >> 24) & 0xFF}.{(v >> 16) & 0xFF}.{(v >> 8) & 0xFF}.{v & 0xFF}"
            object.__setattr__(self, "_text", text)
        return text

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class FiveTuple:
    """A TCP/UDP five-tuple: (src ip, src port, dst ip, dst port, protocol)."""

    src_ip: IPv4Address
    src_port: int
    dst_ip: IPv4Address
    dst_port: int
    protocol: int = PROTO_TCP

    def __post_init__(self) -> None:
        for port in (self.src_port, self.dst_port):
            if not 0 < port <= 65_535:
                raise ValueError(f"port out of range: {port}")
        if self.protocol not in (PROTO_TCP, PROTO_UDP):
            raise ValueError(f"unsupported protocol: {self.protocol}")

    def reversed(self) -> "FiveTuple":
        """The five-tuple of reply packets on this flow."""
        return FiveTuple(
            src_ip=self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def ecmp_hash(self, salt: int = 0) -> int:
        """A stable 64-bit hash of the five-tuple for ECMP next-hop choice.

        A Fibonacci-style multiplicative mix: cheap, well distributed, and —
        critically for reproducibility — independent of ``PYTHONHASHSEED``.
        ``salt`` lets each switch tier hash differently, as real fabrics
        salt per-switch to avoid ECMP polarization.
        """
        h = _HASH_SEED ^ (salt & 0xFFFFFFFFFFFFFFFF)
        for word in (
            self.src_ip.value,
            self.dst_ip.value,
            (self.src_port << 16) | self.dst_port,
            self.protocol,
        ):
            h ^= word
            h = (h * _HASH_PRIME) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 29
        return h

    def __str__(self) -> str:
        proto = "tcp" if self.protocol == PROTO_TCP else "udp"
        return (
            f"{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}/{proto}"
        )


def ecmp_hash_many(src_ip, src_port, dst_ip, dst_port, protocol, salt) -> np.ndarray:
    """:meth:`FiveTuple.ecmp_hash` of many flows at once, as ``uint64``.

    Every argument is an array (or a number) of the five-tuple field it is
    named after, ``src_ip`` / ``dst_ip`` as 32-bit values and ``salt``
    below 2**64; they broadcast against each other.  ``uint64`` arithmetic
    wraps where the scalar hash masks, so the two agree bit for bit.
    """
    u64 = np.uint64
    src_port, dst_port = np.asarray(src_port, dtype=u64), np.asarray(dst_port, dtype=u64)
    h = u64(_HASH_SEED) ^ np.asarray(salt, dtype=u64)
    for word in (src_ip, dst_ip, (src_port << u64(16)) | dst_port, protocol):
        h = (h ^ np.asarray(word, dtype=u64)) * u64(_HASH_PRIME)
        h = h ^ (h >> u64(29))
    return h


class EphemeralPortAllocator:
    """Rotates through the ephemeral port range, one port per probe.

    The production agent opens a *new* connection with a *new* source port
    for every probe so that the probes sweep ECMP paths (§3.4.1).  A simple
    rotating counter reproduces that sweep deterministically.

    The range is finite — ``EPHEMERAL_PORT_MIN``..``EPHEMERAL_PORT_MAX``
    (16384 ports) — so allocation wraps: probe ``n`` and probe ``n + 16384``
    carry the same source port, hence the same five-tuple hash, hence the
    same ECMP bucket.  The sweep therefore revisits a *fixed, finite* set of
    paths per pair, which is what lets the router cache paths per
    ``(src, dst, ecmp_bucket)`` without unbounded growth.
    """

    def __init__(self, start: int = EPHEMERAL_PORT_MIN) -> None:
        if not EPHEMERAL_PORT_MIN <= start <= EPHEMERAL_PORT_MAX:
            raise ValueError(f"start port outside ephemeral range: {start}")
        self._next = start

    def allocate(self) -> int:
        port = self._next
        self._next += 1
        if self._next > EPHEMERAL_PORT_MAX:
            self._next = EPHEMERAL_PORT_MIN
        return port

    def allocate_many(self, k: int) -> Sequence[int]:
        """The ports ``k`` calls of :meth:`allocate` would return, in order
        (a ``range`` unless the block crosses the wrap)."""
        start = self._next
        span = EPHEMERAL_PORT_MAX - EPHEMERAL_PORT_MIN + 1
        offset = start - EPHEMERAL_PORT_MIN
        self._next = EPHEMERAL_PORT_MIN + (offset + k) % span
        if offset + k <= span:
            return range(start, start + k)
        return [EPHEMERAL_PORT_MIN + (offset + i) % span for i in range(k)]
