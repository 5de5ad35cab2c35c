"""A live mini-agent: ping a peer list, keep Pingmesh-style counters.

The simulated :class:`~repro.core.agent.agent.PingmeshAgent` and this live
prober share the counter implementation, so a real deployment produces the
same P50/P99/drop-rate counters the DSA pipeline consumes — the point where
the simulation substrate and the real-socket library meet.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.agent.counters import LatencyCounters
from repro.core.agent.safety import SafetyGuard
from repro.liveprobe.client import LivePingResult, http_ping, tcp_ping

__all__ = ["PeerSpec", "LiveProber"]


@dataclass(frozen=True)
class PeerSpec:
    """One peer to probe, by transport."""

    host: str
    port: int
    protocol: str = "tcp"  # "tcp" | "http"
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.protocol not in ("tcp", "http"):
            raise ValueError(f"unknown protocol: {self.protocol!r}")
        if not 0 < self.port <= 65_535:
            raise ValueError(f"port out of range: {self.port}")
        if self.payload_bytes < 0:
            raise ValueError(f"payload must be >= 0: {self.payload_bytes}")


class LiveProber:
    """Probes a fixed peer list with bounded concurrency."""

    def __init__(
        self,
        peers: list[PeerSpec],
        timeout_s: float = 9.0,
        max_concurrency: int = 64,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(f"concurrency must be >= 1: {max_concurrency}")
        self.peers = list(peers)
        self.timeout_s = timeout_s
        self.max_concurrency = max_concurrency
        self.counters = LatencyCounters()
        self.results: list[LivePingResult] = []

    async def run_round(self) -> list[LivePingResult]:
        """Probe every peer once, concurrently, and record outcomes."""
        semaphore = asyncio.Semaphore(self.max_concurrency)

        async def probe_one(peer: PeerSpec) -> LivePingResult:
            async with semaphore:
                if peer.protocol == "http":
                    return await http_ping(peer.host, peer.port, self.timeout_s)
                payload = b"\x00" * SafetyGuard.clamp_payload(peer.payload_bytes)
                return await tcp_ping(
                    peer.host, peer.port, payload=payload, timeout_s=self.timeout_s
                )

        results = await asyncio.gather(*(probe_one(peer) for peer in self.peers))
        for result in results:
            self.counters.add(result.success, result.rtt_s)
        self.results.extend(results)
        return list(results)

    def run_round_sync(self) -> list[LivePingResult]:
        """Blocking wrapper."""
        return asyncio.run(self.run_round())

    def snapshot(self) -> dict[str, float]:
        """The PA counter set, from real measurements."""
        return self.counters.snapshot()
