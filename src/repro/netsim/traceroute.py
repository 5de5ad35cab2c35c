"""TCP traceroute over the simulated fabric.

Pingmesh tells you *which tier* is sick; traceroute tells you *which switch*
(§5.2, §6.4): "we combine Pingmesh and TCP traceroute" — once Pingmesh
surfaces source/destination pairs with 1–2 % random drops, traceroute
against those pairs pinpoints the dropping switch.

The classic mechanics: send TCP packets with increasing TTL; the hop where
the TTL expires answers with ICMP time-exceeded.  A switch that silently
drops x % of traffic shows up as an x %-ish response deficit from itself and
every hop behind it; the *first* hop with a significant deficit is the
culprit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netsim.addressing import PROTO_TCP, FiveTuple
from repro.netsim.devices import Server
from repro.netsim.fabric import DEFAULT_PROBE_PORT, Fabric
from repro.netsim.routing import NoRouteError

__all__ = ["HopReport", "TracerouteResult", "tcp_traceroute", "localize_drop"]


@dataclass
class HopReport:
    """Response statistics for one TTL value."""

    ttl: int
    device_id: str
    sent: int
    received: int

    @property
    def loss_rate(self) -> float:
        if self.sent == 0:
            return 0.0
        return (self.sent - self.received) / self.sent


@dataclass
class TracerouteResult:
    """Per-hop loss profile of one source-destination flow."""

    src: str
    dst: str
    flow: FiveTuple
    hops: list[HopReport]


def tcp_traceroute(
    fabric: Fabric,
    src: Server | str,
    dst: Server | str,
    probes_per_hop: int = 100,
    dst_port: int = DEFAULT_PROBE_PORT,
    src_port: int = 55_555,
) -> TracerouteResult:
    """Trace the path of one pinned five-tuple, measuring per-hop loss.

    The source port is pinned (not rotated) so every probe follows the same
    ECMP path — you trace *the affected flow*, exactly as the operators in
    §5.2 launched "TCP traceroute against those pairs".
    """
    src_server = fabric.topology.server(src if isinstance(src, str) else src.device_id)
    dst_server = fabric.topology.server(dst if isinstance(dst, str) else dst.device_id)
    flow = FiveTuple(
        src_ip=src_server.ip,
        src_port=src_port,
        dst_ip=dst_server.ip,
        dst_port=dst_port,
        protocol=PROTO_TCP,
    )
    try:
        path = fabric.router.path(src_server, dst_server, flow)
    except NoRouteError:
        return TracerouteResult(
            src=src_server.device_id, dst=dst_server.device_id, flow=flow, hops=[]
        )

    drop_model = fabric.drop_model(src_server.dc_index)
    reports: list[HopReport] = []
    for index, target_hop in enumerate(path.hops):
        received = 0
        for _ in range(probes_per_hop):
            if _probe_reaches(fabric, drop_model, path.hops, index, flow):
                received += 1
        reports.append(
            HopReport(
                ttl=index + 1,
                device_id=target_hop.device_id,
                sent=probes_per_hop,
                received=received,
            )
        )
    return TracerouteResult(
        src=src_server.device_id,
        dst=dst_server.device_id,
        flow=flow,
        hops=reports,
    )


def _probe_reaches(fabric, drop_model, hops, target_index, flow) -> bool:
    """One TTL-limited probe: out to ``hops[target_index]`` and back.

    Forwarding hops (before the target) can drop the probe in both
    directions; the target hop can drop it on ingress.  Fault evaluation
    uses the same registry as regular traffic, so black-holes and silent
    droppers bite traceroute probes exactly as they bite data.
    """
    # Outbound through the forwarding hops.
    for hop in hops[:target_index]:
        if fabric.rng.random() < drop_model.hop_drop_prob(hop.kind):
            return False
        verdict = fabric.faults.evaluate_hop(hop, flow, 40, fabric.rng.random())
        if verdict.dropped:
            return False
    # Ingress at the target hop itself.
    target = hops[target_index]
    if fabric.rng.random() < drop_model.hop_drop_prob(target.kind):
        return False
    verdict = fabric.faults.evaluate_hop(target, flow, 40, fabric.rng.random())
    if verdict.dropped:
        return False
    # ICMP time-exceeded back through the same forwarding hops.
    reply = flow.reversed()
    for hop in reversed(hops[:target_index]):
        if fabric.rng.random() < drop_model.hop_drop_prob(hop.kind):
            return False
        verdict = fabric.faults.evaluate_hop(hop, reply, 56, fabric.rng.random())
        if verdict.dropped:
            return False
    return True


def localize_drop(
    result: TracerouteResult, loss_threshold: float = 0.005
) -> str | None:
    """Name the first hop whose loss jumps above the hop before it.

    Returns the suspected device id, or ``None`` when the loss profile looks
    healthy.  ``loss_threshold`` is the minimum *increase* in loss rate over
    the previous hop to call a switch out — baseline per-hop loss is ~1e-5,
    silent droppers sit at 1e-2, so the default separates them by three
    orders of magnitude.
    """
    previous_loss = 0.0
    for hop in result.hops:
        if hop.loss_rate - previous_loss > loss_threshold:
            return hop.device_id
        previous_loss = hop.loss_rate
    return None
