"""Probe explanation: *why* did this probe fail (or crawl)?

The fabric's regular probe path answers "what happened"; operators also
need "why".  :func:`explain_probe` re-runs one probe with full per-hop
bookkeeping — which switches the flow crossed in each direction, what each
hop decided on every SYN attempt, which fault (if any) ate the packet —
producing the evidence trail a network engineer assembles by hand from
switch logs and captures.

Because the explanation *re-runs* the probe, it samples fresh randomness:
deterministic failures (black-holes, down devices, routing gaps) explain
definitively; probabilistic ones (silent random drops) explain
statistically over ``attempts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.addressing import FiveTuple
from repro.netsim.fabric import DEFAULT_PROBE_PORT, Fabric
from repro.netsim.routing import NoRouteError

__all__ = ["HopDecision", "ProbeExplanation", "explain_probe"]


@dataclass(frozen=True)
class HopDecision:
    """What one switch did to one packet."""

    device_id: str
    direction: str  # "forward" | "reverse"
    action: str  # "forwarded" | "dropped-baseline" | "dropped-fault"
    fault_kind: str | None = None  # class name of the dropping fault


@dataclass
class ProbeExplanation:
    """The full evidence trail of one (re-run) probe."""

    src: str
    dst: str
    flow: FiveTuple | None
    outcome: str  # "delivered" | "timeout" | "no_route" | "dst_down" | "src_down"
    forward_hops: list[str] = field(default_factory=list)
    reverse_hops: list[str] = field(default_factory=list)
    attempts: list[list[HopDecision]] = field(default_factory=list)
    culprits: dict[str, int] = field(default_factory=dict)  # device -> drop count


def explain_probe(
    fabric: Fabric,
    src,
    dst,
    t: float = 0.0,
    dst_port: int = DEFAULT_PROBE_PORT,
    src_port: int = 55_000,
    attempts: int = 3,
) -> ProbeExplanation:
    """Re-run one probe with per-hop tracing (pinned source port)."""
    src_server = fabric.topology.server(src if isinstance(src, str) else src.device_id)
    dst_server = fabric.topology.server(dst if isinstance(dst, str) else dst.device_id)

    if not src_server.is_up:
        return ProbeExplanation(
            src=src_server.device_id,
            dst=dst_server.device_id,
            flow=None,
            outcome="src_down",
        )

    flow = FiveTuple(src_server.ip, src_port, dst_server.ip, dst_port)
    try:
        forward = fabric.router.path(src_server, dst_server, flow)
        reverse = fabric.router.path(dst_server, src_server, flow.reversed())
    except NoRouteError:
        return ProbeExplanation(
            src=src_server.device_id,
            dst=dst_server.device_id,
            flow=flow,
            outcome="no_route",
        )

    explanation = ProbeExplanation(
        src=src_server.device_id,
        dst=dst_server.device_id,
        flow=flow,
        outcome="timeout",
        forward_hops=forward.hop_ids(),
        reverse_hops=reverse.hop_ids(),
    )
    if not dst_server.is_up:
        explanation.outcome = "dst_down"

    drop_model = fabric.drop_model(src_server.dc_index)
    delivered_any = False
    for _ in range(attempts):
        decisions: list[HopDecision] = []
        delivered = _trace_direction(
            fabric, drop_model, forward.hops, flow, "forward", decisions
        )
        if delivered and dst_server.is_up:
            delivered = _trace_direction(
                fabric,
                drop_model,
                reverse.hops,
                flow.reversed(),
                "reverse",
                decisions,
            )
        elif dst_server.is_up is False and delivered:
            delivered = False  # SYN arrived at a dead host: no SYN-ACK
        explanation.attempts.append(decisions)
        for decision in decisions:
            if decision.action != "forwarded":
                explanation.culprits[decision.device_id] = (
                    explanation.culprits.get(decision.device_id, 0) + 1
                )
        delivered_any = delivered_any or delivered
    if delivered_any and dst_server.is_up:
        explanation.outcome = "delivered"
    return explanation


def _trace_direction(
    fabric, drop_model, hops, flow, direction, decisions
) -> bool:
    """Trace one packet through one direction, recording hop decisions."""
    if fabric.rng.random() < drop_model.budget.host_side:
        decisions.append(
            HopDecision("host-side", direction, "dropped-baseline")
        )
        return False
    for hop in hops:
        if fabric.rng.random() < drop_model.hop_drop_prob(hop.kind):
            decisions.append(
                HopDecision(hop.device_id, direction, "dropped-baseline")
            )
            return False
        verdict = fabric.faults.evaluate_hop(hop, flow, 40, fabric.rng.random())
        if verdict.dropped:
            fault_kind = None
            for fault in fabric.faults.faults_on(hop.device_id):
                fault_kind = type(fault).__name__
                break
            decisions.append(
                HopDecision(hop.device_id, direction, "dropped-fault", fault_kind)
            )
            return False
        decisions.append(HopDecision(hop.device_id, direction, "forwarded"))
    return True
