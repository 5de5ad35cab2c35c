"""Silent random packet-drop detection and localization (§5.2).

The paper's incident playbook, automated:

1. The measured (inferred) drop rate of a data center jumps well above its
   normal 1e-5…1e-4 floor — "it suddenly jumped up to around 2×10⁻³".
2. Scope the blast radius: if cross-podset traffic is elevated while
   intra-podset traffic is normal, the problem sits at the Spine layer
   (Figure 8(d)'s pattern); if a single podset is affected, it is a
   Leaf/ToR issue.
3. "figure out several source and destination pairs that experienced around
   1%-2% random packet drops.  We then launched TCP traceroute against those
   pairs, and finally pinpointed one Spine switch."  Traceroute each
   affected pair, vote on the first lossy hop.
4. Silent drops are not reload-fixable — file an RMA (isolate) request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.dsa.drop_inference import RETRANSMITTED, drop_rate_aggregate
from repro.cosmos.scope import RowSet, agg, col
from repro.netsim.tcp import ONE_DROP_RTT_US
from repro.netsim.traceroute import localize_drop, tcp_traceroute

__all__ = ["SilentDropIncident", "SilentDropDetector"]

Row = dict[str, Any]


@dataclass
class SilentDropIncident:
    """One detected incident, possibly localized to a switch."""

    t: float
    dc: int
    measured_drop_rate: float
    baseline_drop_rate: float
    suspected_tier: str  # "spine" | "leaf-or-tor" | "unknown"
    affected_pairs: list[tuple[str, str]] = field(default_factory=list)
    localized_switch: str | None = None
    traceroute_votes: dict[str, int] = field(default_factory=dict)


class SilentDropDetector:
    """Detects DC-level drop-rate excursions and localizes the dropper."""

    def __init__(
        self,
        incident_drop_rate: float = 5e-4,
        max_traceroute_pairs: int = 8,
        traceroute_probes_per_hop: int = 200,
        traceroute_ports_per_pair: int = 4,
        max_pair_loss_ratio: float = 0.5,
        deterministic_loss_floor: float = 0.9,
    ) -> None:
        if incident_drop_rate <= 0:
            raise ValueError(f"incident threshold must be positive: {incident_drop_rate}")
        if max_traceroute_pairs < 1:
            raise ValueError(f"need at least one pair: {max_traceroute_pairs}")
        if traceroute_ports_per_pair < 1:
            raise ValueError(
                f"need at least one port per pair: {traceroute_ports_per_pair}"
            )
        if not 0.0 < max_pair_loss_ratio <= 1.0:
            raise ValueError(
                f"loss ratio must be in (0, 1]: {max_pair_loss_ratio}"
            )
        if not 0.0 < deterministic_loss_floor <= 1.0:
            raise ValueError(
                f"loss floor must be in (0, 1]: {deterministic_loss_floor}"
            )
        self.incident_drop_rate = incident_drop_rate
        self.max_pair_loss_ratio = max_pair_loss_ratio
        self.deterministic_loss_floor = deterministic_loss_floor
        self.max_traceroute_pairs = max_traceroute_pairs
        self.traceroute_probes_per_hop = traceroute_probes_per_hop
        self.traceroute_ports_per_pair = traceroute_ports_per_pair

    # -- step 1+2: detect and scope -----------------------------------------------

    def detect(
        self, rows: RowSet | list[Row], baseline_drop_rate: float = 1e-4, t: float = 0.0
    ) -> list[SilentDropIncident]:
        """One incident per data center whose drop rate is excessive."""
        window = RowSet.of(rows)
        ok, intra = col("success"), col("src_podset") == col("dst_podset")
        per_dc = (
            window.select("src_dc", "dst_dc", "src_podset", "dst_podset", "success", "rtt_us")
            .where(col("src_dc") == col("dst_dc"))
            .group_by("src_dc")
            .aggregate(
                successful=agg.count_if(ok),
                rate=drop_rate_aggregate(),
                intra_rate=agg.ratio(RETRANSMITTED & intra, ok & intra),
                cross_rate=agg.ratio(RETRANSMITTED & ~intra, ok & ~intra),
            )
            .order_by("src_dc")
            .output()
        )
        return [
            SilentDropIncident(
                t=t,
                dc=dc["src_dc"],
                measured_drop_rate=dc["rate"],
                baseline_drop_rate=baseline_drop_rate,
                suspected_tier=self._suspect_tier(dc["intra_rate"], dc["cross_rate"]),
                affected_pairs=self._affected_pairs(window, dc["src_dc"]),
            )
            for dc in per_dc
            if dc["successful"] and dc["rate"] >= self.incident_drop_rate
        ]

    def _suspect_tier(self, intra_rate: float, cross_rate: float) -> str:
        """Compare intra-podset vs cross-podset drop rates.

        "Packet drops at ToR and Leaf layers cannot cause the latency
        increase for all our customers ... the latency increase pattern
        pointed the problem to the Spine switch layer."
        """
        if cross_rate >= self.incident_drop_rate and intra_rate < cross_rate / 3:
            return "spine"
        if intra_rate >= self.incident_drop_rate:
            return "leaf-or-tor"
        return "unknown"

    def _affected_pairs(self, window: RowSet, dc: int) -> list[tuple[str, str]]:
        """Pairs of ``dc`` with the most retransmission/drop evidence, worst
        first: a failed probe scores 1, a retransmit signature 2.

        Only *partially* lossy pairs qualify — the paper's operators traced
        pairs "that experienced around 1%-2% random packet drops", i.e.
        pairs that still mostly succeed.  A pair whose every probe fails or
        carries a retransmit signature is deterministic loss: that is the
        §5.1 black-hole detector's jurisdiction (reload, not RMA), and
        tracerouting it here would let the silent-drop watch RMA-isolate a
        reload-fixable switch.  Pairs group on the stored endpoint ids; only
        the ones that qualify are spelled out, to rank ties by name.
        """
        ok = col("success")
        keep = (col("src_dc") == dc) & (col("dst_dc") == dc)
        keep &= col("purpose", default="") != "vip"  # VIP targets are logical
        bad = col("failed") + col("retransmits")
        pairs = (
            window.select("src", "dst", "success", "syn_drops", "rtt_us", keep=keep)
            .where(col("keep"))
            .group_by("src", "dst")
            .aggregate(
                probes=agg.count(),
                failed=agg.count_if(~ok),
                retransmits=agg.count_if(
                    ok & ((col("syn_drops") > 0) | (col("rtt_us") >= ONE_DROP_RTT_US))
                ),
            )
            .where((bad > 0) & (bad <= col("probes") * self.max_pair_loss_ratio))
        )
        scored = zip(*map(pairs.column, ("failed", "retransmits", "src", "dst")))
        ranked = sorted((-failed - 2 * retries, src, dst) for failed, retries, src, dst in scored)
        return [(src, dst) for _score, src, dst in ranked[: self.max_traceroute_pairs]]

    # -- step 3: localize via traceroute ----------------------------------------------

    def localize(self, incident: SilentDropIncident, fabric) -> str | None:
        """TCP-traceroute the affected pairs; majority vote on the culprit.

        Each pair is traced with several pinned source ports: ECMP spreads
        ports over different spines, so only the ports whose path crosses
        the faulty switch show loss — sweeping ports is what turns "this
        pair drops packets" into "this *switch* drops packets".
        """
        votes: dict[str, int] = {}
        for src, dst in incident.affected_pairs:
            for port_offset in range(self.traceroute_ports_per_pair):
                try:
                    result = tcp_traceroute(
                        fabric,
                        src,
                        dst,
                        probes_per_hop=self.traceroute_probes_per_hop,
                        src_port=55_555 + port_offset,
                    )
                except (KeyError, TypeError):
                    break  # endpoint no longer resolvable (decommissioned?)
                suspect = localize_drop(result)
                if suspect is None:
                    continue
                loss = next(
                    (
                        hop.loss_rate
                        for hop in result.hops
                        if hop.device_id == suspect
                    ),
                    0.0,
                )
                if loss >= self.deterministic_loss_floor:
                    # The hop kills (nearly) every probe of this flow: that
                    # is deterministic loss — a black-hole, reload-fixable —
                    # not the random 1%-2% dropper this playbook hunts.
                    # Voting here would RMA-isolate a switch §5.1's
                    # detector would have repaired with a reload.
                    continue
                votes[suspect] = votes.get(suspect, 0) + 1
        incident.traceroute_votes = votes
        if not votes:
            return None
        incident.localized_switch = max(votes.items(), key=lambda item: item[1])[0]
        return incident.localized_switch

    # -- step 4: mitigation ----------------------------------------------------------

    def file_rma(self, incident: SilentDropIncident, device_manager) -> bool:
        """Queue isolation+RMA for the localized switch.  True if filed."""
        if incident.localized_switch is None:
            return False
        device_manager.request_repair(
            incident.localized_switch,
            "rma_switch",
            reason=(
                f"silent random drops: measured {incident.measured_drop_rate:.2e} "
                f"vs baseline {incident.baseline_drop_rate:.2e}, "
                f"{sum(incident.traceroute_votes.values())} traceroute votes"
            ),
            t=incident.t,
        )
        return True
