"""ToR black-hole detection (§5.1).

"The idea of the algorithm is that if many servers under a ToR switch
experience the black-hole symptom, then we mark the ToR switch as a
black-hole candidate and assign it a score which is the ratio of servers
with black-hole symptom.  We then select the switches with black-hole score
larger than a threshold as the candidates.  Within a podset, if only part of
the ToRs experience the black-hole symptom, then those ToRs are blacking
hole packets.  We then invoke a network repairing service to safely restart
the ToRs.  If all the ToRs in a podset experience the black-hole symptom,
then the problem may be in the Leaf or Spine layer.  Network engineers are
notified to do further investigation."

The *symptom* for one server: at least one peer it deterministically cannot
reach (every probe of the pair failed) while it reaches other peers fine —
"server A cannot talk to server B, but it can talk to servers C and D".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cosmos.scope import RowSet, agg, col

__all__ = ["BlackholeCandidate", "BlackholeReport", "BlackholeDetector"]

Row = dict[str, Any]


@dataclass(frozen=True)
class BlackholeCandidate:
    """A ToR suspected of black-holing packets."""

    tor_key: str  # "dc{d}/pod{p}" — the pod whose ToR is suspect
    dc: int
    podset: int
    pod: int
    score: float  # fraction of the pod's reporting servers with the symptom
    symptomatic_servers: int
    reporting_servers: int


@dataclass
class BlackholeReport:
    """One detection pass: ToRs to reload, podsets to escalate."""

    t: float
    candidates: list[BlackholeCandidate] = field(default_factory=list)
    tors_to_reload: list[BlackholeCandidate] = field(default_factory=list)
    podsets_escalated: list[tuple[int, int]] = field(default_factory=list)  # (dc, podset)


class BlackholeDetector:
    """Runs the §5.1 algorithm over a window of latency records."""

    def __init__(
        self,
        score_threshold: float = 0.3,
        min_pair_probes: int = 2,
        min_reporting_servers: int = 2,
        dead_share_floor: float = 0.05,
    ) -> None:
        if not 0 < score_threshold <= 1:
            raise ValueError(f"score threshold must be in (0,1]: {score_threshold}")
        if min_pair_probes < 1:
            raise ValueError(f"min_pair_probes must be >= 1: {min_pair_probes}")
        if not 0 < dead_share_floor < 1:
            raise ValueError(
                f"dead_share_floor must be in (0,1): {dead_share_floor}"
            )
        self.score_threshold = score_threshold
        self.min_pair_probes = min_pair_probes
        self.min_reporting_servers = min_reporting_servers
        self.dead_share_floor = dead_share_floor

    # -- symptom extraction ------------------------------------------------------

    def _pair_rows(self, rows: RowSet | list[Row]) -> list[Row]:
        """One row per probed ``(src, dst)`` pair, in first-probe order:
        both endpoints' coordinates, probes made and probes answered.  The
        only pass over the window — it is reduced in place, and what comes
        out is pairs, not probes."""
        window = RowSet.of(rows)
        if not window:
            return []
        return (
            window.select(
                "src",
                "dst",
                "src_dc",
                "src_podset",
                "src_pod",
                "success",
                # Rows without destination coordinates (older fixtures,
                # dark-VIP probes): same DC, no pod.
                dst_dc=col("dst_dc", default=col("src_dc")),
                dst_pod=col("dst_pod", default=-1),
            )
            .group_by(
                "src", "dst", "src_dc", "src_podset", "src_pod", "dst_dc", "dst_pod"
            )
            .aggregate(probes=agg.count(), answered=agg.count_if(col("success")))
            .output()
        )

    def _server_symptoms(
        self, pairs: list[Row]
    ) -> tuple[dict[str, tuple[bool, Row]], set[tuple[int, int]]]:
        """Symptom per source server, and the set of implicated pods.

        A pair counts as black-holed only when *every* probe of it failed
        (deterministic), with at least ``min_pair_probes`` samples; a
        symptomatic server must also have at least one fully-working pair
        (it is otherwise just down).

        Implicated pods come from a greedy cover over the dead pairs: each
        dead pair implicates the pods of both endpoints; repeatedly pick
        the pod whose *unexplained* dead-pair share (dead / all qualified
        pairs touching it) is highest, mark its dead pairs explained, stop
        when the best remaining share falls under ``dead_share_floor``.
        This is the discriminator the raw symptom ratio lacks: servers
        probing *into* a poisoned pod also show the symptom, but their own
        pods explain almost none of the dead pairs — and unlike a global
        concentration measure, greedy cover localizes *multiple*
        simultaneous black-holes (the Figure 6 regime).
        """
        row_of_server: dict[str, Row] = {}
        dead_by_server: dict[str, int] = {}
        live_by_server: dict[str, int] = {}
        pod_pairs: dict[tuple[int, int], set[tuple[str, str]]] = {}
        dead_pairs: set[tuple[str, str]] = set()
        for row in pairs:
            src = row["src"]
            row_of_server.setdefault(src, row)
            if row["probes"] < self.min_pair_probes:
                continue
            pair = (src, row["dst"])
            endpoints = {
                (row["src_dc"], row["src_pod"]),
                (row["dst_dc"], row["dst_pod"]),
            }
            for endpoint in endpoints:
                pod_pairs.setdefault(endpoint, set()).add(pair)
            if row["answered"] == 0:
                dead_by_server[src] = dead_by_server.get(src, 0) + 1
                dead_pairs.add(pair)
            elif row["answered"] == row["probes"]:
                live_by_server[src] = live_by_server.get(src, 0) + 1

        symptoms = {
            src: (
                dead_by_server.get(src, 0) > 0 and live_by_server.get(src, 0) > 0,
                row,
            )
            for src, row in row_of_server.items()
        }
        return symptoms, self._greedy_cover(pod_pairs, dead_pairs)

    def _greedy_cover(
        self,
        pod_pairs: dict[tuple[int, int], set[tuple[str, str]]],
        dead_pairs: set[tuple[str, str]],
    ) -> set[tuple[int, int]]:
        """Pods that best explain the dead pairs, greedily."""
        implicated: set[tuple[int, int]] = set()
        unexplained = set(dead_pairs)
        while unexplained:
            best_pod = None
            best_share = self.dead_share_floor
            for pod, pairs in pod_pairs.items():
                if pod in implicated or not pairs:
                    continue
                share = len(pairs & unexplained) / len(pairs)
                if share > best_share:
                    best_share = share
                    best_pod = pod
            if best_pod is None:
                break
            implicated.add(best_pod)
            unexplained -= pod_pairs[best_pod]
        return implicated

    # -- the algorithm --------------------------------------------------------------

    def detect(self, rows: RowSet | list[Row], t: float = 0.0) -> BlackholeReport:
        """Score every ToR; split candidates into reloads vs escalations."""
        report = BlackholeReport(t=t)
        symptoms, implicated = self._server_symptoms(self._pair_rows(rows))
        if not symptoms:
            return report

        # Aggregate per pod (== per ToR: one ToR per pod).
        per_pod: dict[tuple[int, int, int], list[bool]] = {}
        for _server, (symptom, row) in symptoms.items():
            key = (row["src_dc"], row["src_podset"], row["src_pod"])
            per_pod.setdefault(key, []).append(symptom)

        for (dc, podset, pod), flags in sorted(per_pod.items()):
            if len(flags) < self.min_reporting_servers:
                continue
            if (dc, pod) not in implicated:
                continue
            score = sum(flags) / len(flags)
            if score > self.score_threshold:
                report.candidates.append(
                    BlackholeCandidate(
                        tor_key=f"dc{dc}/pod{pod}",
                        dc=dc,
                        podset=podset,
                        pod=pod,
                        score=score,
                        symptomatic_servers=sum(flags),
                        reporting_servers=len(flags),
                    )
                )

        # Podset rule: all ToRs of a podset affected => Leaf/Spine suspected.
        pods_reporting: dict[tuple[int, int], set[int]] = {}
        for (dc, podset, pod), flags in per_pod.items():
            if len(flags) >= self.min_reporting_servers:
                pods_reporting.setdefault((dc, podset), set()).add(pod)
        candidates_by_podset: dict[tuple[int, int], list[BlackholeCandidate]] = {}
        for candidate in report.candidates:
            candidates_by_podset.setdefault(
                (candidate.dc, candidate.podset), []
            ).append(candidate)

        for (dc, podset), candidates in sorted(candidates_by_podset.items()):
            reporting = pods_reporting.get((dc, podset), set())
            if reporting and len(candidates) == len(reporting):
                report.podsets_escalated.append((dc, podset))
            else:
                report.tors_to_reload.extend(candidates)
        return report

    def file_repairs(self, report: BlackholeReport, device_manager, topology) -> int:
        """Queue a reload request per implicated ToR with the Device Manager.

        The Repair Service enforces the ≤20-reloads/day budget (§5.1);
        the detector just files.  Returns the number of requests filed.
        """
        filed = 0
        for candidate in report.tors_to_reload:
            dc = topology.dc(candidate.dc)
            tor = dc.tors[candidate.pod]
            device_manager.request_repair(
                tor.device_id,
                "reload_switch",
                reason=(
                    f"black-hole score {candidate.score:.2f} "
                    f"({candidate.symptomatic_servers}/{candidate.reporting_servers} servers)"
                ),
                t=report.t,
            )
            filed += 1
        return filed
