"""Threshold alerting on network SLA (§4.3), with episode semantics.

"We currently use a simple threshold based approach for network SLA
violation detection.  If the packet drop rate is greater than 10⁻³ or the
99th percentile latency is larger than 5 ms, we will categorize this as a
network problem and fire alerts.  10⁻³ and 5 ms are much larger than the
normal values."

A persistent violation is one *episode*, not one alert per evaluation
window: the engine fires a single ``breach`` event when a (scope, key,
metric) first violates, tracks it in ``active_episodes``, and emits a
paired ``recovery`` event when the same series is next observed healthy.
Both the batch DSA plane and the streaming plane judge with the same rule
(:meth:`AlertEngine.judge`) and report through the same episode table, so
whichever plane sees a violation first owns the breach event (its
``plane`` tag records the race winner) and the other plane will not
duplicate it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dsa.sla import NetworkSla

__all__ = ["Alert", "AlertEngine", "drop_limit_for", "p99_limit_for"]


# The paper's limits, hard-coded as §4.3 states them: drop rate 1e-3, P99
# latency 5 ms.  Inter-DC (``dc-pair`` scope) series get their own pair:
# the long-haul segment legitimately adds hundreds of milliseconds of
# propagation and crosses provider boundaries with a slightly higher
# baseline loss, so the intra-DC limits would always read as breached.
# ``MAX_INTERDC_P99_US`` must exceed the worst healthy pair RTT in the
# fleet (~205 ms us-west<->asia at defaults).
MAX_DROP_RATE = 1e-3
MAX_P99_US = 5000.0
MAX_INTERDC_DROP_RATE = 2e-3
MAX_INTERDC_P99_US = 400_000.0
MIN_PROBE_COUNT = 20  # don't alert on statistically-empty windows


def drop_limit_for(scope: str) -> float:
    """The drop-rate limit that applies to a scope tag."""
    return MAX_INTERDC_DROP_RATE if scope == "dc-pair" else MAX_DROP_RATE


def p99_limit_for(scope: str) -> float:
    """The P99-latency limit that applies to a scope tag."""
    return MAX_INTERDC_P99_US if scope == "dc-pair" else MAX_P99_US


@dataclass(frozen=True)
class Alert:
    """One alert event: the start (``breach``) or end (``recovery``) of an
    SLA-violation episode, tagged with the plane that observed it."""

    t: float
    scope: str
    key: str
    metric: str  # "drop_rate" | "p99_us" | "failure_rate" | "p50_drift_us"
    value: float
    threshold: float
    event: str = "breach"  # "breach" | "recovery"
    plane: str = "batch"  # "batch" | "stream"

    def as_row(self) -> dict:
        return {
            "t": self.t,
            "scope": self.scope,
            "key": self.key,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "event": self.event,
            "plane": self.plane,
        }


class AlertEngine:
    """Evaluates SLAs against thresholds and keeps the episode history."""

    def __init__(self) -> None:
        self.history: list[Alert] = []
        # (scope, key, metric) -> the breach Alert that opened the episode.
        self.active_episodes: dict[tuple[str, str, str], Alert] = {}

    # -- episode machinery -------------------------------------------------

    def update_episode(
        self,
        t: float,
        scope: str,
        key: str,
        metric: str,
        value: float,
        threshold: float,
        violated: bool,
        plane: str = "batch",
    ) -> Alert | None:
        """Report one observation of a series; returns the event it fires.

        A violated observation opens an episode (fires ``breach``) unless
        one is already open; a healthy observation closes an open episode
        (fires ``recovery``).  Everything else is a no-op — callers may
        re-report the same state every window without duplicate alerts.
        """
        episode_key = (scope, key, metric)
        active = self.active_episodes.get(episode_key)
        if violated:
            if active is not None:
                return None
            alert = Alert(t, scope, key, metric, value, threshold, "breach", plane)
            self.active_episodes[episode_key] = alert
            self.history.append(alert)
            return alert
        if active is None:
            return None
        del self.active_episodes[episode_key]
        alert = Alert(t, scope, key, metric, value, threshold, "recovery", plane)
        self.history.append(alert)
        return alert

    def judge(
        self,
        t: float,
        scope: str,
        key: str,
        metric: str,
        value: float,
        limit: float,
        evidence: bool = True,
        plane: str = "batch",
    ) -> Alert | None:
        """The §4.3 rule for one observation of one series.

        A value over its limit breaches, but only with ``evidence``: over
        the limit without it, the episode is held as it is.  Any other
        value recovers.  Every SLA detector, batch or stream, judges here.
        """
        violated = value > limit
        if violated and not evidence:
            return None
        return self.update_episode(t, scope, key, metric, value, limit, violated, plane)

    # -- batch-plane evaluation --------------------------------------------

    def evaluate(self, slas: list[NetworkSla], plane: str = "batch") -> list[Alert]:
        """Fold a batch of SLA windows into the episode table.

        Returns only the *events* this batch fired: new breaches and new
        recoveries.  A violation that persists across windows fires once.
        Limits are scope-aware — ``dc-pair`` SLAs are judged against the
        inter-DC thresholds, everything else against the paper's defaults.
        """
        fired: list[Alert] = []
        for sla in slas:
            if sla.probe_count < MIN_PROBE_COUNT:
                continue
            scope = sla.scope.value
            series = [("drop_rate", sla.drop_rate, drop_limit_for(scope))]
            if sla.p99_us is not None:
                series.append(("p99_us", sla.p99_us, p99_limit_for(scope)))
            for metric, value, limit in series:
                alert = self.judge(
                    sla.window_end, scope, sla.key, metric, value, limit, plane=plane
                )
                if alert is not None:
                    fired.append(alert)
        return fired

    # -- queries -----------------------------------------------------------

    def breaches(self) -> list[Alert]:
        return [alert for alert in self.history if alert.event == "breach"]

    def is_network_issue(self, slas: list[NetworkSla]) -> bool:
        """The §4.3 question: "Is it a network issue?"

        "If Pingmesh data does not indicate a network problem, then the
        live-site incident is not caused by the network."

        A pure check against the thresholds: a fresh engine has no open
        episode, so every violation fires there, and this engine's
        deduplication cannot make a still-burning one read as "no issue".
        """
        return bool(AlertEngine().evaluate(slas))
