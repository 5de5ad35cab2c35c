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

__all__ = ["SlaThresholds", "Alert", "AlertEngine"]


@dataclass(frozen=True)
class SlaThresholds:
    """The paper's defaults: drop rate 1e-3, P99 latency 5 ms.

    Inter-DC (``dc-pair`` scope) series get their own pair of limits: the
    long-haul segment legitimately adds hundreds of milliseconds of
    propagation and crosses provider boundaries with a slightly higher
    baseline loss, so the intra-DC limits would always read as breached.
    ``max_interdc_p99_us`` must exceed the worst healthy pair RTT in the
    fleet (~205 ms us-west<->asia at defaults).
    """

    max_drop_rate: float = 1e-3
    max_p99_us: float = 5000.0
    max_interdc_drop_rate: float = 2e-3
    max_interdc_p99_us: float = 400_000.0
    min_probe_count: int = 20  # don't alert on statistically-empty windows

    def __post_init__(self) -> None:
        if self.max_drop_rate <= 0 or self.max_p99_us <= 0:
            raise ValueError("thresholds must be positive")
        if self.max_interdc_drop_rate <= 0 or self.max_interdc_p99_us <= 0:
            raise ValueError("inter-DC thresholds must be positive")
        if self.min_probe_count < 1:
            raise ValueError(f"min_probe_count must be >= 1: {self.min_probe_count}")

    def drop_limit_for(self, scope: str) -> float:
        """The drop-rate limit that applies to a scope tag."""
        return self.max_interdc_drop_rate if scope == "dc-pair" else self.max_drop_rate

    def p99_limit_for(self, scope: str) -> float:
        """The P99-latency limit that applies to a scope tag."""
        return self.max_interdc_p99_us if scope == "dc-pair" else self.max_p99_us


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

    def __init__(self, thresholds: SlaThresholds | None = None) -> None:
        self.thresholds = thresholds or SlaThresholds()
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
        thresholds = self.thresholds
        fired: list[Alert] = []
        for sla in slas:
            if sla.probe_count < thresholds.min_probe_count:
                continue
            scope = sla.scope.value
            series = [("drop_rate", sla.drop_rate, thresholds.drop_limit_for(scope))]
            if sla.p99_us is not None:
                series.append(("p99_us", sla.p99_us, thresholds.p99_limit_for(scope)))
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
        return bool(AlertEngine(self.thresholds).evaluate(slas))
