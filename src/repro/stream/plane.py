"""StreamPlane: the streaming plane assembled, as the system drives it.

One :class:`StreamPlane` owns the per-agent aggregators, the ingest VIP
(an ordinary :class:`~repro.core.controller.slb.SoftwareLoadBalancer`
fronting synthetic ingest replicas), the
:class:`~repro.stream.ingest.StreamIngestService` merge tree and the
online detectors.  :class:`~repro.core.system.PingmeshSystem` calls
:meth:`tick` every sub-window; each tick flushes every aggregator's closed
windows, delivers the deltas through the VIP, and runs the detectors.

Fail-closed delivery: a delta that cannot reach the ingest VIP (every
replica out of rotation) is *dropped and counted*, never silently lost
and never buffered unboundedly — mirroring the agents' own §3.4.2
discipline.  The conservation ledger across the plane is exact:

    probes_folded == probes_emitted + probes_pending        (aggregators)
    probes_emitted == probes_ingested + probes_dropped
                      + probes_rejected                      (delivery)

and both equalities are enforced by the chaos invariant catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.controller.slb import NoHealthyBackendError, SoftwareLoadBalancer
from repro.core.dsa.alerts import AlertEngine
from repro.stream.aggregator import StreamAggregator
from repro.stream.detectors import (
    EwmaDriftDetector,
    PinglistStalenessGauge,
    StreamBlackholeFeed,
    StreamInterDcSlaDetector,
    StreamSlaDetector,
)
from repro.stream.ingest import StreamIngestService

__all__ = ["StreamConfig", "StreamPlane"]


@dataclass(frozen=True)
class StreamConfig:
    """Everything configurable about the streaming plane."""

    enabled: bool = True
    window_s: float = 10.0  # aggregation sub-window (sim seconds)
    relative_accuracy: float = 0.01  # sketch error bound (1 %)
    retention_windows: int = 360  # ingest ring: 1 h at the default window
    ingest_vip: str = "stream-ingest.vip"
    n_ingest_replicas: int = 2
    # SLA detector guards (see repro.stream.detectors).
    eval_windows: int = 3
    min_drop_events: int = 3
    min_p99_samples: int = 200
    # Read by nothing: the system always feeds agents pair aggregators and
    # the sharded fleet always feeds shard aggregators.  It stays only
    # because benchmarks/e2e/workloads.py constructs it, and goes with the
    # next change to that benchmark.
    shard_aggregation: bool = False

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError(f"window must be positive: {self.window_s}")
        if not 0 < self.relative_accuracy < 1:
            raise ValueError(
                f"relative_accuracy must be in (0,1): {self.relative_accuracy}"
            )
        if self.retention_windows < 2:
            raise ValueError(f"retention too small: {self.retention_windows}")
        if self.n_ingest_replicas < 1:
            raise ValueError(
                f"need at least one ingest replica: {self.n_ingest_replicas}"
            )


class StreamPlane:
    """Aggregators + ingest VIP + merge tree + detectors, wired."""

    def __init__(
        self,
        config: StreamConfig,
        alert_engine: AlertEngine,
        topology,
    ) -> None:
        self.config = config
        self.alert_engine = alert_engine
        self.topology = topology
        self._replica_health = {
            f"{config.ingest_vip}/dip{i}": True
            for i in range(config.n_ingest_replicas)
        }
        self.ingest_slb = SoftwareLoadBalancer(
            config.ingest_vip,
            list(self._replica_health),
            health_check=lambda dip: self._replica_health[dip],
        )
        self.ingest = StreamIngestService(
            window_s=config.window_s,
            retention_windows=config.retention_windows,
            relative_accuracy=config.relative_accuracy,
        )
        self.sla_detector = StreamSlaDetector(
            alert_engine,
            eval_windows=config.eval_windows,
            min_drop_events=config.min_drop_events,
            min_p99_samples=config.min_p99_samples,
        )
        self.interdc_sla_detector = StreamInterDcSlaDetector(
            alert_engine,
            eval_windows=config.eval_windows,
            min_drop_events=config.min_drop_events,
        )
        self.drift_detector = EwmaDriftDetector(alert_engine)
        self.blackhole_feed = StreamBlackholeFeed(eval_windows=config.eval_windows)
        self.staleness_gauge = PinglistStalenessGauge(alert_engine)
        self._aggregators: dict[str, StreamAggregator] = {}
        self.ticks = 0
        self.last_tick_t: float | None = None
        self.deltas_delivered = 0
        self.deltas_dropped = 0
        self.probes_dropped = 0
        # Control-plane download telemetry: the latest per-tick snapshot of
        # the controller's pinglist-serving counters plus per-tick rates
        # (requests and 304 share since the previous snapshot).
        self.download_snapshot: dict | None = None
        self.download_rates: dict | None = None

    # -- control-plane health gauge ----------------------------------------

    @property
    def stale_fraction(self) -> float:
        """Fraction of the fleet probing a stale (cached) pinglist."""
        return self.staleness_gauge.stale_fraction

    def observe_staleness(self, t: float, stale_agents: int, total_agents: int) -> None:
        """Feed the staleness gauge (the system calls this each stream
        tick with the fleet's STALE-agent count).  The gauge breaches an
        episodic alert past its ``alert_fraction`` — the operator
        signal that the controller is degraded even though probing (on
        cached pinglists) continues."""
        self.staleness_gauge.observe(t, stale_agents, total_agents)

    def observe_downloads(self, t: float, stats: dict) -> None:
        """Feed the controller's pinglist-download counters (the system
        calls this each stream tick with ``controller.download_stats()``).
        Keeps the latest snapshot and derives per-tick deltas, so the
        stream plane can answer "how hot is the controller right now" and
        "what fraction of polls are cheap 304s" without touching the
        controller."""
        previous = self.download_snapshot
        requests = stats["requests"]
        delta_requests = requests - (previous["requests"] if previous else 0)
        delta_304 = stats["responses_304"] - (
            previous["responses_304"] if previous else 0
        )
        self.download_rates = {
            "t": t,
            "requests": delta_requests,
            "responses_304": delta_304,
            "not_modified_fraction": (
                delta_304 / delta_requests if delta_requests else None
            ),
        }
        self.download_snapshot = dict(stats)

    # -- agent side --------------------------------------------------------

    def pair_aggregator_for(self, server_id: str) -> StreamAggregator:
        """One server's (memoized) pair-granularity aggregator.

        This is where degraded/faulted/VIP outcomes go under the sharded
        fleet: the healthy bulk flows class-granular through the shard
        aggregators, but anything a detector may need to *localize* (the
        black-hole feed resolves pods) keeps per-server resolution.
        """
        aggregator = self._aggregators.get(server_id)
        if aggregator is None:
            server = self.topology.server(server_id)
            aggregator = self._aggregators[server_id] = StreamAggregator(
                server_id=server_id,
                dc=server.dc_index,
                podset=server.podset_index,
                pod=server.pod_index,
                window_s=self.config.window_s,
                relative_accuracy=self.config.relative_accuracy,
                granularity="pair",
            )
        return aggregator

    def shard_aggregator(self, dc: int, podset: int) -> StreamAggregator:
        """The (memoized) class-granularity aggregator for one (dc,
        podset) shard.

        Registered in the same table as per-server aggregators (keyed by a
        synthetic ``shard:`` id), so the plane's conservation ledger and
        tick flush cover it with no special casing.  ``pod=-1`` marks the
        delta as pod-agnostic for downstream consumers.
        """
        key = f"shard:dc{dc}/podset{podset}"
        aggregator = self._aggregators.get(key)
        if aggregator is None:
            aggregator = self._aggregators[key] = StreamAggregator(
                server_id=key,
                dc=dc,
                podset=podset,
                pod=-1,
                window_s=self.config.window_s,
                relative_accuracy=self.config.relative_accuracy,
                granularity="class",
            )
        return aggregator

    # -- the tick ----------------------------------------------------------

    def tick(self, t: float) -> list:
        """One streaming cycle: flush -> deliver via VIP -> detect.

        Returns the alert events the detectors fired this tick.
        """
        deltas = []
        for aggregator in self._aggregators.values():
            # Fast-skip idle aggregators: at 64k servers most per-server
            # (pair) aggregators are empty every tick — only degraded
            # pairs fold into them — and the flush must not pay O(fleet).
            if aggregator._open:
                deltas.extend(aggregator.flush_closed(t))
        self.ingest_slb.run_health_checks()
        for delta in deltas:
            try:
                self.ingest_slb.pick()
            except NoHealthyBackendError:
                # Fail closed: the window's data is lost, visibly.
                self.deltas_dropped += 1
                self.probes_dropped += delta.probes
                continue
            if self.ingest.ingest(delta):
                self.deltas_delivered += 1
            # else: straggler past retention — the ingest service counted it.
        self.ticks += 1
        self.last_tick_t = t
        fired = list(self.sla_detector.evaluate(t, self.ingest))
        fired.extend(self.interdc_sla_detector.evaluate(t, self.ingest))
        fired.extend(self.drift_detector.evaluate(t, self.ingest))
        self.blackhole_feed.evaluate(t, self.ingest)
        return fired

    # -- ingest VIP chaos hooks --------------------------------------------

    def fail_ingest_replica(self, dip: str | None = None) -> None:
        """Take one replica (or, with None, every replica) out of rotation."""
        if dip is None:
            for name in self._replica_health:
                self._replica_health[name] = False
        else:
            self._replica_health[dip] = False

    def recover_ingest_replica(self, dip: str | None = None) -> None:
        if dip is None:
            for name in self._replica_health:
                self._replica_health[name] = True
        else:
            self._replica_health[dip] = True

    @property
    def vip_dark(self) -> bool:
        self.ingest_slb.run_health_checks()
        return not self.ingest_slb.healthy_dips()

    # -- conservation ledger -----------------------------------------------

    @property
    def probes_folded(self) -> int:
        return sum(a.probes_folded for a in self._aggregators.values())

    @property
    def probes_emitted(self) -> int:
        return sum(a.probes_emitted for a in self._aggregators.values())

    @property
    def probes_pending(self) -> int:
        return sum(a.probes_pending for a in self._aggregators.values())

    @property
    def deltas_emitted(self) -> int:
        return sum(a.deltas_emitted for a in self._aggregators.values())

    def conservation(self) -> dict:
        """The plane-wide ledger (see the module docstring equalities)."""
        return {
            "probes_folded": self.probes_folded,
            "probes_emitted": self.probes_emitted,
            "probes_pending": self.probes_pending,
            "probes_ingested": self.ingest.probes_ingested,
            "probes_dropped": self.probes_dropped,
            "probes_rejected": self.ingest.probes_rejected,
            "probes_evicted": self.ingest.probes_evicted,
        }

    @property
    def memory_buckets(self) -> int:
        """Occupied sketch buckets: open agent windows + the ingest ring."""
        return self.ingest.memory_buckets + sum(
            a.memory_buckets for a in self._aggregators.values()
        )
