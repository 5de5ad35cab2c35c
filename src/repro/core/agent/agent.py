"""The Pingmesh Agent (§3.4).

"Its task is simple: downloads pinglist from the Pingmesh Controller; pings
the servers in the pinglist; then uploads the ping result to DSA."  The
implementation discipline is the hard part, and it is reproduced here:

* runs as an Autopilot :class:`~repro.autopilot.shared_service.SharedService`
  with OS-enforced CPU/memory caps (Figure 3's envelope),
* every probe uses a new connection and a new source port,
* probes respect the hard-coded 10 s / 64 KB safety limits regardless of
  what the controller asked for,
* three consecutive controller connect failures — or a 404 — make the agent
  remove all peers and stop probing (it still *answers* probes: in the
  simulator the destination side replies as long as the server is up),
* results upload on a timer or a size threshold, with bounded-memory retry.

The agent is clock-driven but queue-agnostic: the
:class:`~repro.core.system.PingmeshSystem` schedules calls to
:meth:`refresh_pinglist`, :meth:`run_probe_round` and :meth:`maybe_upload`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.autopilot.shared_service import SharedService
from repro.core.agent.counters import LatencyCounters
from repro.core.agent.safety import SafetyGuard
from repro.core.agent.uploader import ResultUploader
from repro.core.controller.pinglist import Pinglist
from repro.core.controller.service import (
    ControllerUnavailableError,
    PinglistNotFoundError,
    PingmeshControllerService,
)
from repro.core.dsa.records import RecordBatch, make_record, make_records
from repro.netsim.devices import StateVersion
from repro.netsim.fabric import Fabric, ProbeBatch
from repro.resilience import PinglistState, RetryPolicy, derive_seed

__all__ = ["AgentConfig", "PingmeshAgent"]

# A FRESH agent's refresh period is ``period * U(1 - f, 1 + f)``.
REFRESH_JITTER_FRACTION = 0.1
# The resource model approximates the production measurements of Figure 3:
# ~2500 peers probed with <45 MB memory and ~0.26 % CPU.
CPU_PER_PROBE_S = 10e-6  # CPU charged per probe
MEMORY_PER_RECORD_KB = 0.25  # buffered upload record
MEMORY_PER_SKETCH_BUCKET_BYTES = 16.0  # counters / stream sketch bucket
BASE_MEMORY_MB = 24.0  # code + runtime footprint
MEMORY_CAP_MB = 80.0  # the OS kills the agent past this (§3.4.2)


@dataclass(frozen=True)
class AgentConfig:
    """Agent tunables."""

    pinglist_refresh_s: float = 1800.0  # periodic pull from the controller
    upload_period_s: float = 600.0  # the upload timer, or the uploader's FLUSH_THRESHOLD_RECORDS
    # "fast" | "class": who runs the fleet's probe rounds.  "fast"
    # is each agent's own staggered round through Fabric.probe_many;
    # "class" is repro.core.sharded.ShardedFleet's closed-form class rounds,
    # shard by shard, degrading per pair to the fast path whenever fidelity
    # cannot be traded.  VIP probes take the scalar engine under either.
    round_mode: str = "fast"
    # Degraded-mode resilience: jittered refresh scheduling + backoff on
    # refresh failure (the STALE / FAIL_CLOSED recovery paths) and the
    # uploader's spool-and-replay retry policy.  resilient_refresh=False
    # reverts to fixed-period refresh — the stampede bench's control arm.
    resilient_refresh: bool = True
    refresh_retry_base_s: float = 30.0
    refresh_retry_cap_s: float = 600.0
    upload_retry_base_s: float = 60.0
    upload_retry_cap_s: float = 600.0

    def __post_init__(self) -> None:
        if self.pinglist_refresh_s <= 0:
            raise ValueError(f"refresh period must be positive: {self.pinglist_refresh_s}")
        if self.upload_period_s <= 0:
            raise ValueError(f"upload period must be positive: {self.upload_period_s}")
        if self.round_mode not in ("fast", "class"):
            raise ValueError(f"unknown round mode: {self.round_mode!r}")
        if self.refresh_retry_base_s <= 0 or self.upload_retry_base_s <= 0:
            raise ValueError("retry base delays must be positive")


class PingmeshAgent(SharedService):
    """One server's Pingmesh Agent."""

    def __init__(
        self,
        server_id: str,
        fabric: Fabric,
        controller: PingmeshControllerService,
        uploader: ResultUploader,
        config: AgentConfig | None = None,
        vip_resolver: Callable[[str], str | None] | None = None,
        stream_aggregator=None,
        roster_version: StateVersion | None = None,
    ) -> None:
        self.config = config or AgentConfig()
        # Bumped by every write to ``running`` / ``pinglist``; shared across
        # a fleet so its driver can memoize who probes what.
        self.roster_version = roster_version or StateVersion()
        super().__init__(
            name="pingmesh-agent",
            server_id=server_id,
            memory_cap_mb=MEMORY_CAP_MB,
        )
        self.fabric = fabric
        self.controller = controller
        self.uploader = uploader
        self.vip_resolver = vip_resolver
        # Optional streaming plane tap: a repro.stream.StreamAggregator fed
        # every probe outcome alongside counters/uploader.
        self.stream_aggregator = stream_aggregator
        self.safety = SafetyGuard()
        self.counters = LatencyCounters()
        self.pinglist: Pinglist | None = None
        self._record_server_cache: dict = {}
        self._round_plan: tuple | None = None  # keyed on the pinglist object
        # Refresh scheduling: a per-agent seeded RNG stream drives both the
        # steady-state jittered period and the failure backoff, so a fleet
        # recovering from a controller outage spreads its re-polls instead
        # of thundering (and the schedule is identical run to run).
        self.refresh_retry = RetryPolicy(
            self.config.refresh_retry_base_s,
            self.config.refresh_retry_cap_s,
            seed=derive_seed(server_id, "pinglist-refresh"),
        )
        self.last_upload_t = 0.0
        self.probes_sent = 0
        self.rounds_run = 0

    # -- controller interaction ------------------------------------------------

    def refresh_pinglist(self, t: float) -> bool:
        """Pull the pinglist; apply the fail-closed rules.  True on success.

        Failures short of fail-closed leave the agent in STALE: it keeps
        probing the cached pinglist (tagging the records), and the next
        refresh is rescheduled on backoff via :meth:`next_refresh_delay`.
        """
        if not self.running:
            return False
        current = self.pinglist.generation if self.pinglist else None
        try:
            pinglist = self.controller.get_pinglist(
                self.server_id, if_generation=current, t=t
            )
        except ControllerUnavailableError:
            if self.safety.record_controller_failure(t):
                self._stop_probing()
            return False
        except PinglistNotFoundError:
            # "controller is up but there is no pinglist file available".
            self.safety.record_pinglist_missing(t)
            self._stop_probing()
            return False
        self.safety.record_controller_success(t)
        if pinglist is not None:  # None = 304: ours is still current
            self.pinglist = pinglist
        return True

    def next_refresh_delay(self) -> float:
        """How long until the next pinglist refresh, per the state machine.

        FRESH: the configured period with ±jitter so the fleet's polls
        decorrelate.  STALE / FAIL_CLOSED: seeded exponential backoff,
        capped by the refresh period so recovery is never slower than a
        healthy cycle.  With ``resilient_refresh`` off this is the fixed
        period (the no-jitter control arm).
        """
        period = self.config.pinglist_refresh_s
        if not self.config.resilient_refresh:
            return period
        if self.safety.pinglist_state is PinglistState.FRESH:
            self.refresh_retry.reset()
            return self.refresh_retry.jitter_period(
                period, REFRESH_JITTER_FRACTION
            )
        return self.refresh_retry.next_delay(cap_s=period)

    def _stop_probing(self) -> None:
        """Remove all ping peers; keep running (and keep answering pings)."""
        self.pinglist = None

    # Class-level defaults: the setters compare against them on the first
    # assignment (``SharedService.__init__`` writes ``running``).
    _running = False
    _pinglist: Pinglist | None = None
    # Always None: class summaries ship from ShardedFleet's shard uploaders,
    # never from an agent.  Kept by name because benchmarks/e2e reads it.
    class_uploader: ResultUploader | None = None

    @property
    def running(self) -> bool:
        return self._running

    @running.setter
    def running(self, value: bool) -> None:
        if value != self._running:
            self._running = value
            self.roster_version.bump()

    @property
    def pinglist(self) -> Pinglist | None:
        return self._pinglist

    @pinglist.setter
    def pinglist(self, value: Pinglist | None) -> None:
        if value is not self._pinglist:
            self._pinglist = value
            self.roster_version.bump()

    @property
    def probing(self) -> bool:
        return self.running and self.pinglist is not None and len(self.pinglist) > 0

    @property
    def holds_results(self) -> bool:
        """Are records buffered or spooled, i.e. can :meth:`maybe_upload`
        act before the upload timer fires?"""
        return bool(self.uploader.buffered_records or self.uploader.spool)

    @property
    def pinglist_state(self) -> PinglistState:
        return self.safety.pinglist_state

    @property
    def pinglist_stale(self) -> bool:
        """Probing a cached pinglist the controller has not re-confirmed."""
        return self.safety.staleness.stale

    def _tag_stale(self, record: dict) -> dict:
        """Mark records produced under a stale pinglist (absent = fresh,
        so healthy-run record bytes are unchanged)."""
        if self.pinglist_stale:
            record["pinglist_stale"] = True
        return record

    def _tag_stale_many(self, batch: RecordBatch) -> RecordBatch:
        if self.pinglist_stale:
            batch.stale = True
        return batch

    @property
    def probe_interval_s(self) -> float:
        """The effective (safety-clamped) per-pair probe interval."""
        requested = (
            self.pinglist.parameters.probe_interval_s if self.pinglist else 60.0
        )
        return self.safety.clamp_probe_interval(requested)

    # -- probing ---------------------------------------------------------------

    def run_probe_round(self, t: float) -> int:
        """Probe every peer in the pinglist once.  Returns probes launched.

        The system schedules rounds at :attr:`probe_interval_s` in
        ``"fast"`` mode, so each source-destination pair is probed at most
        once per interval — honouring the hard 10 s floor.  The round goes
        through :meth:`~repro.netsim.fabric.Fabric.probe_many` (one call for
        the whole pinglist, counters and uploader fed in bulk); VIP probes
        take the scalar engine because resolution and the dark-VIP record
        are per-probe decisions.  In ``"class"`` mode nothing calls this:
        :class:`~repro.core.sharded.ShardedFleet` probes the pinglists.
        """
        if not self.probing:
            return 0
        if not self.fabric.topology.server(self.server_id).is_up:
            # The host lost power (podset down): no process, no probes, no
            # data — which is exactly what paints Figure 8(b)'s white cross.
            return 0
        launched = 0
        vip_entries, probe_entries, tags = self._round_entries()
        for entry in vip_entries:
            launched += self._probe_vip(entry, t)
        if probe_entries:
            launched += self._record_results(
                self.fabric.probe_many(self.server_id, probe_entries, t=t), tags, t
            )
        self.probes_sent += launched
        self.rounds_run += 1
        self._account_resources(launched)
        return launched

    def _probe_vip(self, entry, t: float) -> int:
        """One VIP availability probe (scalar; §6.2).  Returns probes made."""
        if self.vip_resolver is None:
            return 0  # deployment without a VIP data plane
        peer_id = self.vip_resolver(entry.peer_id)
        if peer_id is None:
            # The VIP is dark (no live DIP): that IS the measurement
            # VIP monitoring exists to make (§6.2).
            self.counters.add(False, 0.0)
            self.uploader.add(self._tag_stale(self._vip_down_record(entry, t)))
            if self.stream_aggregator is not None:
                self.stream_aggregator.observe(t, "vip", False, 0.0)
            return 1
        payload = self.safety.clamp_payload(entry.payload_bytes)
        dst_port = self.pinglist.parameters.port_for(entry.qos, entry.purpose)
        result = self.fabric.probe(
            self.server_id, peer_id, t=t, payload_bytes=payload, dst_port=dst_port
        )
        self.counters.add(result.success, result.rtt_s)
        self.uploader.add(
            self._tag_stale(
                make_record(
                    self.fabric.topology, result, purpose=entry.purpose, qos=entry.qos
                )
            )
        )
        if self.stream_aggregator is not None:
            self.stream_aggregator.observe(
                t, "vip", result.success, result.rtt_s * 1e6
            )
        return 1

    def _record_results(self, probes: ProbeBatch, tags, t: float) -> int:
        """Feed one engine call's probes, tagged ``(purpose, qos)``, to the
        three sinks — counters, stream aggregator, uploader, in that order
        — as columns of the one record batch they become.  Returns the
        number of probes recorded."""
        batch = make_records(
            self.fabric.topology, probes, tags, self._record_server_cache
        )
        self.counters.add_many(batch.success, batch.rtt_us)
        if self.stream_aggregator is not None:
            self.stream_aggregator.observe_round(
                t, batch.static.classes, batch.success, batch.rtt_us
            )
        self.uploader.add_many(self._tag_stale_many(batch))
        return batch.n

    def _round_entries(
        self,
    ) -> tuple[list, tuple[tuple[str, int, int], ...], tuple[tuple[str, str], ...]]:
        """The round's (vip entries, probe_many entries, tags), memoized.

        A pinglist is an immutable snapshot from the controller, so the
        partition into VIP work and fast-path entries is computed once per
        pinglist object instead of once per round.  The triples and tags
        themselves belong to the (interned) entries: agents probing the
        same peer hold the same two tuples, not a pair each.
        """
        plan = self._round_plan
        if plan is not None and plan[0] is self.pinglist:
            return plan[1], plan[2], plan[3]
        vip_entries: list = []
        probe_entries: list[tuple[str, int, int]] = []
        tags: list[tuple[str, str]] = []
        port_for = self.pinglist.parameters.port_for
        clamp_payload = self.safety.clamp_payload
        for entry in self.pinglist.entries:
            if entry.purpose == "vip":
                vip_entries.append(entry)
                continue
            probe_entries.append(
                entry.probe_entry(
                    port_for(entry.qos, entry.purpose),
                    clamp_payload(entry.payload_bytes),
                )
            )
            tags.append(entry.tag)
        # Tuples: what the engine and the record path key their per-pinglist
        # work on (a round plan, its static columns) must not be writable.
        plan = (self.pinglist, vip_entries, tuple(probe_entries), tuple(tags))
        self._round_plan = plan
        return plan[1:]

    def _vip_down_record(self, entry, t: float) -> dict:
        """A failed availability probe of a dark VIP.

        No DIP means no pod-pair coordinates; destination indices are -1,
        which the heatmap and pod-pair jobs ignore.
        """
        me = self.fabric.topology.server(self.server_id)
        return {
            "t": t,
            "src": self.server_id,
            "dst": entry.peer_id,
            "src_dc": me.dc_index,
            "dst_dc": me.dc_index,
            "src_podset": me.podset_index,
            "dst_podset": -1,
            "src_pod": me.pod_index,
            "dst_pod": -1,
            "purpose": "vip",
            "qos": entry.qos,
            "success": False,
            "rtt_us": 0.0,
            "syn_drops": 0,
            "payload_rtt_us": None,
            "error": "vip_down",
        }

    def _account_resources(self, probes: int) -> None:
        """Charge CPU per probe and recompute the memory footprint.

        Raises :class:`~repro.autopilot.shared_service.ResourceBudgetExceeded`
        (terminating the agent) if the footprint crosses the OS cap — the
        fail-closed behaviour of §3.4.2.
        """
        memory_mb = (
            BASE_MEMORY_MB
            + self.uploader.buffered_records * MEMORY_PER_RECORD_KB / 1024.0
            + self.counters.sketch.memory_buckets
            * MEMORY_PER_SKETCH_BUCKET_BYTES
            / 1e6
            + self.uploader.local_log_bytes / 1e6
        )
        if self.stream_aggregator is not None:
            memory_mb += (
                self.stream_aggregator.memory_buckets
                * MEMORY_PER_SKETCH_BUCKET_BYTES
                / 1e6
            )
        self.charge(
            cpu_seconds=probes * CPU_PER_PROBE_S,
            memory_mb=memory_mb,
            sent_bytes=probes * 120,  # SYN+SYN-ACK+upload overhead estimate
        )

    # -- upload ---------------------------------------------------------------

    def maybe_upload(self, t: float) -> bool:
        """Flush results when the timer fires or the threshold is crossed.

        Returns True only when the data actually reached the store: a flush
        that retried out and discarded its batch reports False, and the
        discard stays visible in ``uploader.stats`` (and the PA counters) —
        the window is reset either way, so a later recovering store never
        re-counts data that was already given up on.
        """
        if not self.running:
            return False
        if not self.fabric.topology.server(self.server_id).is_up:
            return False
        timer_due = (t - self.last_upload_t) >= self.config.upload_period_s
        if (
            not timer_due
            and not self.uploader.should_flush
            and not self.uploader.replay_due(t)
        ):
            return False
        uploaded = self.uploader.flush(t)
        self.last_upload_t = t
        self.counters.reset_window()
        return uploaded

    # -- PA counters ------------------------------------------------------------

    def perf_counters(self, now: float) -> dict[str, float]:
        counters = super().perf_counters(now)
        counters.update(self.counters.snapshot())
        counters["probes_sent_total"] = float(self.probes_sent)
        counters["peer_count"] = float(len(self.pinglist) if self.pinglist else 0)
        counters["fail_closed"] = 1.0 if self.safety.fail_closed else 0.0
        counters["pinglist_stale"] = 1.0 if self.pinglist_stale else 0.0
        stats = self.uploader.stats
        counters["upload_records_uploaded"] = float(stats.records_uploaded)
        counters["upload_records_discarded"] = float(stats.records_discarded)
        counters["upload_records_spooled"] = float(stats.records_spooled)
        counters["upload_records_replayed"] = float(stats.records_replayed)
        counters["upload_failures"] = float(stats.upload_failures)
        return counters
