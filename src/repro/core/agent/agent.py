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
from repro.core.dsa.records import (
    CLASS_STREAM,
    RecordBatch,
    make_class_record,
    make_record,
    make_records,
)
from repro.netsim.devices import StateVersion
from repro.netsim.fabric import Fabric, ProbeBatch
from repro.resilience import PinglistState, RetryPolicy, derive_seed

__all__ = ["AgentConfig", "PingmeshAgent"]


@dataclass(frozen=True)
class AgentConfig:
    """Agent tunables.

    The resource-model constants approximate the production measurements of
    Figure 3: ~2500 peers probed with <45 MB memory and ~0.26 % CPU.
    """

    pinglist_refresh_s: float = 1800.0  # periodic pull from the controller
    upload_period_s: float = 600.0  # the upload timer
    # "scalar" | "fast" | "class": rung of the fidelity ladder for non-VIP
    # probe rounds.  "scalar" is the reference (one Fabric.probe per peer),
    # "fast" routes the round through Fabric.probe_many, "class" compiles
    # the pinglist into closed-form class rounds (Fabric.build_class_plan),
    # degrading per pair to the fast path whenever fidelity cannot be traded.
    round_mode: str = "fast"
    upload_threshold_records: int = 2000  # ... or the size threshold
    # Degraded-mode resilience: jittered refresh scheduling + backoff on
    # refresh failure (the STALE / FAIL_CLOSED recovery paths) and the
    # uploader's spool-and-replay retry policy.  resilient_refresh=False
    # reverts to fixed-period refresh — the stampede bench's control arm.
    resilient_refresh: bool = True
    refresh_jitter_fraction: float = 0.1  # period * U(1-f, 1+f)
    refresh_retry_base_s: float = 30.0
    refresh_retry_cap_s: float = 600.0
    upload_retry_base_s: float = 60.0
    upload_retry_cap_s: float = 600.0
    upload_spool_cap_records: int = 20_000
    memory_cap_mb: float = 80.0
    cpu_cap_fraction: float = 0.05
    cpu_per_probe_s: float = 10e-6  # CPU charged per probe
    base_memory_mb: float = 24.0  # code + runtime footprint
    memory_per_record_kb: float = 0.25  # buffered upload record
    memory_per_sketch_bucket_bytes: float = 16.0  # counters / stream sketch bucket

    def __post_init__(self) -> None:
        if self.pinglist_refresh_s <= 0:
            raise ValueError(f"refresh period must be positive: {self.pinglist_refresh_s}")
        if self.upload_period_s <= 0:
            raise ValueError(f"upload period must be positive: {self.upload_period_s}")
        if self.round_mode not in ("scalar", "fast", "class"):
            raise ValueError(f"unknown round mode: {self.round_mode!r}")
        if not 0.0 <= self.refresh_jitter_fraction < 1.0:
            raise ValueError(
                f"jitter fraction must be in [0, 1): {self.refresh_jitter_fraction}"
            )
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
            memory_cap_mb=self.config.memory_cap_mb,
            cpu_cap_fraction=self.config.cpu_cap_fraction,
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
        # Class-round state: summary rows ship on their own stream so the
        # per-probe scanners never see a wrong-schema record.
        self.class_uploader: ResultUploader | None = None
        if self.config.round_mode == "class":
            self.class_uploader = ResultUploader(
                uploader.store,
                server_id,
                stream=CLASS_STREAM,
                flush_threshold_records=self.config.upload_threshold_records,
                retry_base_s=self.config.upload_retry_base_s,
                retry_cap_s=self.config.upload_retry_cap_s,
                spool_cap_records=self.config.upload_spool_cap_records,
            )
        # Refresh scheduling: a per-agent seeded RNG stream drives both the
        # steady-state jittered period and the failure backoff, so a fleet
        # recovering from a controller outage spreads its re-polls instead
        # of thundering (and the schedule is identical run to run).
        self.refresh_retry = RetryPolicy(
            self.config.refresh_retry_base_s,
            self.config.refresh_retry_cap_s,
            seed=derive_seed(server_id, "pinglist-refresh"),
        )
        self._class_plan: tuple | None = None  # (pinglist, version, compiled)
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
                period, self.config.refresh_jitter_fraction
            )
        return self.refresh_retry.next_delay(cap_s=period)

    def _stop_probing(self) -> None:
        """Remove all ping peers; keep running (and keep answering pings)."""
        self.pinglist = None

    # Class-level defaults: the setters compare against them on the first
    # assignment (``SharedService.__init__`` writes ``running``).
    _running = False
    _pinglist: Pinglist | None = None

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
        return any(
            uploader is not None and (uploader.buffered_records or uploader.spool)
            for uploader in (self.uploader, self.class_uploader)
        )

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

        The system schedules rounds at :attr:`probe_interval_s`, so each
        source-destination pair is probed at most once per interval —
        honouring the hard 10 s floor.  Unless ``config.round_mode`` is
        ``"scalar"`` the round goes through
        :meth:`~repro.netsim.fabric.Fabric.probe_many` (one call for the
        whole pinglist, counters and uploader fed in bulk); VIP probes
        always take the scalar engine because resolution and the dark-VIP
        record are per-probe decisions.
        """
        if not self.probing:
            return 0
        if not self.fabric.topology.server(self.server_id).is_up:
            # The host lost power (podset down): no process, no probes, no
            # data — which is exactly what paints Figure 8(b)'s white cross.
            return 0
        if self.config.round_mode == "scalar":
            launched = self._run_probe_round_scalar(t)
        elif self.config.round_mode == "class":
            launched = self._run_probe_round_class(t)
        else:
            launched = self._run_probe_round_fast(t)
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

    def _run_probe_round_scalar(self, t: float) -> int:
        """Reference round: one :meth:`Fabric.probe` call per peer, in
        pinglist order; results are recorded a run at a time, each run
        before the next VIP probe so rows keep that order too."""
        launched = 0
        results: list = []
        tags: list[tuple[str, str]] = []
        for entry in self.pinglist.entries:
            if entry.purpose == "vip":
                launched += self._record_scalar_run(results, tags, t)
                results, tags = [], []
                launched += self._probe_vip(entry, t)
                continue
            payload = self.safety.clamp_payload(entry.payload_bytes)
            dst_port = self.pinglist.parameters.port_for(entry.qos, entry.purpose)
            results.append(
                self.fabric.probe(
                    self.server_id, entry.peer_id, t=t,
                    payload_bytes=payload, dst_port=dst_port,
                )
            )
            tags.append((entry.purpose, entry.qos))
        return launched + self._record_scalar_run(results, tags, t)

    def _record_scalar_run(self, results: list, tags: list, t: float) -> int:
        """Record one run of scalar probes (none: a VIP entry came first)."""
        if not results:
            return 0
        return self._record_results(ProbeBatch.from_results(results), tags, t)

    def _record_results(self, probes: ProbeBatch, tags, t: float) -> int:
        """Feed one engine call's probes, tagged ``(purpose, qos)``, to the
        three sinks — counters, stream aggregator, uploader, in that order
        — as columns of the one record batch they become.  Returns the
        number of probes recorded."""
        batch = make_records(
            self.fabric.topology, probes, tags, self._record_server_cache
        )
        self.counters.add_many(zip(probes.success.tolist(), probes.rtt_s.tolist()))
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

    def _run_probe_round_fast(self, t: float) -> int:
        """Fast round: the whole pinglist in one ``probe_many`` call."""
        launched = 0
        vip_entries, probe_entries, tags = self._round_entries()
        for entry in vip_entries:
            launched += self._probe_vip(entry, t)
        if probe_entries:
            launched += self._record_results(
                self.fabric.probe_many(self.server_id, probe_entries, t=t), tags, t
            )
        return launched

    def _current_class_plan(self) -> tuple:
        """The compiled class plan for the current pinglist + fabric
        generation with its degraded pairs' round — ``(plan, entries,
        tags)``, the last two as tuples the engine keys its own per-round
        plan on — rebuilt only when either changes."""
        version = self.fabric.topology.state_version.value
        cached = self._class_plan
        if (
            cached is not None
            and cached[0] is self.pinglist
            and cached[1] == version
        ):
            return cached[2]
        _vip_entries, probe_entries, tags = self._round_entries()
        plan = self.fabric.build_class_plan(self.server_id, probe_entries, tags)
        compiled = (
            plan,
            tuple([probe_entries[i] for i in plan.passthrough]),
            tuple([tags[i] for i in plan.passthrough]),
        )
        self._class_plan = (self.pinglist, version, compiled)
        return compiled

    def _run_probe_round_class(self, t: float) -> int:
        """Closed-form round: class groups in one draw each, degraded pairs
        through the per-pair fast path, VIPs scalar — the fidelity ladder
        top rung."""
        launched = 0
        vip_entries, probe_entries, _tags = self._round_entries()
        for entry in vip_entries:
            launched += self._probe_vip(entry, t)
        if not probe_entries:
            return launched
        plan, pass_entries, pass_tags = self._current_class_plan()
        if pass_entries:
            launched += self._record_results(
                self.fabric.probe_many(self.server_id, pass_entries, t=t),
                pass_tags,
                t,
            )
        if plan.groups:
            me = self.fabric.topology.server(self.server_id)
            for outcome in self.fabric.run_class_plan(plan, t=t):
                self.counters.add_class_round(outcome.failed, outcome.rtt_s)
                if self.stream_aggregator is not None:
                    self.stream_aggregator.observe_class_round(
                        t, outcome.purpose, outcome.failed, outcome.rtt_s * 1e6
                    )
                self.class_uploader.add(
                    self._tag_stale(
                        make_class_record(
                            outcome, t, self.server_id,
                            me.dc_index, me.podset_index, me.pod_index,
                        )
                    )
                )
            launched += plan.n_class_probes
        return launched

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
        config = self.config
        memory_mb = (
            config.base_memory_mb
            + self.uploader.buffered_records * config.memory_per_record_kb / 1024.0
            + self.counters.sketch.memory_buckets
            * config.memory_per_sketch_bucket_bytes
            / 1e6
            + self.uploader.local_log_bytes / 1e6
        )
        if self.class_uploader is not None:
            memory_mb += (
                self.class_uploader.buffered_records
                * config.memory_per_record_kb
                / 1024.0
                + self.class_uploader.local_log_bytes / 1e6
            )
        if self.stream_aggregator is not None:
            memory_mb += (
                self.stream_aggregator.memory_buckets
                * config.memory_per_sketch_bucket_bytes
                / 1e6
            )
        self.charge(
            cpu_seconds=probes * config.cpu_per_probe_s,
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
        class_due = (
            self.class_uploader is not None and self.class_uploader.should_flush
        )
        replay_due = self.uploader.replay_due(t) or (
            self.class_uploader is not None and self.class_uploader.replay_due(t)
        )
        if (
            not timer_due
            and not self.uploader.should_flush
            and not class_due
            and not replay_due
        ):
            return False
        uploaded = self.uploader.flush(t)
        if self.class_uploader is not None:
            uploaded = self.class_uploader.flush(t) and uploaded
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
