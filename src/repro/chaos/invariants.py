"""The invariant catalogue: what must hold *while* the system is failing.

Each invariant maps to a paper claim:

===========================  ==============================================
invariant                    claim
===========================  ==============================================
``probe-spacing-floor``      §3.4.2 — no source-destination pair probed
                             more often than once per 10 s, ever.
``payload-cap``              §3.4.2 — no probe payload above 64 KB, ever.
``fail-closed-silent``       §3.4.2 — an agent that fell closed (controller
                             unreachable 3×, or 404) sends zero probes.
``dead-agent-silent``        a terminated or powered-off agent sends zero
                             probes (Figure 8(b)'s white cross is *absence*
                             of data, never fabricated data).
``uploader-bounded``         §3.4.2 — the upload buffer, retry spool and
                             local log stay within their configured caps.
``uploader-accounting``      §3.4.2 — every record added is uploaded,
                             discarded, still buffered, or parked in the
                             retry spool; discards are visible in
                             :class:`UploadStats`, never silent.
``drop-rate-honest``         §4.2 — a window with failed probes never
                             reports a 0.0 drop rate (the black-holed-
                             server-looks-perfect bug class).
``watchdog-latency``         §3.5 — each injected fault that a watchdog
                             covers reaches ERROR within a bounded delay.
``repair-ground-truth``      §5 — every repair the system files targets a
                             device actually implicated by an injected
                             fault (checked against the fault schedule and
                             ``netsim.explain`` culprits — no scapegoats).
``sla-ground-truth``         §4.3 — on a network with no injected fault,
                             macro SLA rows stay inside alert thresholds.
``probe-conservation``       every probe the fabric counted (carried or
                             refused) was in a round report — neither the
                             scalar engine, the ``probe_many`` fast path nor
                             a class round may lose or invent probes.
``stream-delta-conservation``  every probe folded into the streaming plane
                             is in exactly one emitted delta or still
                             pending, and every emitted probe was ingested,
                             dropped (VIP dark — counted), or rejected
                             (straggler — counted).  Nothing double-counted,
                             nothing silently lost.
``stream-freshness``         when the ingest VIP is healthy and deltas were
                             emitted since the last check, ingest must have
                             advanced — detection latency stays bounded
                             whenever the plane *can* ingest.
``upload-replay-no-duplication``  spool-and-replay — records landing in
                             Cosmos since attach equal the records the
                             fleet's uploaders (the agents', plus the
                             shards' under a sharded fleet) report
                             uploaded: a spooled batch replays exactly
                             once after a blackout heals, never twice, and
                             the store never gains records no uploader
                             sent.
``staleness-state-machine``  §3.4.2 — the FRESH/STALE/FAIL_CLOSED tracker
                             agrees with the fail-closed rule it asserts:
                             FAIL_CLOSED exactly on the paper's triggers
                             (3 consecutive connect failures, or a 404),
                             STALE only with 1-2 failures, FRESH only with
                             a clean streak.
``refresh-herd-factor``      recovery must not stampede the controller —
                             jittered refresh periods and decorrelated
                             backoff keep the peak per-second pinglist
                             request rate under half the fleet size.
``tenant-quota-conservation``  broker — every tenant credit account obeys
                             ``balance == granted - debited + refunded -
                             expired`` with a non-negative balance: no
                             admission decision mints, loses, or
                             double-spends credits.
``injected-probe-ledger``    broker — launched == delivered broker-wide,
                             and no request channel ever launches more
                             probes than its admission granted: injected
                             work cannot leak past its credit grant or
                             vanish without reaching a result channel.
``broker-no-starvation``     broker — every round's injection stays
                             within the configured per-round cap (the
                             baseline pinglist round always keeps its
                             share), and the per-round log sums exactly
                             to the launch ledger.
===========================  ==============================================

The checker registers on ``fabric.round_observers``: every engine call —
a scalar probe, a ``probe_many`` draw, a class round per source — reports
``(src_id, entries, t)`` once, and the five probe-path checks (payload cap,
spacing floor, fail-closed and dead-agent silence, conservation count) run
over that report, reading the source's state once; the full catalogue runs
at phase boundaries (or per event-queue step in step mode).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.broker.requests import ADMITTED, LAUNCHED
from repro.core.agent.safety import (
    MAX_CONTROLLER_FAILURES,
    MAX_PAYLOAD_BYTES,
    MIN_PROBE_INTERVAL_S,
)
from repro.core.dsa.alerts import AlertEngine
from repro.core.dsa.records import CLASS_STREAM, LATENCY_STREAM
from repro.core.dsa.sla import NetworkSla
from repro.netsim.explain import explain_probe
from repro.resilience import PinglistState

__all__ = ["Violation", "InvariantChecker"]

# A pair may be probed exactly at the floor; only genuinely faster is a
# violation.  The epsilon absorbs float scheduling jitter.
_SPACING_EPSILON_S = 1e-6


@dataclass(frozen=True)
class Violation:
    """One invariant breach observed at one simulated instant."""

    t: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.t:.1f}s] {self.invariant}: {self.detail}"


@dataclass
class _WatchdogExpectation:
    name: str
    start_t: float
    deadline: float
    resolved: bool = False


class InvariantChecker:
    """Continuously checks system-wide invariants on a running deployment."""

    def __init__(
        self,
        system,
        watchdog_grace_s: float | None = None,
        explain_sample_pairs: int = 4,
    ) -> None:
        self.system = system
        # Default bound: two watchdog sweeps plus slack — a fault must be
        # caught by the next sweep, the slack forgives boundary alignment.
        self.watchdog_grace_s = (
            watchdog_grace_s
            if watchdog_grace_s is not None
            else 2 * system.env.watchdogs.check_period_s + 10.0
        )
        self.explain_sample_pairs = explain_sample_pairs
        self.violations: list[Violation] = []
        self.probes_observed = 0
        self.checks_run = 0
        self._last_probe_t: dict[tuple[str, str, int, bool], float] = {}
        self._dirty_agents: set[str] = set()
        self._expectations: list[_WatchdogExpectation] = []
        self._implicated: set[str] = set()  # union over the whole campaign
        self._ever_faulted = False
        self._repairs_checked = 0
        self._attached = False
        self._ledger_baseline = (0, 0, 0)
        # (emitted, ingested, dropped, rejected) at the previous phase
        # check — the freshness invariant reasons about the delta since.
        self._stream_baseline = (0, 0, 0, 0)
        # Spool-and-replay ledger: (stored latency, stored class, uploaded
        # latency, uploaded class) at attach time.
        self._upload_baseline = (0, 0, 0, 0)
        # Herd telemetry: the bucket the checker attached in is excluded
        # (a synchronous fleet start legitimately lands in one second).
        self._herd_attach_second = -1
        self._herd_reported_seconds: set[int] = set()

    # -- probe-path hook ---------------------------------------------------

    def attach(self) -> None:
        """Register as a fabric round observer; every round is checked inline.

        Every engine reports what it probed, so the checker sees the whole
        probe stream regardless of which engine carried it.  The ledger
        baseline anchors the probe-conservation invariant to attach time.
        """
        if self._attached:
            return
        self._attached = True
        fabric = self.system.fabric
        fabric.round_observers.append(self._on_round)
        self._ledger_baseline = (
            fabric.probes_carried,
            fabric.probes_refused,
            self.probes_observed,
        )
        self._upload_baseline = self._upload_ledger()
        self._herd_attach_second = int(self.system.clock.now)

    def detach(self) -> None:
        if not self._attached:
            return
        try:
            self.system.fabric.round_observers.remove(self._on_round)
        except ValueError:
            pass
        self._attached = False

    def _on_round(self, src_id: str, entries, t: float) -> None:
        """One engine call's probes from ``src_id`` at ``t``."""
        self.probes_observed += len(entries)
        agent = self.system.agents.get(src_id)
        silenced = []
        if agent is not None:
            self._dirty_agents.add(src_id)
            if agent.safety.fail_closed:
                silenced.append(
                    (
                        "fail-closed-silent",
                        f"fail-closed agent {src_id} sent a probe "
                        f"({agent.safety.fail_closed_reason})",
                    )
                )
            if not agent.running:
                silenced.append(
                    ("dead-agent-silent", f"terminated agent {src_id} sent a probe")
                )
            elif not self.system.topology.server(src_id).is_up:
                silenced.append(
                    ("dead-agent-silent", f"powered-off server {src_id} sent a probe")
                )
        last_probe_t = self._last_probe_t
        floor = MIN_PROBE_INTERVAL_S - _SPACING_EPSILON_S
        for dst_id, dst_port, payload_bytes in entries:
            if payload_bytes > MAX_PAYLOAD_BYTES:
                self._violate(
                    t,
                    "payload-cap",
                    f"{src_id} sent {payload_bytes} B to {dst_id} "
                    f"(cap {MAX_PAYLOAD_BYTES} B)",
                )
            # One peer can legitimately carry up to three probe classes per
            # round (high QoS, low QoS, payload ping) — the 10 s floor binds
            # per (pair, probe class), matching what the generator emits.
            key = (src_id, dst_id, dst_port, payload_bytes > 0)
            last = last_probe_t.get(key)
            if last is not None and (t - last) < floor:
                self._violate(
                    t,
                    "probe-spacing-floor",
                    f"{src_id} -> {dst_id} probed {t - last:.3f}s after the "
                    f"previous probe (floor {MIN_PROBE_INTERVAL_S:.0f}s)",
                )
            last_probe_t[key] = t
            for invariant, detail in silenced:
                self._violate(t, invariant, detail)

    # -- campaign bookkeeping ----------------------------------------------

    def note_ground_truth(self, devices: set[str]) -> None:
        """Record devices implicated by a fault that just started."""
        self._implicated.update(devices)

    def note_fault_started(self) -> None:
        self._ever_faulted = True

    def expect_watchdog_error(
        self, name: str, start_t: float, within_s: float | None = None
    ) -> None:
        """A fault just started that watchdog ``name`` must catch."""
        grace = within_s if within_s is not None else self.watchdog_grace_s
        self._expectations.append(
            _WatchdogExpectation(name=name, start_t=start_t, deadline=start_t + grace)
        )

    # -- per-step (cheap) checks -------------------------------------------

    def after_step(self) -> None:
        """O(touched agents) checks after one event-queue step."""
        if not self._dirty_agents:
            return
        now = self.system.clock.now
        for server_id in self._dirty_agents:
            agent = self.system.agents.get(server_id)
            if agent is not None:
                self._check_agent(agent, now)
        self._dirty_agents.clear()

    def _check_agent(self, agent, now: float) -> None:
        self._check_uploader(agent.server_id, agent.uploader, now)
        self._check_staleness_machine(agent, now)
        counters = agent.counters
        if counters.probes_failed > 0 and counters.drop_rate() <= 0.0:
            self._violate(
                now,
                "drop-rate-honest",
                f"{agent.server_id}: {counters.probes_failed} failed probes in "
                f"window but drop rate {counters.drop_rate()}",
            )

    def _check_uploader(self, server_id: str, uploader, now: float) -> None:
        if uploader.buffered_records > uploader.max_buffer_records:
            self._violate(
                now,
                "uploader-bounded",
                f"{server_id} buffers {uploader.buffered_records} records "
                f"(cap {uploader.max_buffer_records})",
            )
        if uploader.spooled_records > uploader.spool.cap_records:
            self._violate(
                now,
                "uploader-bounded",
                f"{server_id} spools {uploader.spooled_records} records "
                f"(cap {uploader.spool.cap_records})",
            )
        if uploader.local_log_bytes > uploader.log_cap_bytes:
            self._violate(
                now,
                "uploader-bounded",
                f"{server_id} local log at {uploader.local_log_bytes} B "
                f"(cap {uploader.log_cap_bytes} B)",
            )
        stats = uploader.stats
        accounted = (
            stats.records_uploaded
            + stats.records_discarded
            + uploader.buffered_records
            + uploader.spooled_records
        )
        if accounted != stats.records_added:
            self._violate(
                now,
                "uploader-accounting",
                f"{server_id}: {stats.records_added} added but "
                f"{stats.records_uploaded} uploaded + {stats.records_discarded} "
                f"discarded + {uploader.buffered_records} buffered + "
                f"{uploader.spooled_records} spooled = {accounted}",
            )

    def _check_staleness_machine(self, agent, now: float) -> None:
        """The tracker must agree with the fail-closed rule it asserts."""
        safety = agent.safety
        tracker = safety.staleness
        if safety.fail_closed != tracker.fail_closed:
            self._violate(
                now,
                "staleness-state-machine",
                f"{agent.server_id}: fail_closed={safety.fail_closed} but "
                f"pinglist state is {tracker.state.value}",
            )
            return
        failures = safety.consecutive_failures
        if tracker.state is PinglistState.FRESH and failures != 0:
            self._violate(
                now,
                "staleness-state-machine",
                f"{agent.server_id}: FRESH with {failures} consecutive "
                f"controller failures",
            )
        elif tracker.state is PinglistState.STALE and not (
            1 <= failures < MAX_CONTROLLER_FAILURES
        ):
            self._violate(
                now,
                "staleness-state-machine",
                f"{agent.server_id}: STALE with {failures} consecutive "
                f"controller failures (legal: 1-"
                f"{MAX_CONTROLLER_FAILURES - 1})",
            )
        elif tracker.state is PinglistState.FAIL_CLOSED:
            reason = tracker.transitions[-1][3] if tracker.transitions else ""
            if failures < MAX_CONTROLLER_FAILURES and reason != "pinglist-404":
                self._violate(
                    now,
                    "staleness-state-machine",
                    f"{agent.server_id}: FAIL_CLOSED without a paper trigger "
                    f"({failures} failures, last transition {reason!r})",
                )

    def _check_stale_gauge(self, now: float) -> None:
        """The pushed stale-agent gauge must equal a recount of the agents."""
        system = self.system
        recount = sum(agent.pinglist_stale for agent in system.agents.values())
        if system.stale_agents != recount:
            self._violate(
                now,
                "staleness-state-machine",
                f"stale-agent gauge reads {system.stale_agents} but "
                f"{recount} agent(s) are STALE",
            )

    # -- phase (full-catalogue) checks -------------------------------------

    def check_phase(self) -> list[Violation]:
        """Run the full catalogue.  Returns violations found *this* check."""
        before = len(self.violations)
        now = self.system.clock.now
        self.checks_run += 1
        self.after_step()
        for agent in self.system.agents.values():
            self._check_agent(agent, now)
        self._check_stale_gauge(now)
        self._check_watchdog_latency(now)
        self._check_repair_ground_truth(now)
        self._check_sla_ground_truth(now)
        self._check_probe_conservation(now)
        self._check_stream_plane(now)
        self._check_upload_replay(now)
        self._check_refresh_herd(now)
        self._check_broker(now)
        return self.violations[before:]

    def _upload_ledger(self) -> tuple[int, int, int, int]:
        """(stored latency, stored class, uploaded latency, uploaded class)."""
        store = self.system.store
        stored_latency = (
            store.stream(LATENCY_STREAM).record_count
            if store.has_stream(LATENCY_STREAM)
            else 0
        )
        stored_class = (
            store.stream(CLASS_STREAM).record_count
            if store.has_stream(CLASS_STREAM)
            else 0
        )
        fleet = self.system.fleet
        shards = list(fleet.shards.values()) if fleet is not None else []
        uploaded_latency = sum(
            agent.uploader.stats.records_uploaded
            for agent in self.system.agents.values()
        ) + sum(shard.probe_uploader.stats.records_uploaded for shard in shards)
        uploaded_class = sum(
            shard.class_uploader.stats.records_uploaded for shard in shards
        )
        return stored_latency, stored_class, uploaded_latency, uploaded_class

    def _check_upload_replay(self, now: float) -> None:
        """Since attach, Cosmos gained exactly the records the uploaders
        report uploaded — a spooled batch replays once, never twice, and
        nothing lands that no uploader sent (the store never expires
        data, so nothing can shrink it)."""
        if not self._attached:
            return
        base_lat, base_cls, base_up_lat, base_up_cls = self._upload_baseline
        stored_lat, stored_cls, up_lat, up_cls = self._upload_ledger()
        for label, stored_delta, uploaded_delta in (
            (LATENCY_STREAM, stored_lat - base_lat, up_lat - base_up_lat),
            # Agents never write the class stream; ShardedFleet's shards do.
            (CLASS_STREAM, stored_cls - base_cls, up_cls - base_up_cls),
        ):
            if stored_delta != uploaded_delta:
                kind = "duplicated" if stored_delta > uploaded_delta else "lost"
                self._violate(
                    now,
                    "upload-replay-no-duplication",
                    f"{label}: store gained {stored_delta} records since "
                    f"attach but uploaders sent {uploaded_delta} "
                    f"({abs(stored_delta - uploaded_delta)} {kind})",
                )

    def _herd_limit(self) -> int:
        agents = getattr(self.system, "agents", {})
        fleet = len(agents)
        if fleet == 0:
            # No agent table: size the herd bound from the topology.  The
            # replicas' file caches are lazily populated and say nothing
            # about fleet size anymore.
            controller = self.system.controller
            topology = getattr(controller, "topology", None)
            fleet = getattr(topology, "n_servers", 0)
        return max(4, -(-fleet // 2))

    def _check_refresh_herd(self, now: float) -> None:
        """No post-attach second may see a pinglist-request stampede.

        Jittered refresh periods and decorrelated backoff exist precisely
        so that a fleet recovering from a controller outage does not hit
        the VIP in one synchronized burst; the bound is half the fleet
        (floored at 4 so tiny topologies aren't flagged for a coincidence).
        """
        if not self._attached:
            return
        limit = self._herd_limit()
        buckets = self.system.controller.requests_by_second
        for second, count in buckets.items():
            if second <= self._herd_attach_second:
                continue
            if count > limit and second not in self._herd_reported_seconds:
                self._herd_reported_seconds.add(second)
                self._violate(
                    now,
                    "refresh-herd-factor",
                    f"{count} pinglist requests in second {second} "
                    f"(herd limit {limit})",
                )

    def _check_broker(self, now: float) -> None:
        """The three broker invariants (no-ops without an attached broker).

        ``tenant-quota-conservation``: every credit account's ledger
        balances exactly.  ``injected-probe-ledger``: launched probes all
        reach a result channel, and no channel exceeds its admission
        grant.  ``broker-no-starvation``: per-round injection stays within
        the configured cap and the round log accounts for every launch.
        """
        broker = getattr(self.system, "broker", None)
        if broker is None:
            return
        for account in broker.accounts.values():
            if not account.conserved():
                self._violate(
                    now,
                    "tenant-quota-conservation",
                    f"tenant {account.tenant_id} ledger does not balance: "
                    f"{account.ledger()}",
                )
        if broker.probes_launched != broker.probes_delivered:
            self._violate(
                now,
                "injected-probe-ledger",
                f"{broker.probes_launched} probes launched but "
                f"{broker.probes_delivered} delivered to result channels",
            )
        ledger = broker.ledger.table[: broker._next_request_id]
        for rid in (ledger[:, LAUNCHED] > ledger[:, ADMITTED]).nonzero()[0].tolist():
            launched, admitted = ledger[rid, [LAUNCHED, ADMITTED]].tolist()
            self._violate(
                now,
                "injected-probe-ledger",
                f"request {rid} launched {launched} probes past its grant of {admitted}",
            )
        for t, injected, cap in broker.round_log:
            if injected > cap:
                self._violate(
                    now,
                    "broker-no-starvation",
                    f"round at t={t:.0f} injected {injected} probes past "
                    f"the per-round cap {cap}",
                )
        if broker._round_injected_total != broker.probes_launched:
            self._violate(
                now,
                "broker-no-starvation",
                f"round log accounts for {broker._round_injected_total} "
                f"injected probes but {broker.probes_launched} launched",
            )

    def _check_stream_plane(self, now: float) -> None:
        """Streaming-plane conservation and freshness (see the catalogue)."""
        stream = self.system.stream
        ledger = stream.conservation()
        folded = ledger["probes_folded"]
        emitted = ledger["probes_emitted"]
        pending = ledger["probes_pending"]
        if folded != emitted + pending:
            self._violate(
                now,
                "stream-delta-conservation",
                f"{folded} probes folded but {emitted} emitted + "
                f"{pending} pending",
            )
        accounted = (
            ledger["probes_ingested"]
            + ledger["probes_dropped"]
            + ledger["probes_rejected"]
        )
        if emitted != accounted:
            self._violate(
                now,
                "stream-delta-conservation",
                f"{emitted} probes emitted but {ledger['probes_ingested']} "
                f"ingested + {ledger['probes_dropped']} dropped + "
                f"{ledger['probes_rejected']} rejected = {accounted}",
            )
        base_emitted, base_ingested, base_dropped, base_rejected = (
            self._stream_baseline
        )
        emitted_since = emitted - base_emitted
        ingested_since = ledger["probes_ingested"] - base_ingested
        dropped_since = ledger["probes_dropped"] - base_dropped
        rejected_since = ledger["probes_rejected"] - base_rejected
        # Freshness: a healthy VIP with fresh emissions (none of which were
        # dropped or rejected) must have ingested something — otherwise the
        # plane is stalled and its seconds-level detection promise is void.
        if (
            not stream.vip_dark
            and emitted_since > 0
            and dropped_since == 0
            and rejected_since == 0
            and ingested_since <= 0
        ):
            self._violate(
                now,
                "stream-freshness",
                f"ingest VIP healthy and {emitted_since} probes emitted "
                f"since the last check, but none ingested",
            )
        self._stream_baseline = (
            emitted,
            ledger["probes_ingested"],
            ledger["probes_dropped"],
            ledger["probes_rejected"],
        )

    def _check_probe_conservation(self, now: float) -> None:
        """The fabric's probe ledger must match what the rounds reported.

        Since attach, ``carried + refused`` must equal the probes this
        checker observed: no engine may skip its report, and the scalar
        path may not double-count a refused probe as carried.
        """
        if not self._attached:
            return
        fabric = self.system.fabric
        base_carried, base_refused, base_observed = self._ledger_baseline
        carried = fabric.probes_carried - base_carried
        refused = fabric.probes_refused - base_refused
        observed = self.probes_observed - base_observed
        if carried + refused != observed:
            self._violate(
                now,
                "probe-conservation",
                f"fabric ledger says {carried + refused} probes since attach "
                f"(carried {carried}, refused {refused}) but the rounds "
                f"reported {observed}",
            )

    def _check_watchdog_latency(self, now: float) -> None:
        history = self.system.env.watchdogs.error_history
        for expectation in self._expectations:
            if expectation.resolved:
                continue
            caught = any(
                report.name == expectation.name and report.t >= expectation.start_t
                for report in history
            )
            if caught:
                expectation.resolved = True
            elif now > expectation.deadline:
                expectation.resolved = True
                self._violate(
                    now,
                    "watchdog-latency",
                    f"watchdog {expectation.name!r} never reached ERROR within "
                    f"{expectation.deadline - expectation.start_t:.0f}s of the "
                    f"fault at t={expectation.start_t:.1f}s",
                )

    def _check_repair_ground_truth(self, now: float) -> None:
        """Every repair filed must target an implicated device (§5).

        When nothing was ever implicated (e.g. a pure power-loss drill with
        no guilty switch) any repair at all is a scapegoat.
        """
        device_manager = self.system.env.device_manager
        requests = list(device_manager.pending) + list(device_manager.history)
        for request in requests[self._repairs_checked :]:
            if request.device_id not in self._implicated:
                detail = f"repair filed against innocent {request.device_id}"
                if self._implicated:
                    detail += f"; guilty set: {sorted(self._implicated)}"
                self._violate(now, "repair-ground-truth", detail)
        self._repairs_checked = len(requests)

    def _check_sla_ground_truth(self, now: float) -> None:
        """A network that was never faulted must measure healthy (§4.3),
        and the probe engine must agree with ``netsim.explain``."""
        if self._ever_faulted:
            return
        rows = self.system.database.query("sla_hourly")
        if rows:
            newest_t = max(row["t"] for row in rows)
            slas = [
                NetworkSla.from_row(row)
                for row in rows
                if row["t"] == newest_t
                and row["scope"] in ("datacenter", "podset", "service")
            ]
            # A fresh engine fires every violation, open episodes or not.
            fresh = AlertEngine()
            for alert in fresh.evaluate(slas):
                if alert.metric == "drop_rate":
                    self._violate(
                        now,
                        "sla-ground-truth",
                        f"healthy network but {alert.scope}={alert.key} SLA "
                        f"drop rate {alert.value:.4f} over threshold",
                    )
        # Ground truth from the explainer: with no fault injected, no
        # sampled probe may be eaten by a fault.
        for src_id, dst_id in self._sample_pairs():
            explanation = explain_probe(
                self.system.fabric, src_id, dst_id, t=now, attempts=1
            )
            fault_drops = [
                decision
                for attempt in explanation.attempts
                for decision in attempt
                if decision.action == "dropped-fault"
            ]
            if fault_drops:
                self._violate(
                    now,
                    "sla-ground-truth",
                    f"no fault injected but explain({src_id}->{dst_id}) blames "
                    f"{fault_drops[0].device_id}",
                )

    def _sample_pairs(self) -> list[tuple[str, str]]:
        """A deterministic cross-podset pair sample for explain checks."""
        dc = self.system.topology.dc(0)
        if dc.spec.n_podsets < 2:
            return []
        sources = dc.servers_in_podset(0)
        targets = dc.servers_in_podset(1)
        n = min(self.explain_sample_pairs, len(sources), len(targets))
        return [
            (sources[i].device_id, targets[i].device_id) for i in range(n)
        ]

    # -- reporting -----------------------------------------------------------

    def _violate(self, t: float, invariant: str, detail: str) -> None:
        self.violations.append(Violation(t=t, invariant=invariant, detail=detail))

    @property
    def clean(self) -> bool:
        return not self.violations
