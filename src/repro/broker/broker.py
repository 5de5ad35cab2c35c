"""The measurement broker: an on-demand, multi-tenant probe-request plane.

Pingmesh as published is a closed loop — the controller decides what gets
probed, users consume CDFs after the fact.  :class:`MeasurementBroker`
opens it up, Globalping-style: registered tenants submit one-shot probe
bursts (between arbitrary server/DC/podset/service targets) and read-side
queries, admission control debits per-tenant credit ledgers and clamps
every burst to global safety bounds, and accepted work is scheduled onto
the *running* fleet by piggybacking on the existing round engines:

* under a :class:`~repro.core.sharded.ShardedFleet`, a round's injected
  pairs are compiled into one extra class plan — one group per path
  class, whatever requests its members belong to — executed right after
  the baseline round and attributed back per member, with per-pair
  degraded work routed through
  :meth:`~repro.netsim.fabric.Fabric.probe_many`;
* under per-agent rounds, each agent's hook drains that server's queue
  through ``probe_many``.

Nothing bypasses the fabric: every injected probe flows through the same
round reports and conservation ledger as baseline traffic, so the whole
chaos invariant catalogue (spacing floor, payload cap, fail-closed
silence, probe conservation) covers tenant traffic for free, and three
broker-specific invariants (tenant quota conservation, injected-probe
ledger parity, no starvation of the baseline round) audit the broker's
own ledgers.

Safety-limit interaction, in one place:

* rounds fire at the fleet's (safety-clamped, >= 10 s) interval and each
  work item yields at most one probe per round, so the per-pair spacing
  floor holds by construction; a per-round (src, dst, port) collision set
  defers would-be duplicates to the next round;
* payloads pass :meth:`SafetyGuard.clamp_payload` at admission;
* a source whose agent is dead, terminated or fail-closed contributes
  nothing (items wait, then time out) — the broker may never make a
  silenced agent speak;
* per-agent and per-fleet-round injection caps bound the extra traffic
  any round can carry, so baseline probing is never starved.
"""

from __future__ import annotations

import math
import operator
import random
from collections import deque
from dataclasses import dataclass, field

from repro.broker.admission import (
    CREDIT_COST_PER_PROBE,
    FLEET_BREAKER,
    MAX_INJECTED_PER_AGENT_ROUND,
    MAX_INJECTED_PER_FLEET_ROUND,
    MAX_PAIRS_PER_REQUEST,
    MAX_PROBES_PER_PAIR,
    MAX_STALE_FRACTION,
    READ_QUERY_COST,
    REQUEST_TIMEOUT_S,
    AdmissionConfig,
    dst_port_for,
)
from repro.broker.quota import TenantAccount, TenantQuota
from repro.broker.requests import (
    MeasurementRequest,
    RequestState,
    ResultChannel,
)
from repro.core.agent.safety import SafetyGuard
from repro.core.dsa.records import LATENCY_STREAM
from repro.cosmos.scope import agg, col, extract
from repro.resilience import CircuitBreaker, RetryPolicy, derive_seed

__all__ = ["BrokerConfig", "MeasurementBroker"]

# Work-item field indices: [src, dst, dst_port, payload, remaining].
_SRC, _DST, _PORT, _PAYLOAD, _REMAINING = range(5)

# Bounded per-round injection log for the no-starvation invariant.
_ROUND_LOG_CAP = 512
# Housekeeping cadence: deadline sweeps, window refills, fleet-health
# evaluation.  Jittered (RetryPolicy) so a fleet of brokers would not tick
# in lockstep.
TICK_INTERVAL_S = 60.0


@dataclass(frozen=True)
class BrokerConfig:
    """Everything configurable about the broker."""

    admission: AdmissionConfig = field(default_factory=AdmissionConfig)


class MeasurementBroker:
    """The request plane over one running :class:`PingmeshSystem`."""

    def __init__(self, system, config: BrokerConfig | None = None) -> None:
        if getattr(system, "broker", None) is not None:
            raise RuntimeError("system already has a broker attached")
        self.system = system
        self.config = config or BrokerConfig()
        self.admission = self.config.admission
        self.accounts: dict[str, TenantAccount] = {}
        self.channels: dict[int, ResultChannel] = {}
        # In fleet-round fairness order: the head moves to the back each round.
        self.inflight: dict[int, MeasurementRequest] = {}
        self._work: dict[int, list[list]] = {}  # rid -> live work items
        self._src_index: dict[str, deque] = {}  # src -> (rid, item) queue
        self._next_request_id = 0
        # Broker-wide telemetry / invariant ledgers.
        self.requests_submitted = 0
        self.requests_admitted = 0
        self.requests_rejected = 0
        self.probes_launched = 0
        self.probes_delivered = 0
        self.round_log: deque[tuple[float, int, int]] = deque(maxlen=_ROUND_LOG_CAP)
        self._round_injected_total = 0
        self.breaker = CircuitBreaker(FLEET_BREAKER)
        self._tick_jitter = RetryPolicy(
            base_s=TICK_INTERVAL_S,
            cap_s=2 * TICK_INTERVAL_S,
            seed=derive_seed("broker", "tick"),
        )
        self._tick_scheduled = False
        system.broker = self
        self._schedule_tick()

    # -- tenants -----------------------------------------------------------

    def register_tenant(
        self, tenant_id: str, quota: TenantQuota | None = None, t: float | None = None
    ) -> TenantAccount:
        """Open a tenant's credit account (idempotent per tenant id)."""
        account = self.accounts.get(tenant_id)
        if account is None:
            account = self.accounts[tenant_id] = TenantAccount(
                tenant_id,
                quota or TenantQuota(),
                t if t is not None else self.system.clock.now,
            )
        return account

    # -- submission / admission --------------------------------------------

    def submit(
        self,
        tenant_id: str,
        kind: str = "burst",
        src: str | None = None,
        dst: str | None = None,
        pairs=None,
        probes_per_pair: int = 1,
        payload_bytes: int = 0,
        qos: str = "high",
        params: dict | None = None,
        deadline_s: float | None = None,
        t: float | None = None,
    ) -> ResultChannel:
        """Submit one measurement request; returns its result channel.

        Burst targets come either as explicit ``pairs`` or as ``src`` /
        ``dst`` selectors (``server:<id>``, ``dc:<index-or-name>``,
        ``podset:<dc>/<podset>``, ``service:<name>``), expanded to a
        deterministic pair sample.  Admission happens synchronously: a
        returned channel is already ``ADMITTED`` (burst), ``COMPLETED``
        (read query) or ``REJECTED``.
        """
        if kind not in ("burst", "scope", "stream"):
            raise ValueError(f"unknown request kind: {kind!r}")
        now = self.system.clock.now if t is None else t
        rid = self._next_request_id
        self._next_request_id += 1
        channel = ResultChannel(
            request_id=rid, tenant_id=tenant_id, kind=kind, submitted_t=now
        )
        self.channels[rid] = channel
        self.requests_submitted += 1

        account = self.accounts.get(tenant_id)
        if account is None:
            return self._reject(channel, now, "unknown-tenant")
        account.requests_submitted += 1
        if len(self.inflight) >= self.admission.max_inflight_requests:
            return self._reject(channel, now, "broker-overloaded", account)
        if kind in ("scope", "stream"):
            return self._run_read_query(channel, account, kind, params or {}, now)

        # Burst path: fail closed when the fleet is degraded.
        healthy = self._fleet_healthy()
        if healthy:
            self.breaker.record_success(now)
        else:
            self.breaker.record_failure(now)
        if not healthy or not self.breaker.allow(now):
            return self._reject(channel, now, "fleet-degraded", account)

        try:
            requested_ppp = max(1, operator.index(probes_per_pair))
            payload = SafetyGuard.clamp_payload(operator.index(payload_bytes))
            if deadline_s is None:
                deadline_s = REQUEST_TIMEOUT_S
            valid = 0.0 < deadline_s < math.inf
        except TypeError:
            valid = False
        if not valid:
            return self._reject(channel, now, "bad-params", account)
        try:
            expanded, requested_pairs = self._expand_pairs(rid, src, dst, pairs)
        except (ValueError, KeyError, TypeError, IndexError):
            return self._reject(channel, now, "bad-target", account)
        if not expanded:
            return self._reject(channel, now, "empty-target", account)

        admitted_ppp = min(requested_ppp, MAX_PROBES_PER_PAIR)
        channel.probes_requested = requested_pairs * requested_ppp
        channel.truncated = (
            len(expanded) < requested_pairs or admitted_ppp < requested_ppp
        )
        cost = len(expanded) * admitted_ppp * CREDIT_COST_PER_PROBE
        if not account.try_debit(cost, now):
            channel.truncated = False
            return self._reject(channel, now, "insufficient-credits", account)

        port = dst_port_for(rid)
        request = MeasurementRequest(
            request_id=rid,
            tenant_id=tenant_id,
            kind="burst",
            pairs=tuple(expanded),
            probes_per_pair=admitted_ppp,
            payload_bytes=payload,
            qos=qos,
            params=dict(params or {}),
            submitted_t=now,
            deadline_s=deadline_s,
        )
        items = [
            [pair_src, pair_dst, port, payload, admitted_ppp]
            for pair_src, pair_dst in expanded
        ]
        self.inflight[rid] = request
        self._work[rid] = items
        for item in items:
            self._src_index.setdefault(item[_SRC], deque()).append((rid, item))
        channel.probes_admitted = len(expanded) * admitted_ppp
        channel.state = RequestState.ADMITTED
        self.requests_admitted += 1
        return channel

    def _reject(
        self,
        channel: ResultChannel,
        t: float,
        reason: str,
        account: TenantAccount | None = None,
    ) -> ResultChannel:
        channel.reject_reason = reason
        channel.finish(t, RequestState.REJECTED)
        self.requests_rejected += 1
        if account is not None:
            account.requests_rejected += 1
        return channel

    # -- target expansion --------------------------------------------------

    def _select(self, selector: str) -> list[str]:
        """Expand one target selector to a sorted list of server ids."""
        if ":" not in selector:
            raise ValueError(f"bad target selector: {selector!r}")
        scheme, _, key = selector.partition(":")
        topology = self.system.topology
        if scheme == "server":
            topology.server(key)  # raises KeyError for unknown servers
            return [key]
        if scheme == "dc":
            dc = topology.dc(int(key) if key.isdigit() else key)
            return [server.device_id for server in dc.servers]
        if scheme == "podset":
            dc_key, _, podset = key.partition("/")
            dc = topology.dc(int(dc_key) if dc_key.isdigit() else dc_key)
            return [
                server.device_id
                for server in dc.servers_in_podset(int(podset))
            ]
        if scheme == "service":
            for service in self.system.config.services:
                if service.name == key:
                    return sorted(service.server_ids)
            raise ValueError(f"unknown service: {key!r}")
        raise ValueError(f"bad target selector: {selector!r}")

    def _expand_pairs(
        self, rid: int, src: str | None, dst: str | None, pairs
    ) -> tuple[list[tuple[str, str]], int]:
        """(admitted pairs, requested pair count) for one burst.

        The cross product is sampled with a per-request seeded generator
        (``derive_seed``, CRC-based) so expansion is deterministic across
        runs and processes; self-pairs are dropped, duplicates collapse.
        """
        cap = MAX_PAIRS_PER_REQUEST
        if pairs is not None:
            unique = list(dict.fromkeys((s, d) for s, d in pairs if s != d))
            requested = len(unique)
        else:
            if src is None or dst is None:
                raise ValueError("burst needs src and dst selectors (or pairs)")
            sources = self._select(src)
            targets = self._select(dst)
            rng = random.Random(derive_seed("broker-pairs", rid))
            n_total = len(sources) * len(targets)
            if n_total <= 4 * cap:
                unique = list(
                    dict.fromkeys(
                        (s, d) for s in sources for d in targets if s != d
                    )
                )
                requested = len(unique)
                if len(unique) > cap:
                    unique = rng.sample(unique, cap)
            else:
                # Too big to enumerate: sample flat indices without
                # replacement, dedupe, keep the first `cap` valid pairs.
                requested = n_total
                indices = rng.sample(range(n_total), min(n_total, 4 * cap))
                seen: set[tuple[str, str]] = set()
                unique = []
                for index in indices:
                    pair = (
                        sources[index // len(targets)],
                        targets[index % len(targets)],
                    )
                    if pair[0] == pair[1] or pair in seen:
                        continue
                    seen.add(pair)
                    unique.append(pair)
                    if len(unique) >= cap:
                        break
        if len(unique) > cap:
            unique = unique[:cap]
        for pair_src, pair_dst in unique:
            self.system.topology.server(pair_src)
            self.system.topology.server(pair_dst)
        return unique, max(requested, len(unique))

    # -- read-side queries -------------------------------------------------

    def _run_read_query(
        self,
        channel: ResultChannel,
        account: TenantAccount,
        kind: str,
        params: dict,
        now: float,
    ) -> ResultChannel:
        """SCOPE / stream-plane reads: synchronous, zero fabric draws.
        ``params`` are the tenant's: validated before the debit, so a bad
        one is a rejection, not an exception with the credit gone."""
        if kind == "stream" and self.system.stream is None:
            return self._reject(channel, now, "stream-unavailable", account)
        try:
            if kind == "scope":
                since_s = float(params.get("since_s", 600.0))
                valid = 0.0 <= since_s < math.inf
            else:
                windows = int(params.get("windows", 3))
                classes = params.get("cls"), params.get("exclude_cls")
                valid = all(c is None or isinstance(c, str) for c in classes)
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            return self._reject(channel, now, "bad-params", account)
        if not account.try_debit(READ_QUERY_COST, now):
            return self._reject(channel, now, "insufficient-credits", account)
        if kind == "scope":
            channel.rows = self._scope_rows(now - since_s)
        else:
            channel.rows = self._stream_rows(windows, *classes)
        channel.finish(now, RequestState.COMPLETED)
        return channel

    def _scope_rows(self, since: float) -> list[dict]:
        """Per-DC latency/drop summary over the batch store's raw rows."""
        store = self.system.store
        if not store.has_stream(LATENCY_STREAM):
            return []
        # One scan, and only of extents appended since the window opened: a
        # record made at t is uploaded at or after t.
        window = extract(
            store, LATENCY_STREAM, col("t") >= since, appended_since=since
        )
        if not window:
            return []
        totals = (
            window.group_by("src_dc")
            .aggregate(probes=agg.count(), answered=agg.count_if(col("success")))
            .order_by("src_dc")
            .output()
        )
        latency = {
            row["src_dc"]: row
            for row in window.where(col("success"))
            .group_by("src_dc")
            .aggregate(
                p50_us=agg.percentile("rtt_us", 50),
                p99_us=agg.percentile("rtt_us", 99),
            )
            .output()
        }
        none_answered = {"p50_us": None, "p99_us": None}
        return [
            {
                "dc": total["src_dc"],
                "probes": total["probes"],
                "drop_rate": 1.0 - total["answered"] / total["probes"],
                "p50_us": latency.get(total["src_dc"], none_answered)["p50_us"],
                "p99_us": latency.get(total["src_dc"], none_answered)["p99_us"],
            }
            for total in totals
        ]

    def _stream_rows(self, windows: int, cls, exclude_cls) -> list[dict]:
        """Per-DC quantiles from the streaming merge tree's newest windows
        (``windows`` clamped to what the tree retains)."""
        ingest = self.system.stream.ingest
        starts = ingest.latest_windows(
            min(max(windows, 1), ingest.retention_windows)
        )
        if not starts:
            return []
        merged = ingest.merged_by_dc(starts, cls=cls, exclude_cls=exclude_cls)
        rows = []
        for dc in sorted(merged):
            stats = merged[dc]
            rows.append(
                {
                    "dc": dc,
                    "probes": stats.probes,
                    "drop_rate": stats.drop_rate(),
                    "p50_us": stats.quantile_us(50),
                    "p99_us": stats.quantile_us(99),
                }
            )
        return rows

    # -- fleet health ------------------------------------------------------

    def _fleet_healthy(self) -> bool:
        """Is the fleet in shape to carry injected traffic?"""
        if self.system.controller.healthy_replica_count() == 0:
            return False
        stream = self.system.stream
        return stream is None or stream.stale_fraction <= MAX_STALE_FRACTION

    def _src_allowed(self, src_id: str) -> bool:
        """May injected probes originate from this server right now?

        Mirrors the fleet's own silence rules: no agent, a terminated
        agent, a fail-closed agent or a powered-off host must send
        nothing — the broker included.
        """
        agent = self.system.agents.get(src_id)
        if agent is None or not agent.running or agent.safety.fail_closed:
            return False
        return self.system.topology.server(src_id).is_up

    # -- execution: per-agent rounds ---------------------------------------

    def on_agent_round(self, agent, t: float) -> int:
        """Drain one server's injected work during its probe round.

        Called by :meth:`PingmeshSystem._agent_round` right after the
        baseline round; at most ``MAX_INJECTED_PER_AGENT_ROUND`` probes,
        one per work item, through :meth:`Fabric.probe_many` (round reports
        and the conservation ledger cover every one).
        """
        queue = self._src_index.get(agent.server_id)
        if not queue:
            return 0
        if not self._src_allowed(agent.server_id):
            return 0
        budget = MAX_INJECTED_PER_AGENT_ROUND
        chosen: list[tuple[int, list]] = []
        deferred: list[tuple[int, list]] = []
        seen: set[tuple[str, int]] = set()
        while queue and len(chosen) < budget:
            rid, item = queue.popleft()
            if rid not in self.inflight or item[_REMAINING] <= 0:
                continue  # terminal request / exhausted item: drop
            key = (item[_DST], item[_PORT])
            if key in seen:
                deferred.append((rid, item))  # same pair+port this round
                continue
            seen.add(key)
            chosen.append((rid, item))
        if not chosen:
            queue.extendleft(reversed(deferred))
            return 0
        entries = [
            (item[_DST], item[_PORT], item[_PAYLOAD]) for _rid, item in chosen
        ]
        results = self.system.fabric.probe_many(agent.server_id, entries, t=t)
        touched: set[int] = set()
        for (rid, item), result in zip(chosen, results):
            item[_REMAINING] -= 1
            channel = self.channels[rid]
            channel.probes_launched += 1
            self.probes_launched += 1
            channel.record_outcome(
                t, result.src, result.dst, result.success, result.rtt_s
            )
            self.probes_delivered += 1
            touched.add(rid)
        # Deferred items go back to the front (they were skipped, not
        # served); part-done items re-queue at the back for the next round.
        queue.extendleft(reversed(deferred))
        for rid, item in chosen:
            if item[_REMAINING] > 0:
                queue.append((rid, item))
        injected = len(chosen)
        self.round_log.append((t, injected, budget))
        self._round_injected_total += injected
        for rid in touched:
            self._maybe_complete(rid, t)
        return injected

    # -- execution: sharded fleet rounds -----------------------------------

    def on_fleet_round(self, fleet, t: float) -> int:
        """Inject this round's admitted burst work after the baseline round.

        Runs on the main thread with the fabric's own RNG, strictly after
        every baseline draw — an idle broker therefore draws nothing and
        baseline probe streams are bit-identical with or without a broker
        attached.  Work is picked round-robin over requests (the rotation
        advances every round), clamped per source agent and per fleet
        round, and compiled in one pass into one class plan whose groups
        hold every request's probes of a path class; pairs the class engine
        cannot serve degrade to :meth:`probe_many` per source, exactly like
        baseline rounds.

        A group's outcome is attributed through ``member_indices``:
        members of a class are exchangeable under the model, so its
        ``failed`` probes are a uniform draw without replacement among
        them (made only when there are any); the others succeeded.
        """
        if not self.inflight:
            return 0
        fabric = self.system.fabric
        fleet_cap = MAX_INJECTED_PER_FLEET_ROUND
        per_src_cap = MAX_INJECTED_PER_AGENT_ROUND
        head = next(iter(self.inflight))
        self.inflight[head] = self.inflight.pop(head)  # rotate by one
        chosen: list[tuple[int, list]] = []
        per_src: dict[str, int] = {}  # -1: the source must stay silent
        seen: set[tuple[str, str, int]] = set()
        for rid in self.inflight:
            if len(chosen) >= fleet_cap:
                break
            taken_for_rid = 0
            for item in self._work[rid]:
                if len(chosen) >= fleet_cap or taken_for_rid >= per_src_cap:
                    break
                if item[_REMAINING] <= 0:
                    continue
                src = item[_SRC]
                taken = per_src.get(src)
                if taken is None:
                    taken = per_src[src] = 0 if self._src_allowed(src) else -1
                if taken < 0 or taken >= per_src_cap:
                    continue
                key = (src, item[_DST], item[_PORT])
                if key in seen:
                    continue
                seen.add(key)
                chosen.append((rid, item))
                per_src[src] = taken + 1
                taken_for_rid += 1
        if not chosen:
            return 0

        channels = self.channels
        entries = [(item[_DST], item[_PORT], item[_PAYLOAD]) for _rid, item in chosen]
        plan = fabric.compile_class_plan(
            [item[_SRC] for _rid, item in chosen],
            entries,
            [("broker", self.inflight[rid].qos) for rid, _item in chosen],
        )
        for rid, item in chosen:
            item[_REMAINING] -= 1
            channels[rid].probes_launched += 1
        self.probes_launched += len(chosen)

        passthrough: dict[str, list[int]] = {}
        for index in plan.passthrough:
            passthrough.setdefault(chosen[index][1][_SRC], []).append(index)
        for src in sorted(passthrough):
            indices = passthrough[src]
            results = fabric.probe_many(src, [entries[i] for i in indices], t=t)
            for index, result in zip(indices, results):
                channels[chosen[index][0]].record_outcome(
                    t, result.src, result.dst, result.success, result.rtt_s
                )
            self.probes_delivered += len(indices)
        if plan.groups:
            outcomes = fabric.run_class_plan(plan, t=t)
            for outcome, indices in zip(outcomes, plan.member_indices):
                if outcome.failed:  # who failed: the head of a uniform shuffle
                    indices = fabric.rng.permutation(indices).tolist()
                for index in indices[:outcome.failed]:
                    channels[chosen[index][0]].record_aggregate(0, 1)
                for index in indices[outcome.failed:]:
                    channels[chosen[index][0]].record_aggregate(1, 0)
                self.probes_delivered += outcome.n

        self.round_log.append((t, len(chosen), fleet_cap))
        self._round_injected_total += len(chosen)
        for rid in {rid for rid, _item in chosen}:
            self._maybe_complete(rid, t)
        return len(chosen)

    # -- lifecycle ---------------------------------------------------------

    def _maybe_complete(self, rid: int, t: float) -> None:
        channel = self.channels.get(rid)
        if channel is None or channel.done:
            return
        if channel.probes_launched >= channel.probes_admitted:
            self._retire(rid)
            account = self.accounts.get(channel.tenant_id)
            if account is not None:
                account.probes_launched += channel.probes_launched
            channel.finish(
                t,
                RequestState.TRUNCATED
                if channel.truncated
                else RequestState.COMPLETED,
            )

    def _retire(self, rid: int) -> None:
        """Drop a request's scheduling state (items die via remaining=0)."""
        for item in self._work.pop(rid, ()):
            item[_REMAINING] = 0
        self.inflight.pop(rid, None)

    def tick(self, t: float | None = None) -> None:
        """Housekeeping: deadlines, window refills, fleet-health evidence."""
        now = self.system.clock.now if t is None else t
        if self._fleet_healthy():
            self.breaker.record_success(now)
        else:
            self.breaker.record_failure(now)
        for account in self.accounts.values():
            account.refill(now)
        for rid, request in list(self.inflight.items()):
            if now < request.deadline_t:
                continue
            channel = self.channels[rid]
            self._retire(rid)
            unlaunched = channel.probes_admitted - channel.probes_launched
            account = self.accounts.get(channel.tenant_id)
            if account is not None:
                if unlaunched > 0:
                    account.refund(unlaunched * CREDIT_COST_PER_PROBE)
                account.probes_launched += channel.probes_launched
            if channel.probes_completed > 0:
                channel.truncated = True
                channel.finish(now, RequestState.TRUNCATED)
            else:
                channel.finish(now, RequestState.TIMED_OUT)

    def _schedule_tick(self) -> None:
        if self._tick_scheduled:
            return
        self._tick_scheduled = True

        def broker_tick() -> None:
            self.tick(self.system.clock.now)
            self.system.queue.schedule_after(
                self._tick_jitter.jitter_period(TICK_INTERVAL_S, 0.1),
                broker_tick,
                name="broker-tick",
            )

        self.system.queue.schedule_after(
            self._tick_jitter.jitter_period(TICK_INTERVAL_S, 0.1),
            broker_tick,
            name="broker-tick",
        )

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "tenants": len(self.accounts),
            "requests_submitted": self.requests_submitted,
            "requests_admitted": self.requests_admitted,
            "requests_rejected": self.requests_rejected,
            "inflight": len(self.inflight),
            "probes_launched": self.probes_launched,
            "probes_delivered": self.probes_delivered,
            "breaker_state": self.breaker.state.value,
        }
