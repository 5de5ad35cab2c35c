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

A burst is numbered rows from admission to retirement: one row per
admitted pair in a single work table, its counters one row of the
:class:`~repro.broker.requests.BurstLedger`.  A round picks, compiles and
settles over those integers; only a request that finishes touches its
channel or its tenant's account.

Safety-limit interaction, in one place:

* rounds fire at the fleet's (safety-clamped, >= 10 s) interval and each
  work row yields at most one probe per round, so the per-pair spacing
  floor holds by construction; a per-round (src, dst, port) collision set
  defers would-be duplicates to the next round;
* payloads pass :meth:`SafetyGuard.clamp_payload` at admission;
* a source whose agent is dead, terminated or fail-closed contributes
  nothing (its rows wait, then time out) — the broker may never make a
  silenced agent speak;
* per-agent and per-fleet-round injection caps bound the extra traffic
  any round can carry, so baseline probing is never starved.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from collections import deque
from dataclasses import dataclass, field

import numpy as np

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
    ADMITTED,
    LAUNCHED,
    OK,
    QOS,
    BurstLedger,
    RequestState,
    ResultChannel,
)
from repro.core.agent.safety import SafetyGuard
from repro.core.dsa.records import LATENCY_STREAM
from repro.cosmos.scope import agg, col, extract
from repro.resilience import CircuitBreaker, RetryPolicy, derive_seed

__all__ = ["BrokerConfig", "MeasurementBroker"]

# Work table columns, a row per admitted pair in admission order (so by
# request id): the pair's server numbers, its request, port and payload, the
# probes it has left, and its place in its source's queue (per-agent rounds).
_SRC, _DST, _RID, _PORT, _PAYLOAD, _REMAINING, _QUEUED = range(7)
# Rows one array pass of the fleet pick judges.  A cap that binds restarts
# the pass at the row it refused, so a round costs O(rows + caps hit x this).
_PICK_WINDOW = 4096

# Bounded per-round injection log for the no-starvation invariant.
_ROUND_LOG_CAP = 512
# Housekeeping cadence: deadline sweeps, window refills, fleet-health
# evaluation.  Jittered (RetryPolicy) so a fleet of brokers would not tick
# in lockstep.
TICK_INTERVAL_S = 60.0


def _pick_rows(src: np.ndarray, key: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """A fleet round's greedy pick over rows in visiting order, as a mask.

    Request by request (``seg``: its turn), a row is taken unless its source
    has sent ``MAX_INJECTED_PER_AGENT_ROUND``, its ``key`` (source, dst, port)
    is taken, its request used its room (that cap, or what the fleet cap
    leaves at its turn) or the round is full.  A window of rows is judged in
    closed form as if only rooms bound; it is kept up to the first row a
    source cap or a taken key refuses, where the next window starts.
    """
    per_cap, fleet_cap = MAX_INJECTED_PER_AGENT_ROUND, MAX_INJECTED_PER_FLEET_ROUND
    picked = np.zeros(len(src), dtype=bool)
    sent = np.zeros(int(src.max(initial=-1)) + 1, dtype=np.int64)  # per source
    taken = np.zeros(0, dtype=np.int64)  # keys picked so far
    total = start = 0
    room = per_cap  # what the request at ``start`` may still take
    while start < len(src) and total < fleet_cap:
        end = min(len(src), start + _PICK_WINDOW)
        s, k = src[start:end], key[start:end]
        ok = (sent[s] < per_cap) & ~np.isin(k, taken)
        heads = np.flatnonzero(np.diff(seg[start:end], prepend=-1))  # requests' first rows
        sizes = np.diff(np.append(heads, end - start))
        seen = np.cumsum(ok)
        before = seen[heads] - ok[heads]  # eligible rows ahead of each request
        rooms = np.full(len(heads), per_cap)
        rooms[0] = room
        wants = np.minimum(np.diff(np.append(before, seen[-1])), rooms)
        launched = np.diff(np.minimum(np.cumsum(wants), fleet_cap - total), prepend=0)
        rank = seen - ok - np.repeat(before, sizes)  # eligible rows ahead in its request
        pick = np.flatnonzero(ok & (rank < np.repeat(launched, sizes)))
        by_src = pick[np.argsort(s[pick], kind="stable")]
        firsts = np.flatnonzero(np.diff(s[by_src], prepend=-1))
        nth = np.arange(len(pick)) - np.repeat(firsts, np.diff(np.append(firsts, len(pick))))
        again = np.ones(len(pick), dtype=bool)
        again[np.unique(k[pick], return_index=True)[1]] = False
        # Kept up to the first pick past its source's cap or of a key picked before it.
        stop = min(by_src[sent[s[by_src]] + nth >= per_cap].min(initial=end - start),
                   pick[again].min(initial=end - start))
        kept = pick[pick < stop]
        picked[start + kept] = True
        np.add.at(sent, s[kept], 1)
        taken = np.append(taken, k[kept])
        if start + stop < len(src) and seg[start + stop] == seg[start + stop - 1]:
            j = np.searchsorted(heads, stop - 1, side="right") - 1  # it goes on
            room = min(rooms[j], fleet_cap - total - launched[:j].sum()) - np.sum(kept >= heads[j])
        else:
            room = per_cap
        total += len(kept)
        start += stop
    return picked


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
        self.inflight: dict[int, ResultChannel] = {}
        self.ledger = BurstLedger()
        self._work = np.zeros((0, 7), dtype=np.int64)
        # Admitted since the work table was last read: (server numbers of the
        # pairs, flat), request id, port, payload, probes per pair.
        self._staged: list[tuple] = []
        self._queued = 0  # queue places handed out
        self._qos: dict[str, int] = {}  # qos -> its ledger code
        self._deadlines: list[tuple[float, int]] = []  # heap of (deadline_t, rid)
        self._refill_due = math.inf  # no quota window ends before this
        self._last_read: tuple = (None, [])  # (the rollup read, its rows)
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
            self._refill_due = min(self._refill_due, account.window_start + account.quota.window_s)
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
        if rid == len(table := self.ledger.table):  # ids come in order: double the ledger
            self.ledger.table = np.concatenate([table, np.zeros_like(table)])
        channel = ResultChannel(rid, tenant_id, kind, now, self.ledger)
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
            numbers = self.system.fabric.server_numbers([end for pair in expanded for end in pair])
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

        self._staged.append((numbers, rid, dst_port_for(rid), payload, admitted_ppp))
        self.ledger.table[rid, ADMITTED] = len(expanded) * admitted_ppp
        self.ledger.table[rid, QOS] = self._qos.setdefault(qos, len(self._qos))
        self.inflight[rid] = channel
        heapq.heappush(self._deadlines, (now + deadline_s, rid))
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
        rolled, rows = self._last_read
        if rolled is not merged:
            # A quantile sorts the rollup's buckets: once per rollup, not read.
            rows = [
                {
                    "dc": dc,
                    "probes": merged[dc].probes,
                    "drop_rate": merged[dc].drop_rate(),
                    "p50_us": merged[dc].quantile_us(50),
                    "p99_us": merged[dc].quantile_us(99),
                }
                for dc in sorted(merged)
            ]
            self._last_read = (merged, rows)
        return [dict(row) for row in rows]

    # -- fleet health ------------------------------------------------------

    def _fleet_healthy(self) -> bool:
        """Is the fleet in shape to carry injected traffic?"""
        if self.system.controller.healthy_replica_count() == 0:
            return False
        return self.system.stream.stale_fraction <= MAX_STALE_FRACTION

    def _src_allowed(self, server) -> bool:
        """May injected probes originate from this server right now?

        Mirrors the fleet's own silence rules: no agent, a terminated
        agent, a fail-closed agent or a powered-off host must send
        nothing — the broker included.
        """
        agent = self.system.agents.get(server.device_id)
        if agent is None or not agent.running or agent.safety.fail_closed:
            return False
        return server.is_up

    # -- the work table ----------------------------------------------------

    def _flush(self, compact: bool = False) -> np.ndarray:
        """The work table, rows admitted since the last read appended;
        ``compact`` drops the spent ones (no probes left, or retired)."""
        if self._staged:
            staged, self._staged = self._staged, []
            sizes = [len(burst[0]) // 2 for burst in staged]
            rows = np.empty((sum(sizes), 7), dtype=np.int64)
            rows[:, _SRC:_RID] = np.concatenate([burst[0] for burst in staged]).reshape(-1, 2)
            rows[:, _RID:_QUEUED] = np.repeat([burst[1:] for burst in staged], sizes, axis=0)
            rows[:, _QUEUED] = np.arange(self._queued, self._queued + len(rows))
            self._queued += len(rows)
            self._work = np.concatenate([self._work, rows])
        if compact:
            self._work = self._work[self._work[:, _REMAINING] > 0]
        return self._work

    def _entries(self, rows: np.ndarray) -> list[tuple[str, int, int]]:
        """Rows as probe entries ``(dst, dst_port, payload)``."""
        servers, columns = self.system.fabric.servers, rows[:, [_DST, _PORT, _PAYLOAD]].tolist()
        return [(servers[dst].device_id, port, payload) for dst, port, payload in columns]

    def _details(self, rids: np.ndarray, results, t: float) -> np.ndarray:
        """Keep per-probe results as channel details; 1 ok / 2 lost each."""
        for rid, got in zip(rids.tolist(), results):
            self.channels[rid].record_detail(t, got.src, got.dst, got.success, got.rtt_s)
        return 2 - np.asarray(results.success, dtype=np.int64)

    def _settle(self, rids: np.ndarray, settled: np.ndarray, t: float, cap: int) -> int:
        """Book a round's launches and outcomes (``settled``: 1 ok, 2 lost, 0 not
        delivered, per probe of request ``rids``); only the requests it
        completes touch a channel or account."""
        table = self.ledger.table
        np.add.at(table[:, LAUNCHED], rids, 1)
        served = settled > 0
        np.add.at(table, (rids[served], OK - 1 + settled[served]), 1)  # 1 -> OK, 2 -> LOST
        injected = len(rids)
        self.probes_launched += injected
        self.probes_delivered += int(served.sum())
        self.round_log.append((t, injected, cap))
        self._round_injected_total += injected
        touched = np.unique(rids)
        done = touched[table[touched, LAUNCHED] >= table[touched, ADMITTED]]
        for rid, launched in zip(done.tolist(), table[done, LAUNCHED].tolist()):
            channel = self.inflight.pop(rid)
            account = self.accounts.get(channel.tenant_id)
            if account is not None:
                account.probes_launched += launched
            state = RequestState.TRUNCATED if channel.truncated else RequestState.COMPLETED
            channel.finish(t, state)
        return injected

    # -- execution: per-agent rounds ---------------------------------------

    def on_agent_round(self, agent, t: float) -> int:
        """Drain one server's injected work during its probe round.

        Called by :meth:`PingmeshSystem._agent_round` right after the
        baseline round; at most ``MAX_INJECTED_PER_AGENT_ROUND`` probes,
        one per work row, through :meth:`Fabric.probe_many` (round reports
        and the conservation ledger cover every one).  The server's rows
        queue: a round serves the first row of each (destination, port)
        from the head, and sends the rows it served to the back.
        """
        if not self.inflight:
            return 0
        fabric = self.system.fabric
        work = self._flush()
        number = fabric.server_numbers([agent.server_id])[0]
        mine = np.flatnonzero(work[:, _SRC] == number)
        mine = mine[work[mine, _REMAINING] > 0]
        if not len(mine) or not self._src_allowed(fabric.servers[number]):
            return 0
        mine = mine[np.argsort(work[mine, _QUEUED])]
        first = np.unique(work[mine, _DST] * 65536 + work[mine, _PORT], return_index=True)[1]
        chosen = mine[np.sort(first)[:MAX_INJECTED_PER_AGENT_ROUND]]
        results = fabric.probe_many(agent.server_id, self._entries(work[chosen]), t=t)
        work[chosen, _REMAINING] -= 1
        work[chosen, _QUEUED] = np.arange(self._queued, self._queued + len(chosen))
        self._queued += len(chosen)
        rids = work[chosen, _RID]
        return self._settle(rids, self._details(rids, results, t), t, MAX_INJECTED_PER_AGENT_ROUND)

    # -- execution: sharded fleet rounds -----------------------------------

    def on_fleet_round(self, fleet, t: float) -> int:
        """Inject this round's admitted burst work after the baseline round.

        Runs on the main thread with the fabric's own RNG, strictly after
        every baseline draw — an idle broker therefore draws nothing and
        baseline probe streams are bit-identical with or without a broker
        attached.  Work is picked round-robin over requests (the rotation
        advances every round), clamped per source agent and per fleet
        round (:func:`_pick_rows`), and compiled in one pass into one class plan
        whose groups hold every request's probes of a path class; pairs the
        class engine cannot serve degrade to :meth:`probe_many` per source,
        exactly like baseline rounds.

        A group's outcome is attributed through ``member_indices``:
        members of a class are exchangeable under the model, so its
        ``failed`` probes are a uniform draw without replacement among
        them (made only when there are any); the others succeeded.
        """
        if not self.inflight:
            return 0
        fabric = self.system.fabric
        servers = fabric.servers
        head = next(iter(self.inflight))
        self.inflight[head] = self.inflight.pop(head)  # rotate by one
        work = self._flush(compact=True)
        # Every in-flight request's rows, the requests in rotation order.
        order = np.fromiter(self.inflight, dtype=np.int64, count=len(self.inflight))
        starts = np.searchsorted(work[:, _RID], order)
        sizes = np.searchsorted(work[:, _RID], order, side="right") - starts
        rows = np.repeat(starts - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
        seg = np.repeat(np.arange(len(order)), sizes)
        src = work[rows, _SRC]
        sources = np.unique(src)
        silent = sources[[not self._src_allowed(servers[at]) for at in sources.tolist()]]
        keep = ~np.isin(src, silent)
        rows, seg, src = rows[keep], seg[keep], src[keep]
        key = (src * len(servers) + work[rows, _DST]) * 65536 + work[rows, _PORT]
        chosen = rows[_pick_rows(src, key, seg)]
        if not len(chosen):
            return 0
        picked = work[chosen]
        work[chosen, _REMAINING] -= 1
        rids = picked[:, _RID]
        plan = fabric.compile_class_plan(
            picked[:, _SRC], picked[:, _DST], picked[:, _PAYLOAD], self.ledger.table[rids, QOS],
            [("broker", qos) for qos in self._qos], lambda: self._entries(picked),
        )
        settled = np.zeros(len(picked), dtype=np.int64)  # 1 succeeded, 2 failed, 0 no outcome
        passthrough: dict[str, list[int]] = {}
        for index in plan.passthrough:
            passthrough.setdefault(servers[picked[index, _SRC]].device_id, []).append(index)
        for src_id in sorted(passthrough):
            indices = passthrough[src_id]
            results = fabric.probe_many(src_id, self._entries(picked[indices]), t=t)
            settled[indices] = self._details(rids[indices], results, t)
        if plan.groups:
            outcomes = fabric.run_class_plan(plan, t=t)
            for outcome, indices in zip(outcomes, plan.member_indices):
                settled[indices] = 1
                if outcome.failed:  # who failed: the head of a uniform shuffle
                    settled[fabric.rng.permutation(indices)[:outcome.failed]] = 2
        return self._settle(rids, settled, t, MAX_INJECTED_PER_FLEET_ROUND)

    # -- lifecycle ---------------------------------------------------------

    def tick(self, t: float | None = None) -> None:
        """Housekeeping: deadlines (off a heap), window refills (once the
        earliest window end passed: ``register_tenant`` lowers it, debits
        only move it later, and the microsecond keeps this test from rounding
        past ``refill``'s own), fleet-health evidence."""
        now = self.system.clock.now if t is None else t
        if self._fleet_healthy():
            self.breaker.record_success(now)
        else:
            self.breaker.record_failure(now)
        if now + 1e-6 >= self._refill_due:
            for account in self.accounts.values():
                account.refill(now)
            ends = (a.window_start + a.quota.window_s for a in self.accounts.values())
            self._refill_due = min(ends, default=math.inf)
        expired = []
        while self._deadlines and self._deadlines[0][0] <= now:
            rid = heapq.heappop(self._deadlines)[1]
            if rid in self.inflight:
                expired.append(rid)
        work = self._flush()
        work[np.isin(work[:, _RID], expired), _REMAINING] = 0
        self._flush(compact=True)
        for rid in expired:
            channel = self.inflight.pop(rid)
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
