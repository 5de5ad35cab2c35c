"""Podset-sharded fleet execution for paper-scale deployments.

The per-agent scheduler (`PingmeshSystem._agent_round`) is the right model
for fidelity experiments, but at the paper's scale — tens of thousands of
servers, millions of probes per round — the per-agent event, counter and
delta overhead dominates.  :class:`ShardedFleet` replaces that orchestration
(and only that orchestration: the analytics planes are untouched) with one
driver that runs probe rounds a *shard* at a time:

* a shard is one (dc, podset) — the unit the pinglist generator, the
  heatmap, and the stream plane's roll-ups already think in;
* each shard compiles its agents' pinglists into one closed-form class
  plan — multinomial additivity makes the merge exact, so a 16k-server
  round is a few numpy draws per shard, not 16k array calls.  The compile
  itself (:meth:`~repro.netsim.fabric.Fabric.build_class_plan`) runs once
  per *pod*, not per agent: §3.3.1's pinglists give a pod's servers
  rounds of one shape (the same destination pods, ports, payloads and
  tags, position by position), every verdict of a compile is a function
  of that shape and of which destinations are up, and so one agent's plan
  serves as the template for its pod-mates — only who the members are is
  re-read per agent (:func:`~repro.netsim.fabric.merge_class_plans`);
* pairs the class engine cannot serve (faulted envelopes, payload probes,
  down endpoints) degrade to the per-pair fast path with full per-probe
  records, and VIP probes keep the scalar state machine, per agent;
* results feed shard uploaders (per-probe rows on ``pingmesh/latency``,
  class summaries on ``pingmesh/latency-class``) and the stream plane's
  shard aggregator — the one window accumulator
  (:class:`~repro.stream.sketch.ClassStats`) the shard's numbers leave in,
  everything mergeable, one merge at window close.

With ``workers > 0`` a thread pool runs the per-shard class draws
concurrently, and only the draws: each shard's
:func:`~repro.netsim.fabric.execute_class_groups` touches nothing but the
shard's own RNG stream.  The generation check before and the shared-fabric
side effects after (round reports, the probe-conservation ledger, SNMP
counters — :meth:`~repro.netsim.fabric.Fabric.account_class_round`) stay on
the main thread in shard order, so serial and pooled rounds are
bit-identical under one seed, observers attached or not.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.agent.agent import PingmeshAgent
from repro.core.agent.uploader import ResultUploader
from repro.core.dsa.records import (
    CLASS_STREAM,
    make_class_record,
    make_records,
)
from repro.core.system import PingmeshSystem
from repro.netsim.fabric import (
    ClassRoundPlan,
    execute_class_groups,
    merge_class_plans,
)

__all__ = ["FleetShard", "ShardedFleet"]


class FleetShard:
    """One (dc, podset) worth of agents, driven as a unit."""

    def __init__(
        self,
        fleet: "ShardedFleet",
        dc: int,
        podset: int,
        agents: list[PingmeshAgent],
    ) -> None:
        system = fleet.system
        self.fleet = fleet
        self.dc = dc
        self.podset = podset
        self.agents = agents
        self.shard_id = f"shard:dc{dc}/podset{podset}"
        config = system.config.agent
        self.rng = np.random.default_rng([system.config.seed, dc, podset])
        self.probe_uploader = ResultUploader(
            system.store,
            self.shard_id,
            retry_base_s=config.upload_retry_base_s,
            retry_cap_s=config.upload_retry_cap_s,
        )
        self.class_uploader = ResultUploader(
            system.store,
            self.shard_id,
            stream=CLASS_STREAM,
            retry_base_s=config.upload_retry_base_s,
            retry_cap_s=config.upload_retry_cap_s,
        )
        self.aggregator = system.stream.shard_aggregator(dc, podset)
        self._record_server_cache: dict = {}
        self.active: list[PingmeshAgent] = []  # probing agents on live hosts
        self._versions: tuple | None = None  # fleet version at last filter
        # What the plan was compiled from: the fabric generation and, per
        # active agent, ``(pinglist, shape number, destinations)`` — the
        # pinglist *object* is held, so ``is`` cannot be fooled by a
        # recycled address, and what was derived from it is kept with it.
        self._plan_version = -1
        self._compiled_for: dict[str, tuple] = {}  # by server_id
        # One number per distinct round shape seen (pods x pinglist
        # variants), so a compile keys its templates on an int.
        self._shape_numbers: dict[tuple, int] = {}
        self._plan: ClassRoundPlan | None = None
        self._passthrough: list = []  # (agent, entries, tags) with entries left
        self._vip_agents: list = []  # (agent, vip_entries)
        self.last_upload_t = 0.0
        self.probes_sent = 0
        self.rounds_run = 0

    # -- plan compilation --------------------------------------------------

    def _compiled(self):
        """The shard's merged class plan + degraded work, memoized twice: a
        healthy round is one version compare; when the fleet version moved
        the roster is re-filtered, but the plan is rebuilt only if *this*
        shard's pinglist snapshots changed (the version is fleet-wide)."""
        system = self.fleet.system
        versions = system.fleet_version
        if versions != self._versions:
            topology = system.topology
            self.active = [
                agent
                for agent in self.agents
                if agent.probing and topology.server(agent.server_id).is_up
            ]
            if not self._plan_current():
                self._compile()
            self._versions = versions
        return self._plan, self._passthrough, self._vip_agents

    def _plan_current(self) -> bool:
        """Was the plan compiled at this fabric generation, from exactly the
        active agents' present pinglist objects?"""
        held = self._compiled_for
        if (
            self._plan_version != self.fleet.system.fabric.state_version
            or len(held) != len(self.active)
        ):
            return False
        for agent in self.active:
            kept = held.get(agent.server_id)
            if kept is None or kept[0] is not agent.pinglist:
                return False
        return True

    def _compile(self) -> None:
        """One ``build_class_plan`` per distinct (round shape, destination
        liveness) among the active agents — on a healthy fleet, per pod —
        and that plan as the template for every agent that shares it."""
        fabric = self.fleet.system.fabric
        passthrough: list = []
        vip_agents: list = []
        templates: dict[tuple, ClassRoundPlan] = {}
        plans: list[ClassRoundPlan] = []
        sources: list[tuple] = []
        held = self._compiled_for
        compiled_for: dict[str, tuple] = {}
        shape_numbers = self._shape_numbers
        for agent in self.active:
            vip_entries, probe_entries, tags = agent._round_entries()
            if vip_entries:
                vip_agents.append((agent, vip_entries))
            kept = held.get(agent.server_id)
            if kept is None or kept[0] is not agent.pinglist:
                # Once per pinglist object, not per fabric generation.
                shape, destinations = fabric.class_plan_shape(
                    agent.server_id, probe_entries, tags
                )
                number = shape_numbers.setdefault(shape, len(shape_numbers))
                kept = (agent.pinglist, number, destinations)
            compiled_for[agent.server_id] = kept
            if not probe_entries:
                continue
            _pinglist, number, destinations = kept
            key = (number, tuple([server.is_up for server in destinations]))
            plan = templates.get(key)
            if plan is None:
                plan = templates[key] = fabric.build_class_plan(
                    agent.server_id, probe_entries, tags
                )
            plans.append(plan)
            sources.append((agent.server_id, probe_entries))
            if plan.passthrough:
                # Tuples: the engine keys its per-round plan on them.
                passthrough.append(
                    (
                        agent,
                        tuple([probe_entries[i] for i in plan.passthrough]),
                        tuple([tags[i] for i in plan.passthrough]),
                    )
                )
        self._plan = merge_class_plans(plans, sources)
        self._plan_version = fabric.state_version
        self._compiled_for = compiled_for
        self._passthrough = passthrough
        self._vip_agents = vip_agents

    # -- execution ---------------------------------------------------------

    def run_serial_part(self, t: float) -> int:
        """VIP probes + degraded per-pair probes (main thread only: the
        scalar and fast engines share the fabric RNG).

        Degraded/faulted pairs feed the *agent's* pair-granularity stream
        aggregator, not the shard's class-granular one: these are exactly
        the outcomes detectors may need to localize per pod (black-hole
        candidates), while the healthy closed-form bulk stays
        class-granular in :meth:`fold_outcomes`.
        """
        _plan, passthrough, vip_agents = self._compiled()
        fabric = self.fleet.system.fabric
        launched = 0
        for agent, vip_entries in vip_agents:
            for entry in vip_entries:
                launched += agent._probe_vip(entry, t)
        for agent, entries, tags in passthrough:
            batch = make_records(
                fabric.topology,
                fabric.probe_many(agent.server_id, entries, t=t),
                tags,
                self._record_server_cache,
            )
            agent.stream_aggregator.observe_round(
                t, batch.static.classes, batch.success, batch.rtt_us
            )
            self.probe_uploader.add_many(agent._tag_stale_many(batch))
            if self.probe_uploader.should_flush:
                # Mid-round: an incident's record flood (one silent-spine
                # round is more rows than the buffer's backstop holds) must
                # not wait for maybe_upload and lose its oldest rows (§4.1).
                self.probe_uploader.flush(t)
            launched += batch.n
        return launched

    def run_class_part(self, t: float) -> list:
        """The closed-form draws on the shard's own RNG stream."""
        plan = self._plan
        if plan is None or not plan.groups:
            return []
        return self.fleet.system.fabric.run_class_plan(plan, t=t, rng=self.rng)

    def fold_outcomes(self, t: float, outcomes: list) -> int:
        """Fold class outcomes into the shard's planes (main thread)."""
        launched = 0
        for outcome in outcomes:
            self.aggregator.observe_class_round(
                t, outcome.purpose, outcome.failed, outcome.rtt_s * 1e6
            )
            self.class_uploader.add(
                make_class_record(outcome, t, self.shard_id, self.dc, self.podset, -1)
            )
            launched += outcome.n
        return launched

    def maybe_upload(self, t: float) -> None:
        """The agents' upload discipline at shard granularity."""
        config = self.fleet.system.config.agent
        timer_due = (t - self.last_upload_t) >= config.upload_period_s
        replay_due = self.probe_uploader.replay_due(t) or self.class_uploader.replay_due(t)
        if (
            not timer_due
            and not self.probe_uploader.should_flush
            and not self.class_uploader.should_flush
            and not replay_due
        ):
            return
        self.probe_uploader.flush(t)
        self.class_uploader.flush(t)
        self.last_upload_t = t


class ShardedFleet:
    """Runs a :class:`PingmeshSystem`'s probe rounds shard at a time.

    Usage::

        system = PingmeshSystem(config)        # round_mode="class" required
        fleet = ShardedFleet(system, workers=2)
        fleet.run_for(600.0)                   # one simulated 10-min window

    ``workers=0`` (the default) runs every shard's class draws on the main
    thread; ``workers > 0`` runs them on a thread pool opened and joined
    within each round.  Both are bit-identical under one seed — each shard
    owns its RNG stream, and everything a round shares is accounted on the
    main thread in shard order.

    The fleet attaches itself as ``system.fleet`` and starts the system; a
    class-mode system schedules no per-agent rounds, everything else
    (pinglist refreshes, DSA jobs, stream ticks, watchdogs, repairs) keeps
    its normal schedule, and the fleet installs one recurring fleet-round
    event in the same queue.
    """

    def __init__(self, system: PingmeshSystem, workers: int = 0) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0: {workers}")
        if system.config.agent.round_mode != "class":
            raise ValueError(
                f"ShardedFleet drives class rounds; the system's agents run "
                f"their own {system.config.agent.round_mode!r} rounds"
            )
        self.system = system
        self.workers = workers
        self.shards: dict[tuple[int, int], FleetShard] = {}
        self._agent_count = -1
        self._agent_index: dict[str, int] = {}  # server id -> fleet position
        self._watched: dict[int, PingmeshAgent] = {}  # fed / holding records
        self._oldest_upload_t = float("inf")
        self._upload_versions: tuple | None = None
        self._scheduled = False
        self.probes_sent = 0
        self.rounds_run = 0
        # On-demand probes injected by an attached broker are accounted
        # separately so baseline probe streams stay bit-identical with the
        # broker idle (the no-interference gate).
        self.broker_probes_sent = 0
        system.fleet = self
        if not system._started:
            system.start()

    # -- shard maintenance -------------------------------------------------

    def _refresh_shards(self) -> None:
        """(Re)group agents by (dc, podset); idempotent, growth-aware."""
        if len(self.system.agents) == self._agent_count:
            return
        topology = self.system.topology
        grouped: dict[tuple[int, int], list[PingmeshAgent]] = {}
        for agent in self.system.agents.values():
            server = topology.server(agent.server_id)
            grouped.setdefault(
                (server.dc_index, server.podset_index), []
            ).append(agent)
        for key, agents in grouped.items():
            shard = self.shards.get(key)
            if shard is None:
                self.shards[key] = FleetShard(self, key[0], key[1], agents)
            else:
                shard.agents = agents
                shard._versions = None  # membership changed
        self._agent_count = len(self.system.agents)
        self._agent_index = {sid: i for i, sid in enumerate(self.system.agents)}

    # -- the round ---------------------------------------------------------

    def run_round(self, t: float | None = None) -> int:
        """One fleet-wide probe round: every shard's serial work, then every
        shard's class draws (on a thread pool if ``workers > 0``), then the
        folds."""
        if t is None:
            t = self.system.clock.now
        self._refresh_shards()
        ordered = [self.shards[key] for key in sorted(self.shards)]
        launched = 0
        serial_launched = []
        for shard in ordered:
            n = shard.run_serial_part(t)
            serial_launched.append(n)
            launched += n
        if self.workers > 0:
            outcome_lists = self._run_class_parts_pooled(ordered, t)
        else:
            outcome_lists = [shard.run_class_part(t) for shard in ordered]
        for shard, outcomes, n_serial in zip(ordered, outcome_lists, serial_launched):
            n_class = shard.fold_outcomes(t, outcomes)
            launched += n_class
            shard.probes_sent += n_serial + n_class
            shard.rounds_run += 1
            shard.maybe_upload(t)
        self._upload_agents(t, ordered)
        self.probes_sent += launched
        self.rounds_run += 1
        broker = self.system.broker
        if broker is not None:
            # On-demand work runs strictly after every baseline draw, on the
            # main thread with the fabric's own RNG: an idle broker draws
            # nothing, so baseline streams are bit-identical either way.
            self.broker_probes_sent += broker.on_fleet_round(self, t)
        return launched

    def _upload_agents(self, t: float, ordered: list[FleetShard]) -> None:
        """The agents' upload discipline without a per-agent sweep.

        ``maybe_upload`` only acts on a timer, a full buffer or a due
        replay, so it is called on everyone just in the round the oldest
        upload timer of a running agent on a live host fires, and otherwise
        on the agents this round's VIP probes fed or that still hold
        records — in fleet order, so store appends land as a sweep's would.
        """
        system = self.system
        if system.fleet_version != self._upload_versions:
            self._rescan_uploads()
            self._upload_versions = system.fleet_version
        if (t - self._oldest_upload_t) >= system.config.agent.upload_period_s:
            for agent in system.agents.values():
                agent.maybe_upload(t)
            self._rescan_uploads()
            return
        for shard in ordered:
            for agent, _vip_entries in shard._vip_agents:
                self._watched[self._agent_index[agent.server_id]] = agent
        for index in sorted(self._watched):
            agent = self._watched[index]
            agent.maybe_upload(t)
            if not agent.holds_results:
                del self._watched[index]

    def _rescan_uploads(self) -> None:
        """Re-derive the oldest live upload timer and who holds records."""
        topology = self.system.topology
        self._oldest_upload_t = float("inf")
        self._watched = {}
        for index, agent in enumerate(self.system.agents.values()):
            if agent.running and topology.server(agent.server_id).is_up:
                self._oldest_upload_t = min(self._oldest_upload_t, agent.last_upload_t)
            if agent.holds_results:
                self._watched[index] = agent

    def _run_class_parts_pooled(self, ordered: list[FleetShard], t: float) -> list:
        """The shards' class draws on a thread pool, and only the draws:
        plans are checked before the fan-out and accounted after the join,
        on the main thread in shard order, as serial rounds do them."""
        fabric = self.system.fabric
        drawn = [shard for shard in ordered if shard._plan.groups]
        for shard in drawn:
            fabric.check_class_plan(shard._plan)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = {
                shard: pool.submit(
                    execute_class_groups,
                    shard._plan.groups,
                    fabric._latency,
                    t,
                    shard.rng,
                )
                for shard in drawn
            }
        outcomes = {shard: future.result() for shard, future in futures.items()}
        for shard in drawn:
            fabric.account_class_round(shard._plan, t)
        return [outcomes.get(shard, []) for shard in ordered]

    # -- scheduling --------------------------------------------------------

    def schedule(self) -> None:
        """Install the recurring fleet-round event (idempotent)."""
        if self._scheduled:
            return
        self._scheduled = True

        def fleet_round() -> None:
            self.run_round(self.system.clock.now)
            self.system.queue.schedule_after(
                self.system._round_interval(), fleet_round, name="fleet-round"
            )

        self.system.queue.schedule_after(0.0, fleet_round, name="fleet-round")

    def run_for(self, duration_s: float, max_events: int | None = None) -> int:
        """Schedule (if needed) and advance the deployment."""
        self.schedule()
        return self.system.run_for(duration_s, max_events=max_events)
