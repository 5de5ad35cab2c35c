"""PingmeshSystem: the whole paper, wired together.

Controller + agents on every server + Cosmos/SCOPE DSA + Autopilot
(PA counters, watchdogs, device manager, repair service) over the simulated
fabric, all driven by one event queue.  This is the main entry point of the
library:

    from repro import PingmeshSystem
    system = PingmeshSystem.build()
    system.run_for(3600.0)
    print(system.dsa.database.query("sla_hourly"))
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.autopilot.environment import AutopilotEnvironment
from repro.autopilot.service_manager import ServiceManager
from repro.autopilot.shared_service import ResourceBudgetExceeded
from repro.autopilot.watchdog import HealthStatus
from repro.core.agent.agent import AgentConfig, PingmeshAgent
from repro.core.agent.uploader import ResultUploader
from repro.core.controller.generator import GeneratorConfig
from repro.core.controller.service import PingmeshControllerService
from repro.core.controller.slb import NoHealthyBackendError, SoftwareLoadBalancer
from repro.core.dsa.alerts import AlertEngine
from repro.core.dsa.database import ResultsDatabase
from repro.core.dsa.pipeline import DsaConfig, DsaPipeline
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.dsa.sla import NetworkSla, ServiceDefinition, SlaTracker
from repro.cosmos.jobs import JobManager
from repro.cosmos.store import CosmosStore
from repro.netsim.devices import StateVersion
from repro.netsim.fabric import Fabric
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.resilience import PinglistState
from repro.stream.plane import StreamConfig, StreamPlane

__all__ = ["PingmeshSystemConfig", "PingmeshSystem"]

REPAIR_POLL_PERIOD_S = 300.0  # the Repair Service drains the DM queue this often


@dataclass(frozen=True)
class PingmeshSystemConfig:
    """Everything configurable about a full deployment."""

    specs: tuple[TopologySpec, ...] = (TopologySpec(),)
    seed: int = 0
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    dsa: DsaConfig = field(default_factory=DsaConfig)
    stream: StreamConfig = field(default_factory=StreamConfig)
    n_controller_replicas: int = 2
    services: tuple[ServiceDefinition, ...] = ()
    # §6.2 VIP monitoring: logical VIP name -> the DIP server ids behind it.
    # Each VIP becomes a pinglist target; the agents' probes are load-
    # balanced over its live DIPs, and an all-DIPs-down VIP shows up as
    # failed vip-purpose probes.
    vips: dict = field(default_factory=dict)


class PingmeshSystem:
    """A running Pingmesh deployment over the simulator."""

    def __init__(self, config: PingmeshSystemConfig | None = None) -> None:
        self.config = config or PingmeshSystemConfig()
        self.topology = MultiDCTopology(list(self.config.specs))
        self.fabric = Fabric(self.topology, seed=self.config.seed)
        self.env = AutopilotEnvironment("pingmesh-env", self.fabric)
        self.clock = self.env.clock
        self.queue = self.env.queue
        self.store = CosmosStore()
        self.database = ResultsDatabase()
        generator_config = self.config.generator
        if self.config.vips:
            generator_config = dataclasses.replace(
                generator_config,
                vip_targets=tuple(sorted(self.config.vips)),
            )
        self.controller = PingmeshControllerService(
            self.topology,
            generator_config,
            n_replicas=self.config.n_controller_replicas,
        )
        self.controller.regenerate(t=self.clock.now)
        self.vip_slbs = {
            vip: SoftwareLoadBalancer(
                vip,
                list(dips),
                health_check=lambda dip: self.topology.server(dip).is_up,
            )
            for vip, dips in self.config.vips.items()
        }

        self.sla_tracker = SlaTracker(self.config.services)
        self.alert_engine = AlertEngine()
        # The streaming plane shares the batch plane's AlertEngine so both
        # report into one episode table (whichever plane detects first owns
        # the breach event).
        self.stream = StreamPlane(self.config.stream, self.alert_engine, self.topology)
        self.job_manager = JobManager(self.queue)
        self.dsa = DsaPipeline(
            store=self.store,
            database=self.database,
            job_manager=self.job_manager,
            topology=self.topology,
            fabric=self.fabric,
            device_manager=self.env.device_manager,
            sla_tracker=self.sla_tracker,
            alert_engine=self.alert_engine,
            config=self.config.dsa,
        )
        self.agents: dict[str, PingmeshAgent] = {}
        # Fleet bookkeeping is pushed, not polled: agents bump the shared
        # roster version when their running flag or pinglist is written, and
        # staleness transitions adjust the stale-agent gauge.
        self.roster_version = StateVersion()
        self.stale_agents = 0
        # On-demand measurement broker (repro.broker); attaches itself.
        self.broker = None
        # Class-round orchestrator (repro.core.sharded.ShardedFleet); attaches itself.
        self.fleet = None
        self._started = False

    @classmethod
    def build(
        cls,
        spec: TopologySpec | None = None,
        seed: int = 0,
        **config_kwargs,
    ) -> "PingmeshSystem":
        """Convenience constructor for a single-DC deployment."""
        config = PingmeshSystemConfig(
            specs=(spec or TopologySpec(),), seed=seed, **config_kwargs
        )
        return cls(config)

    # -- startup -----------------------------------------------------------

    def _resolve_vip(self, vip: str) -> str | None:
        """VIP -> a live DIP server id, or None when the VIP is dark."""
        slb = self.vip_slbs.get(vip)
        if slb is None:
            return None
        slb.run_health_checks()
        try:
            return slb.pick()
        except NoHealthyBackendError:
            return None

    def _agent_factory(self):
        """The one agent factory: every deployment path (initial rollout,
        podset growth) must build agents identically, VIP resolver included."""
        vip_resolver = self._resolve_vip if self.vip_slbs else None

        def factory(server_id: str) -> PingmeshAgent:
            uploader = ResultUploader(
                self.store,
                server_id,
                retry_base_s=self.config.agent.upload_retry_base_s,
                retry_cap_s=self.config.agent.upload_retry_cap_s,
            )
            return PingmeshAgent(
                server_id,
                self.fabric,
                self.controller,
                uploader,
                config=self.config.agent,
                vip_resolver=vip_resolver,
                # Agents always hold pair-granularity aggregators: what an
                # agent feeds directly (VIP probes, per-agent rounds, the
                # sharded fleet's degraded passthrough) is exactly the
                # traffic detectors may need to localize per pod.  The
                # class-granular shard aggregators are fed only by
                # FleetShard's closed-form outcomes.
                stream_aggregator=self.stream.pair_aggregator_for(server_id),
                roster_version=self.roster_version,
            )

        return factory

    @property
    def fleet_version(self) -> tuple[int, int]:
        """Moves whenever who probes what (or uploads) may have changed:
        device/fault state, or an agent's ``running`` / ``pinglist``."""
        return self.fabric.state_version, self.roster_version.value

    def _adopt(self, agent: PingmeshAgent) -> None:
        """Enter a deployed agent into the fleet's books."""
        self.agents[agent.server_id] = agent
        self.stale_agents += agent.pinglist_stale
        agent.safety.staleness.on_transition = self._staleness_moved

    def _staleness_moved(self, old: PinglistState, new: PinglistState) -> None:
        self.stale_agents += (new is PinglistState.STALE) - (old is PinglistState.STALE)

    def start(self) -> None:
        """Deploy agents fleet-wide, start DSA jobs, PA and watchdogs.

        ``round_mode`` picks who runs probe rounds: in ``"fast"`` mode every
        agent runs its own staggered probe rounds; in ``"class"`` mode no
        agent does, and the attached :class:`~repro.core.sharded.ShardedFleet`
        runs them shard at a time — so a class-mode system refuses to start
        without one.  Pinglist refreshes run per agent either way.
        """
        if self._started:
            raise RuntimeError("system already started")
        if not self._agent_rounds and self.fleet is None:
            raise RuntimeError(
                "class-mode rounds run under a ShardedFleet: build one on "
                "the system instead of starting it"
            )
        self._started = True

        for agent in self.env.deploy_shared_service(self._agent_factory()):
            self._adopt(agent)

        # The Service Manager supervises the fleet: a memory-cap kill is
        # fail-closed, the restart (within budget) is what makes Pingmesh
        # "always-on" in practice.
        self.service_manager = ServiceManager(self.queue)
        self.service_manager.supervise_all(list(self.agents.values()))
        self.service_manager.start()

        self.dsa.register_jobs()
        self._register_watchdogs()
        self.env.start_services()
        self.queue.schedule_after(
            REPAIR_POLL_PERIOD_S, self._repair_tick, name="repair-tick"
        )
        self.queue.schedule_after(
            self.config.stream.window_s, self._stream_tick, name="stream-tick"
        )

        self._schedule_agents(list(self.agents.values()))

    @property
    def _agent_rounds(self) -> bool:
        """Do agents run their own probe rounds (``"fast"`` mode)?"""
        return self.config.agent.round_mode == "fast"

    def _schedule_agents(self, agents: list[PingmeshAgent]) -> None:
        """Initial pinglist fetch, then each agent's schedules: probe
        rounds staggered over the interval (fast mode only) and jittered
        refreshes, so the fleet's polls (and its recovery retries)
        decorrelate instead of thundering."""
        interval = self._round_interval()
        n = max(1, len(agents))
        for index, agent in enumerate(agents):
            agent.refresh_pinglist(self.clock.now)
            if self._agent_rounds:
                self.queue.schedule_after(
                    (index / n) * interval,
                    lambda a=agent: self._agent_round(a),
                    name="agent-round",
                )
            self.queue.schedule_after(
                agent.next_refresh_delay(),
                lambda a=agent: self._agent_refresh(a),
                name="agent-refresh",
            )

    def _round_interval(self) -> float:
        from repro.core.agent.safety import SafetyGuard

        return SafetyGuard.clamp_probe_interval(
            self.config.generator.probe_interval_s
        )

    def _agent_round(self, agent: PingmeshAgent) -> None:
        t = self.clock.now
        if agent.running:
            try:
                agent.run_probe_round(t)
                if self.broker is not None:
                    # Injected on-demand work rides the agent's round so the
                    # per-pair spacing floor holds by construction.
                    self.broker.on_agent_round(agent, t)
                agent.maybe_upload(t)
            except ResourceBudgetExceeded:
                # The OS killed the agent (fail-closed, §3.4.2).  The rest
                # of the system keeps running; the Service Manager will
                # restart the agent within its budget.
                pass
        # Fail-closed agents keep their schedule: they resume probing when
        # the controller serves a pinglist again.
        self.queue.schedule_after(
            agent.probe_interval_s,
            lambda: self._agent_round(agent),
            name="agent-round",
        )

    def _agent_refresh(self, agent: PingmeshAgent) -> None:
        if agent.running:
            agent.refresh_pinglist(self.clock.now)
        # The next refresh follows the agent's staleness state machine:
        # jittered period when FRESH, capped backoff when STALE/FAIL_CLOSED.
        self.queue.schedule_after(
            agent.next_refresh_delay(),
            lambda: self._agent_refresh(agent),
            name="agent-refresh",
        )

    def _repair_tick(self) -> None:
        """The Repair Service polls the DM queue periodically (§2.3)."""
        self.env.repair_service.process_queue(self.clock.now)
        self.queue.schedule_after(
            REPAIR_POLL_PERIOD_S, self._repair_tick, name="repair-tick"
        )

    def _stream_tick(self) -> None:
        """One streaming-plane cycle: flush deltas, ingest, detect."""
        if self.agents:
            self.stream.observe_staleness(
                self.clock.now, self.stale_agents, len(self.agents)
            )
        self.stream.observe_downloads(
            self.clock.now, self.controller.download_stats()
        )
        self.stream.tick(self.clock.now)
        self.queue.schedule_after(
            self.config.stream.window_s, self._stream_tick, name="stream-tick"
        )

    def _register_watchdogs(self) -> None:
        """The §3.5 watchdogs: pinglists, budgets, data flow, SLA freshness."""

        def pinglists_generated():
            healthy = self.controller.healthy_replica_count()
            if healthy == 0:
                return HealthStatus.ERROR, "no healthy controller replica"
            if self.controller.generation == 0:
                return HealthStatus.ERROR, "pinglists never generated"
            return HealthStatus.OK, f"generation {self.controller.generation}"

        def agents_within_budget():
            terminated = [
                agent.server_id
                for agent in self.agents.values()
                if agent.terminated_reason is not None
            ]
            if terminated:
                return (
                    HealthStatus.ERROR,
                    f"{len(terminated)} agent(s) killed: {terminated[:3]}",
                )
            return HealthStatus.OK, ""

        def data_reported():
            if not self.store.has_stream(LATENCY_STREAM):
                return HealthStatus.WARNING, "no latency data yet"
            return (
                HealthStatus.OK,
                f"{self.store.stream(LATENCY_STREAM).record_count} records",
            )

        def sla_timely():
            latest = self.database.latest("sla_hourly")
            if latest is None:
                return HealthStatus.WARNING, "no hourly SLA yet"
            age = self.clock.now - latest["t"]
            if age > 2 * self.config.dsa.hourly_period_s:
                return HealthStatus.ERROR, f"hourly SLA stale by {age:.0f}s"
            return HealthStatus.OK, ""

        def stream_ingesting():
            stream = self.stream
            if stream.vip_dark:
                return (
                    HealthStatus.ERROR,
                    f"ingest VIP {stream.config.ingest_vip} dark: "
                    f"{stream.deltas_dropped} delta(s) dropped",
                )
            return (
                HealthStatus.OK,
                f"{stream.deltas_delivered} deltas ingested",
            )

        watchdogs = self.env.watchdogs
        watchdogs.register("pinglists-generated", pinglists_generated)
        watchdogs.register("agents-within-budget", agents_within_budget)
        watchdogs.register("data-reported", data_reported)
        watchdogs.register("sla-timely", sla_timely)
        watchdogs.register("stream-ingesting", stream_ingesting)

    # -- operation -------------------------------------------------------------

    def run_for(self, duration_s: float, max_events: int | None = None) -> int:
        """Advance the deployment; also drains the repair queue as it goes."""
        if not self._started:
            self.start()
        executed = self.env.run_for(duration_s, max_events=max_events)
        self.env.repair_service.process_queue(self.clock.now)
        return executed

    # -- topology growth ----------------------------------------------------------

    def add_podset(self, dc: int | str = 0) -> list[str]:
        """Land a new podset: grow the fabric, regenerate pinglists, deploy
        agents on the new servers and fold them into every schedule.

        Existing agents pick the new peers up at their next pinglist
        refresh — no restart, the §6.2 loose-coupling story.  Returns the
        new server ids.
        """
        if not self._started:
            raise RuntimeError("start the system before growing it")
        grown = self.topology.dc(dc)
        new_servers = grown.add_podset()
        # The delta hint keeps the controller refresh O(changed): only the
        # grown DC's entry memos (plus moved inter-DC participants) drop.
        self.controller.regenerate(
            t=self.clock.now, changed_dcs=(grown.dc_index,)
        )

        new_ids = [server.device_id for server in new_servers]
        agents = self.env.deploy_shared_service(
            self._agent_factory(), servers=new_ids
        )
        self.service_manager.supervise_all(agents)
        for agent in agents:
            self._adopt(agent)
        self._schedule_agents(agents)
        return new_ids

    # -- convenience accessors ----------------------------------------------------

    def agent_on(self, server_id: str) -> PingmeshAgent:
        try:
            return self.agents[server_id]
        except KeyError:
            raise KeyError(f"no agent on {server_id}") from None

    def total_probes_sent(self) -> int:
        return sum(agent.probes_sent for agent in self.agents.values())

    def alerts(self) -> list:
        return list(self.alert_engine.history)

    def is_network_issue(self, service: str | None = None) -> bool:
        """§4.3: answer "is it a network issue?" from the latest hourly SLAs.

        With a service name, only that service's SLA rows are consulted —
        per-service SLA is the whole point of the server mapping.
        """
        rows = self.database.query("sla_hourly")
        if not rows:
            return False
        newest_t = max(row["t"] for row in rows)
        rows = [row for row in rows if row["t"] == newest_t]
        if service is not None:
            rows = [
                row
                for row in rows
                if row["scope"] == "service" and row["key"] == service
            ]
        else:
            # Macro scopes only: per-server windows are too small-sample for
            # the 5 ms P99 threshold (see DsaPipeline.run_hourly_job).
            rows = [
                row
                for row in rows
                if row["scope"] in ("datacenter", "podset", "service")
            ]
        return self.alert_engine.is_network_issue(
            [NetworkSla.from_row(row) for row in rows]
        )
