"""Pushed fleet bookkeeping == the brute-force sweeps it replaced.

A healthy ``ShardedFleet`` round no longer asks every agent whether it is
stale, probing or due an upload; the answers are pushed (staleness hook,
roster version, upload watch).  These tests drive a 256-server fleet
through the events that move that state — faults, a controller blackout
through STALE and FAIL_CLOSED to heal, the kill switch, podset growth,
agent kills with Service Manager restarts, host power-offs, VIP probes
into a blacked-out store — and after every round compare the pushed
answers with a recount, and the whole run with a twin fleet that still
sweeps every agent every round.

``test_healthy_rounds_touch_no_agent`` is the structural perf guard: it
counts calls instead of timing them.
"""

from __future__ import annotations

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.agent import AgentConfig, PingmeshAgent
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.records import CLASS_STREAM, LATENCY_STREAM
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faults import SilentRandomDrop
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig

_SPEC_256 = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=4)
_SPEC_1K = TopologySpec(n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8)
# Pods are numbered across the DC: podset 1 holds pods 4-7, and so on.
_VIP_DIPS = tuple(f"{_SPEC_256.name}/ps1/pod6/srv{i}" for i in range(2))
_VICTIMS = (f"{_SPEC_256.name}/ps0/pod1/srv3", f"{_SPEC_256.name}/ps2/pod9/srv3")
_POWERED_OFF = tuple(f"{_SPEC_256.name}/ps3/pod12/srv{i}" for i in (0, 5))

OPS = (
    "run", "fault", "clear", "blackout", "heal", "kill", "unkill", "grow",
    "terminate", "poweroff", "poweron", "store-down", "store-up",
)


# -- the old sweeps, kept here as the reference -------------------------------


def _would_upload(agent: PingmeshAgent, t: float) -> bool:
    """Would the pre-change per-round ``maybe_upload`` call have flushed?"""
    if not agent.running or not agent.fabric.topology.server(agent.server_id).is_up:
        return False
    uploaders = [u for u in (agent.uploader, agent.class_uploader) if u is not None]
    return (t - agent.last_upload_t) >= agent.config.upload_period_s or any(
        u.should_flush or u.replay_due(t) for u in uploaders
    )


class _SweepingFleet(ShardedFleet):
    """The pre-change upload discipline: every agent, every round."""

    def _upload_agents(self, t, ordered):
        for agent in self.system.agents.values():
            agent.maybe_upload(t)


class _CheckedFleet(ShardedFleet):
    """The real fleet, asserting its bookkeeping against a recount each round."""

    idle_rounds = 0  # rounds that skipped at least one agent

    def _upload_agents(self, t, ordered):
        agents = self.system.agents
        expected = {sid for sid, agent in agents.items() if _would_upload(agent, t)}
        visited: list[str] = []
        real = PingmeshAgent.maybe_upload

        def spy(agent, t):
            visited.append(agent.server_id)
            return real(agent, t)

        with mock.patch.object(PingmeshAgent, "maybe_upload", spy):
            super()._upload_agents(t, ordered)
        assert expected <= set(visited)
        position = {sid: i for i, sid in enumerate(agents)}
        assert visited == sorted(set(visited), key=position.__getitem__)
        self.idle_rounds += len(visited) < len(agents)

    def run_round(self, t=None):
        launched = super().run_round(t)
        system = self.system
        assert system.stale_agents == sum(
            agent.pinglist_stale for agent in system.agents.values()
        )
        for shard in self.shards.values():
            assert shard.active == [
                agent
                for agent in shard.agents
                if agent.probing and system.topology.server(agent.server_id).is_up
            ]
        return launched


# -- the scripted drill ---------------------------------------------------------


def _system(seed: int, vips: bool) -> PingmeshSystem:
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC_256,),
            seed=seed,
            generator=GeneratorConfig(probe_interval_s=30.0),
            agent=AgentConfig(
                round_mode="class",
                pinglist_refresh_s=60.0,
                refresh_retry_base_s=10.0,
                refresh_retry_cap_s=60.0,
                upload_period_s=100.0,
                upload_retry_base_s=20.0,
                upload_retry_cap_s=60.0,
            ),
            stream=StreamConfig(shard_aggregation=True),
            vips={"web.vip": _VIP_DIPS} if vips else {},
        )
    )


def _refuse(records, t):
    raise ConnectionError("cosmos unavailable (bookkeeping drill)")


class _Drill:
    """One system + fleet and the script state that belongs to it."""

    def __init__(self, fleet_cls, seed: int, vips: bool) -> None:
        self.system = _system(seed, vips)
        self.fleet = fleet_cls(self.system)
        self.fault = None
        self.grown = False

    def apply(self, op: str) -> None:
        system = self.system
        controller = system.controller
        if op == "fault" and self.fault is None:
            # A ToR, not a spine: one pod's pairs degrade to per-pair probes
            # with records, the other fifteen stay closed-form (and cheap).
            tor = system.topology.dc(0).tors[5]
            self.fault = system.fabric.faults.inject(
                SilentRandomDrop(switch_id=tor.device_id, drop_prob=0.3)
            )
        elif op == "clear" and self.fault is not None:
            system.fabric.faults.clear(self.fault)
            self.fault = None
        elif op == "blackout":
            for dip in controller.replicas:
                controller.fail_replica(dip)
        elif op == "heal":
            for dip in controller.replicas:
                controller.recover_replica(dip)
        elif op == "kill":
            controller.remove_all_pinglists()
        elif op == "unkill":
            controller.regenerate(t=system.clock.now, changed_dcs=())
        elif op == "grow" and not self.grown:
            system.add_podset(0)
            self.grown = True
        elif op == "terminate":
            for server_id in _VICTIMS:
                system.agent_on(server_id).terminate("bookkeeping drill")
        elif op in ("poweroff", "poweron"):
            for server_id in _POWERED_OFF:
                server = system.topology.server(server_id)
                server.bring_down() if op == "poweroff" else server.bring_up()
        elif op in ("store-down", "store-up"):
            for agent in system.agents.values():
                agent.uploader.set_upload_fn(_refuse if op == "store-down" else None)

    def upload_books(self) -> dict:
        return {
            sid: (agent.last_upload_t, vars(agent.uploader.stats))
            for sid, agent in self.system.agents.items()
        }

    def fingerprint(self) -> tuple:
        """``TestExecutorParity``'s fingerprint, rows in store order."""
        system, fleet = self.system, self.fleet
        for key in sorted(fleet.shards):
            fleet.shards[key].probe_uploader.flush(1e9)
            fleet.shards[key].class_uploader.flush(1e9)
        rows = {
            stream: [
                json.dumps(row, sort_keys=True, default=str)
                for row in system.store.read(stream)
            ]
            if system.store.has_stream(stream)
            else []
            for stream in (LATENCY_STREAM, CLASS_STREAM)
        }
        rngs = [system.fabric.rng] + [fleet.shards[k].rng for k in sorted(fleet.shards)]
        snmp = [
            (s.device_id, s.counters.packets_forwarded, s.counters.silent_drops)
            for s in system.topology.dc(0).all_switches()
        ]
        return (
            fleet.probes_sent,
            system.fabric.probes_carried,
            system.fabric.probes_refused,
            rows,
            [repr(rng.bit_generator.state) for rng in rngs],
            snmp,
            [list(vars(alert).values()) for alert in system.alert_engine.history],
        )


def _run_lockstep(script, seed: int, vips: bool) -> tuple[_Drill, dict]:
    """Run ``script`` on the checked fleet and its sweeping twin."""
    checked = _Drill(_CheckedFleet, seed, vips)
    reference = _Drill(_SweepingFleet, seed, vips)
    seen = {"stale": 0, "fail_closed": 0, "held": 0}
    for op, advance_s in script:
        for drill in (checked, reference):
            drill.apply(op)
            drill.fleet.run_for(advance_s)
        assert checked.upload_books() == reference.upload_books()
        agents = checked.system.agents.values()
        seen["stale"] = max(seen["stale"], checked.system.stale_agents)
        seen["fail_closed"] += sum(agent.safety.fail_closed for agent in agents)
        seen["held"] += sum(agent.holds_results for agent in agents)
    assert checked.fingerprint() == reference.fingerprint()
    return checked, seen


@settings(max_examples=4, deadline=None)
@given(
    script=st.lists(
        st.tuples(st.sampled_from(OPS), st.sampled_from((30.0, 60.0, 120.0))),
        min_size=1,
        max_size=8,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
    vips=st.booleans(),
)
def test_pushed_bookkeeping_matches_full_sweeps(script, seed, vips):
    _run_lockstep(script, seed, vips)


def test_scripted_drill_reaches_every_state():
    """One fixed script through every transition, so the property above is
    known not to pass vacuously."""
    script = [
        ("run", 120.0),
        ("store-down", 120.0),  # VIP records spool in every agent
        ("blackout", 60.0),  # first refresh failures: STALE
        ("fault", 30.0),
        ("run", 120.0),  # third failure: FAIL_CLOSED
        ("terminate", 30.0),
        ("heal", 120.0),
        ("store-up", 60.0),
        ("clear", 30.0),
        ("poweroff", 120.0),
        ("kill", 120.0),  # 404: FAIL_CLOSED from FRESH
        ("unkill", 120.0),
        ("grow", 60.0),
        ("poweron", 150.0),
    ]
    checked, seen = _run_lockstep(script, seed=7, vips=True)
    assert seen["stale"] > 0 and seen["fail_closed"] > 0 and seen["held"] > 0
    assert checked.system.service_manager.restarts
    assert len(checked.system.agents) > _SPEC_256.n_servers
    # Without VIPs nothing feeds the agents' uploaders: most rounds skip
    # most agents, and the twin must still agree.
    checked, _seen = _run_lockstep(script[:9], seed=7, vips=False)
    assert checked.fleet.idle_rounds > checked.fleet.rounds_run // 2


# -- the structural perf guard --------------------------------------------------


def _counting(counts: dict, name: str, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_healthy_rounds_touch_no_agent():
    """Between upload timers a healthy 1k-server round asks no agent
    anything, and a stream tick reads no agent's staleness."""
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC_1K,),
            seed=3,
            generator=GeneratorConfig(max_peers_per_server=32),
            agent=AgentConfig(round_mode="class", upload_period_s=600.0),
            stream=StreamConfig(shard_aggregation=True),
        )
    )
    fleet = ShardedFleet(system)
    fleet.run_round(0.0)  # compiles plans, derives the upload timer
    counts = {"maybe_upload": 0, "probing": 0, "pinglist_stale": 0}
    patches = [
        mock.patch.object(
            PingmeshAgent,
            "maybe_upload",
            _counting(counts, "maybe_upload", PingmeshAgent.maybe_upload),
        )
    ] + [
        mock.patch.object(
            PingmeshAgent,
            name,
            property(_counting(counts, name, getattr(PingmeshAgent, name).fget)),
        )
        for name in ("probing", "pinglist_stale")
    ]
    for patch in patches:
        patch.start()
    try:
        probes = [fleet.run_round(60.0 * k) for k in range(1, 10)]
        system._stream_tick()
        assert counts == {"maybe_upload": 0, "probing": 0, "pinglist_stale": 0}
        assert len(set(probes)) == 1 and probes[0] > 0
        fleet.run_round(600.0)  # the timer round sweeps everyone, once
        assert counts["maybe_upload"] == len(system.agents)
    finally:
        for patch in patches:
            patch.stop()
