"""Cold start, lock-step: per-pod structures equal the per-server enumeration.

Pinglists and the shard's class plan are built per pod (ISSUE 18); the
per-server code they replaced lives on here as the oracle, and the new
code is held to it exactly:

* (a) ``PingmeshGenerator`` against the §3.3.1 enumeration it used to run
  for every server (``_oracle_entries``, a copy of the old
  ``_compute_entries`` + ``_apply_threshold``): every server's entry
  sequence, over thresholds, extensions, two DCs with a down inter-DC
  pivot, a moved selection and growth.
* (b) ``FleetShard``'s compiled plan against
  ``merge_class_plans([build_class_plan(agent) ...])`` — the per-agent
  compile loop it used to run: group key order, every group's ``n``, the
  member sequence observers see, each agent's passthrough triples, the
  SNMP increments — healthy and under faults, power loss, one dead server,
  payload / low-QoS / VIP pinglists and two DCs.
* (c) work meters: interned entries stay near two per server and a healthy
  compile calls ``build_class_plan`` once per pod.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig, PingmeshGenerator
from repro.core.controller.pinglist import PinglistEntry
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.fabric import merge_class_plans
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.stream.plane import StreamConfig

# -- (a) generation ------------------------------------------------------------


def _oracle_selection(topology, config) -> dict[int, tuple]:
    """The inter-DC selection at the current liveness view."""
    frozen = {}
    for dc in topology.dcs:
        selected = []
        for podset in range(dc.spec.n_podsets):
            live = [s for s in dc.servers_in_podset(podset) if s.is_up]
            selected.extend(live[: config.inter_dc_servers_per_podset])
        frozen[dc.dc_index] = tuple((s.device_id, str(s.ip)) for s in selected)
    return frozen


def _oracle_entries(topology, config, frozen, server) -> list[PinglistEntry]:
    """The three-level graph for one server, post-threshold — the
    per-server enumeration the generator ran before slots existed."""
    dc = topology.dc(server.dc_index)
    entries: list[PinglistEntry] = []
    for peer in dc.servers_in_pod(server.pod_index):
        if peer.device_id != server.device_id:
            entries.append(
                PinglistEntry(peer.device_id, str(peer.ip), purpose="intra-pod")
            )
    tor_level: list[PinglistEntry] = []
    for pod in range(dc.spec.n_pods):
        if pod == server.pod_index:
            continue
        peers = dc.servers_in_pod(pod)
        if server.host_index < len(peers):
            peer = peers[server.host_index]
            tor_level.append(
                PinglistEntry(peer.device_id, str(peer.ip), purpose="tor-level")
            )
    entries.extend(tor_level)
    if config.enable_qos_low:
        entries.extend(
            PinglistEntry(e.peer_id, e.peer_ip, purpose=e.purpose, qos="low")
            for e in tor_level
        )
    if config.payload_every_nth_peer > 0:
        entries.extend(
            PinglistEntry(
                e.peer_id, e.peer_ip, purpose=e.purpose, qos=e.qos,
                payload_bytes=config.payload_bytes,
            )
            for e in tor_level[:: config.payload_every_nth_peer]
        )
    if len(topology.dcs) > 1:
        mine = {sid for sid, _ip in frozen.get(server.dc_index, ())}
        if server.device_id in mine:
            for other in topology.dcs:
                if other.dc_index == server.dc_index:
                    continue
                for peer_id, peer_ip in frozen.get(other.dc_index, ()):
                    entries.append(PinglistEntry(peer_id, peer_ip, purpose="inter-dc"))
    entries.extend(PinglistEntry(vip, vip, purpose="vip") for vip in config.vip_targets)

    limit = config.max_peers_per_server
    if len(entries) <= limit:
        return entries

    def priority(entry: PinglistEntry) -> int:
        if entry.qos == "low" or entry.payload_bytes > 0:
            return 4
        return {"intra-pod": 0, "tor-level": 1, "inter-dc": 2, "vip": 3}[entry.purpose]

    buckets: dict[int, list[PinglistEntry]] = {}
    for entry in entries:
        buckets.setdefault(priority(entry), []).append(entry)
    kept: list[PinglistEntry] = []
    for level in sorted(buckets):
        room = limit - len(kept)
        if room <= 0:
            break
        bucket = buckets[level]
        if len(bucket) <= room:
            kept.extend(bucket)
        else:
            stride = len(bucket) / room
            kept.extend(bucket[int(i * stride)] for i in range(room))
    return kept


def _assert_generation_matches(generator, frozen):
    topology, config = generator.topology, generator.config
    for server in topology.all_servers():
        got = generator.generate_for(server.device_id).entries
        want = _oracle_entries(topology, config, frozen, server)
        assert isinstance(got, tuple)
        assert list(got) == want, server.device_id


_GEN_SPEC = TopologySpec(n_podsets=2, pods_per_podset=3, servers_per_pod=5, n_spines=4)
_THRESHOLDS = (1, 2, 3, 4, 5, 7, 9, 10, 13, 20, 33, 5000)
_EXTENSIONS = {
    "plain": {},
    "qos-low": {"enable_qos_low": True},
    "payload-every-peer": {"payload_every_nth_peer": 1},
    "payload-every-3rd": {"payload_every_nth_peer": 3, "payload_bytes": 1200},
    "vips": {"vip_targets": ("search.vip", "a&b<c>.vip")},
    "everything": {
        "enable_qos_low": True,
        "payload_every_nth_peer": 2,
        "vip_targets": ("search.vip",),
    },
}


class TestGenerationEqualsPerServerEnumeration:
    @pytest.mark.parametrize("extension", sorted(_EXTENSIONS))
    @pytest.mark.parametrize("limit", _THRESHOLDS)
    def test_single_dc(self, limit, extension):
        topology = MultiDCTopology.single(_GEN_SPEC)
        config = GeneratorConfig(max_peers_per_server=limit, **_EXTENSIONS[extension])
        generator = PingmeshGenerator(topology, config)
        generator.note_topology_delta(None)
        _assert_generation_matches(generator, {})

    @pytest.mark.parametrize("extension", ("plain", "everything"))
    @pytest.mark.parametrize("limit", (3, 8, 12, 19, 5000))
    def test_two_dcs_with_a_down_pivot_then_a_moved_selection(self, limit, extension):
        topology = MultiDCTopology(
            [_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="europe")]
        )
        config = GeneratorConfig(max_peers_per_server=limit, **_EXTENSIONS[extension])
        # The first pivot of dc0/podset0 is down: the next live server steps in.
        topology.dc(0).servers[0].bring_down()
        generator = PingmeshGenerator(topology, config)
        generator.note_topology_delta(None)
        frozen = _oracle_selection(topology, config)
        assert topology.dc(0).servers[0].device_id not in dict(frozen[0])
        _assert_generation_matches(generator, frozen)
        # Liveness drifts; nothing moves until the next regeneration...
        topology.dc(1).servers[0].bring_down()
        _assert_generation_matches(generator, frozen)
        # ...which is a pure bump for every non-participant (memo kept) and
        # a recomputation for every participant of either selection.
        computed = generator.entries_computed
        generator.note_topology_delta(())
        moved = _oracle_selection(topology, config)
        assert moved != frozen
        _assert_generation_matches(generator, moved)
        participants = {sid for sel in (*frozen.values(), *moved.values()) for sid, _ in sel}
        assert generator.entries_computed == computed + len(participants)

    @pytest.mark.parametrize("limit", (4, 11, 5000))
    def test_growth_and_config_change(self, limit):
        topology = MultiDCTopology(
            [_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="asia")]
        )
        config = GeneratorConfig(max_peers_per_server=limit, enable_qos_low=True)
        generator = PingmeshGenerator(topology, config)
        generator.note_topology_delta(None)
        _assert_generation_matches(generator, _oracle_selection(topology, config))
        topology.dc(0).add_podset()
        generator.note_topology_delta((0,))
        _assert_generation_matches(generator, _oracle_selection(topology, config))
        generator.config = replace(config, payload_every_nth_peer=2, vip_targets=("v.vip",))
        generator.note_topology_delta(())
        _assert_generation_matches(
            generator, _oracle_selection(topology, generator.config)
        )

    def test_unfrozen_generator_sees_the_live_selection(self):
        """A bare generator (never told of a delta) selects on live state."""
        topology = MultiDCTopology(
            [_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="europe")]
        )
        topology.dc(1).servers[1].bring_down()
        generator = PingmeshGenerator(topology)
        _assert_generation_matches(
            generator, _oracle_selection(topology, generator.config)
        )


# -- (b) the shard's class plan --------------------------------------------------

_FLEET_SPEC = TopologySpec(n_podsets=2, pods_per_podset=3, servers_per_pod=4, n_spines=4)
_FLEET_TWO_DC = (
    _FLEET_SPEC,
    replace(_FLEET_SPEC, name="dc1", region="us-east", pods_per_podset=2),
)


def _fleet(specs=(_FLEET_SPEC,), **generator_kwargs) -> ShardedFleet:
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=specs,
            seed=11,
            generator=GeneratorConfig(**generator_kwargs),
            agent=AgentConfig(round_mode="class"),
            stream=StreamConfig(shard_aggregation=True),
        )
    )
    return ShardedFleet(system)


def _group_key(group) -> tuple:
    return (
        group.purpose, group.qos, group.dc_index, group.dst_dc, group.scope,
        group.n_hops, group.wan_fwd, group.wan_rev, group.wan_rtt, group.p_attempt,
    )


def _plan_view(fabric, plan) -> dict:
    device_of = {
        id(switch.counters): switch.device_id
        for dc in fabric.topology.dcs
        for switch in dc.all_switches()
    }
    increments: dict[str, int] = {}
    for counters, packets in plan.counter_increments:
        device = device_of[id(counters)]
        assert device not in increments, "one row per switch"
        increments[device] = packets
    return {
        "version": plan.version,
        "groups": [(_group_key(g), g.n, list(g.members)) for g in plan.groups],
        "n_class_probes": plan.n_class_probes,
        "increments": increments,
    }


def _oracle_compile(fleet, shard) -> tuple[dict, list, list]:
    """The per-agent compile + merge loop ``FleetShard._compile`` used to be."""
    system = fleet.system
    fabric = system.fabric
    passthrough, vip_agents, plans = [], [], []
    for agent in shard.agents:
        if not (agent.probing and system.topology.server(agent.server_id).is_up):
            continue
        vip_entries, probe_entries, tags = agent._round_entries()
        if vip_entries:
            vip_agents.append((agent.server_id, list(vip_entries)))
        if not probe_entries:
            continue
        plan = fabric.build_class_plan(agent.server_id, probe_entries, tags)
        plans.append(plan)
        if plan.passthrough:
            passthrough.append(
                (
                    agent.server_id,
                    [probe_entries[i] for i in plan.passthrough],
                    [tags[i] for i in plan.passthrough],
                )
            )
    return _plan_view(fabric, merge_class_plans(plans)), passthrough, vip_agents


def _assert_shards_match(fleet) -> int:
    """Every shard's compiled state equals the oracle's; returns how many
    entries the fleet routes per pair (so callers can assert degradation)."""
    fleet._refresh_shards()
    degraded = 0
    for key in sorted(fleet.shards):
        shard = fleet.shards[key]
        plan, passthrough, vip_agents = shard._compiled()
        want_plan, want_passthrough, want_vips = _oracle_compile(fleet, shard)
        assert _plan_view(fleet.system.fabric, plan) == want_plan, key
        assert [
            (agent.server_id, list(entries), list(tags))
            for agent, entries, tags in passthrough
        ] == want_passthrough, key
        assert [
            (agent.server_id, list(entries)) for agent, entries in vip_agents
        ] == want_vips, key
        degraded += sum(len(entries) for _sid, entries, _tags in want_passthrough)
    return degraded


class TestShardPlanEqualsPerAgentCompile:
    def test_healthy(self):
        assert _assert_shards_match(_fleet()) == 0

    def test_healthy_under_a_threshold(self):
        assert _assert_shards_match(_fleet(max_peers_per_server=6)) == 0

    @pytest.mark.parametrize("scenario", ("tor-blackhole", "silent-spine", "podset-down"))
    def test_scenario_on_then_off(self, scenario):
        fleet = _fleet()
        _assert_shards_match(fleet)
        applied = apply_scenario(scenario, fleet.system.fabric)
        assert _assert_shards_match(fleet) > 0
        applied.revert()
        assert _assert_shards_match(fleet) == 0

    def test_one_server_down_splits_its_peers_off_the_pod_template(self):
        """Mixed liveness inside a destination pod: the sources that probe
        the dead server compile apart from their pod-mates that do not."""
        fleet = _fleet()
        victim = fleet.system.topology.dc(0).servers_in_pod(1)[2]
        victim.bring_down()
        # Its three pod-mates, and host 2 of each of the five other pods.
        assert _assert_shards_match(fleet) == 3 + 5
        victim.bring_up()
        assert _assert_shards_match(fleet) == 0

    def test_payload_low_qos_and_vip_pinglists(self):
        fleet = _fleet(
            enable_qos_low=True,
            payload_every_nth_peer=2,
            vip_targets=("search.vip",),
            max_peers_per_server=12,
        )
        assert _assert_shards_match(fleet) > 0  # payload probes stay per pair
        assert all(shard._vip_agents for shard in fleet.shards.values())

    def test_two_dcs(self):
        fleet = _fleet(specs=_FLEET_TWO_DC)
        assert _assert_shards_match(fleet) == 0
        plans = [shard._plan for shard in fleet.shards.values()]
        assert any(g.dst_dc != g.dc_index for plan in plans for g in plan.groups)
        apply_scenario("tor-blackhole", fleet.system.fabric)
        assert _assert_shards_match(fleet) > 0

    def test_observers_see_every_member_once_in_plan_order(self):
        """Replicated members are real members: a round reports each of
        them to the probe observers, shard by shard, group by group."""
        fleet = _fleet()
        seen = []
        fleet.system.fabric.probe_observers.append(
            lambda src, dst, t, payload, port: seen.append((src, dst, port))
        )
        launched = fleet.run_round(0.0)
        members = [
            member
            for key in sorted(fleet.shards)
            for group in fleet.shards[key]._plan.groups
            for member in group.members
        ]
        assert launched == len(seen) == len(members)
        assert seen == members


# -- (c) work meters ---------------------------------------------------------------

_METER_SPEC = TopologySpec(n_podsets=2, pods_per_podset=4, servers_per_pod=8, n_spines=4)


class TestWorkMeters:
    def test_entries_are_interned_and_compiles_are_per_pod(self):
        fleet = _fleet(specs=(_METER_SPEC,))
        system = fleet.system
        n_servers, n_pods = _METER_SPEC.n_servers, _METER_SPEC.n_pods
        entries = [
            entry
            for agent in system.agents.values()
            for entry in agent.pinglist.entries
        ]
        assert len(entries) == n_servers * (7 + n_pods - 1)
        # One intra-pod and one ToR-level entry per server, whoever names it.
        assert len({id(entry) for entry in entries}) <= 2 * n_servers
        assert system.controller.generator.entries_computed == n_servers

        calls = []
        build = system.fabric.build_class_plan
        system.fabric.build_class_plan = lambda *a, **k: calls.append(a[0]) or build(*a, **k)
        fleet.run_round(0.0)
        assert len(calls) == n_pods
        pods = {system.topology.server(src).pod_index for src in calls}
        assert len(pods) == n_pods
        # A steady round compiles nothing; a fault recompiles per pod again.
        fleet.run_round(60.0)
        assert len(calls) == n_pods
        apply_scenario("silent-spine", system.fabric)
        fleet.run_round(120.0)
        assert len(calls) == 2 * n_pods
