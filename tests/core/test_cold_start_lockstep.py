"""Cold start, held to fingerprints of the per-server code it replaced.

Pinglists and the shard's class plan are built per pod.  What the
per-server enumeration and the per-agent compile loop produced is pinned
as sha256 prefixes, recorded at commit 07690b6, where this file still ran
that code as a twin and every case passed against it: (a) every server's
entry sequence over thresholds, extensions, two DCs with a down inter-DC
pivot, a moved selection and growth (§3.3.1); (b) every shard's compiled
plan — group keys, order and counts, SNMP increments, passthrough
triples, VIP entries, the class members — healthy, under faults, power
loss, one dead server, payload / low-QoS / VIP pinglists and two DCs.
Beside them, the properties the twin also proved: liveness drift moves
nothing until a regeneration; degraded pairs appear exactly under faults;
a round reports each class member once; and (c) work meters.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, replace

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig, PingmeshGenerator
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.stream.plane import StreamConfig
from tests.conftest import record_probe_calls


def _hash(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# -- (a) generation ------------------------------------------------------------


def _generation(generator) -> str:
    """Every server's entry sequence, in fleet order."""
    rows = []
    for server in generator.topology.all_servers():
        entries = generator.generate_for(server.device_id).entries
        assert isinstance(entries, tuple)
        rows.append((server.device_id, entries))
    return _hash(rows)


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


def _two_dcs(limit, extension) -> tuple:
    topology = MultiDCTopology([_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="europe")])
    config = GeneratorConfig(max_peers_per_server=limit, **_EXTENSIONS[extension])
    # The first pivot of dc0/podset0 is down: the next live server steps in.
    topology.dc(0).servers[0].bring_down()
    generator = PingmeshGenerator(topology, config)
    generator.note_topology_delta(None)
    first = _generation(generator)
    # Liveness drifts; nothing moves until the next regeneration...
    topology.dc(1).servers[0].bring_down()
    assert _generation(generator) == first
    # ...which recomputes the participants of either selection only.
    computed = generator.entries_computed
    generator.note_topology_delta(())
    return first, _generation(generator), generator.entries_computed - computed


def _growth(limit) -> tuple:
    topology = MultiDCTopology([_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="asia")])
    config = GeneratorConfig(max_peers_per_server=limit, enable_qos_low=True)
    generator = PingmeshGenerator(topology, config)
    generator.note_topology_delta(None)
    stages = [_generation(generator)]
    topology.dc(0).add_podset()
    generator.note_topology_delta((0,))
    stages.append(_generation(generator))
    generator.config = replace(config, payload_every_nth_peer=2, vip_targets=("v.vip",))
    generator.note_topology_delta(())
    stages.append(_generation(generator))
    return tuple(stages)


def _unfrozen() -> str:
    """A bare generator (never told of a delta) selects on live state."""
    topology = MultiDCTopology([_GEN_SPEC, replace(_GEN_SPEC, name="dc1", region="europe")])
    topology.dc(1).servers[1].bring_down()
    return _generation(PingmeshGenerator(topology))


# SINGLE_DC: per extension, one prefix per threshold in ``_THRESHOLDS``
# order.  TWO_DCS: (first, after the moved selection, entries recomputed).
# Up to a threshold of 9 every extension is cut away: one sequence for all.
_CUT = (
    "d80f7c5e19e24ff5", "efc2e32b0889d32d", "812b4ad4343d6265", "00d61f1d48853031",
    "8a2cb9673eba170a", "29aef333efeb7f3b", "9983f67a1fd1763f",
)
SINGLE_DC = {
    "plain": _CUT + ("9983f67a1fd1763f",) * 5,
    "qos-low": _CUT + ("395f2b690f1c0335", "abdd4ce5bf79fb83") + ("aad8b79c7663eb74",) * 3,
    "payload-every-peer": _CUT
    + ("833ad04da9aad8da", "37f7317db3088e60") + ("fafdac9dc1097228",) * 3,
    "payload-every-3rd": _CUT + ("bbe813b39cad9d72",) + ("7cae502b7a8bfdf3",) * 4,
    "vips": _CUT + ("f12f19e4cabf5e8f",) + ("5fca966e5de14eb4",) * 4,
    "everything": _CUT
    + ("f12f19e4cabf5e8f", "13b4b2ec05dc7d41") + ("419e27afc4d5b37a",) * 3,
}
TWO_DCS = {
    (3, "plain"): ("966221aedbe7372b", "966221aedbe7372b", 9),
    (8, "plain"): ("69c472eadbdfffb0", "69c472eadbdfffb0", 9),
    (12, "plain"): ("d11564687a06013a", "0a0f6754d4c736d7", 9),
    (19, "plain"): ("f2db343f367e7a54", "010f1f24c7244312", 9),
    (5000, "plain"): ("f2db343f367e7a54", "010f1f24c7244312", 9),
    (3, "everything"): ("966221aedbe7372b", "966221aedbe7372b", 9),
    (8, "everything"): ("69c472eadbdfffb0", "69c472eadbdfffb0", 9),
    (12, "everything"): ("2a99a22751898ec9", "65cda2258ae2e77a", 9),
    (19, "everything"): ("45a13953a75defe2", "bba5f9a9b98caea3", 9),
    (5000, "everything"): ("8d67a55537d2275b", "e87353e6a7c7e89f", 9),
}
GROWTH = {
    4: ("51acfc9ea6bea64d", "fcce97852afc8d73", "fcce97852afc8d73"),
    11: ("d8c4fbf44eb081c6", "5fe31fddf4e55e89", "2ffdca498c0d6e6d"),
    5000: ("4c42327ff46968f6", "59a75209353b3818", "dddc66d4533cab25"),
}
UNFROZEN = "f4453f23ba05e228"


def _single_dc(limit, extension) -> str:
    topology = MultiDCTopology.single(_GEN_SPEC)
    config = GeneratorConfig(max_peers_per_server=limit, **_EXTENSIONS[extension])
    generator = PingmeshGenerator(topology, config)
    generator.note_topology_delta(None)
    return _generation(generator)


class TestGenerationEqualsPerServerEnumeration:
    @pytest.mark.parametrize("extension", sorted(_EXTENSIONS))
    @pytest.mark.parametrize("limit", _THRESHOLDS)
    def test_single_dc(self, limit, extension):
        want = SINGLE_DC[extension][_THRESHOLDS.index(limit)]
        assert _single_dc(limit, extension) == want

    @pytest.mark.parametrize("extension", ("plain", "everything"))
    @pytest.mark.parametrize("limit", (3, 8, 12, 19, 5000))
    def test_two_dcs_with_a_down_pivot_then_a_moved_selection(self, limit, extension):
        assert _two_dcs(limit, extension) == TWO_DCS[(limit, extension)]

    @pytest.mark.parametrize("limit", (4, 11, 5000))
    def test_growth_and_config_change(self, limit):
        assert _growth(limit) == GROWTH[limit]

    def test_unfrozen_generator_sees_the_live_selection(self):
        assert _unfrozen() == UNFROZEN


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


def _members(plan) -> list[tuple]:
    """The plan's class probes as sorted ``(src, dst, dst_port)`` triples."""
    return sorted(
        (src, *entries[index][:2]) for src, entries, positions in plan.rounds
        for index in positions
    )


def _shards(fleet) -> tuple[str, int]:
    """Every shard's compiled state, hashed; and how many entries the fleet
    routes per pair (so callers can assert degradation)."""
    fleet._refresh_shards()
    device_of = {
        id(switch.counters): switch.device_id
        for dc in fleet.system.topology.dcs
        for switch in dc.all_switches()
    }
    views, degraded = [], 0
    for key in sorted(fleet.shards):
        plan, passthrough, vip_agents = fleet.shards[key]._compiled()
        groups = [astuple(group) for group in plan.groups]
        increments = sorted((device_of[id(c)], k) for c, k in plan.counter_increments)
        views.append(
            (
                key, plan.version, groups, plan.n_class_probes, increments,
                [(a.server_id, list(e), list(tags)) for a, e, tags in passthrough],
                [(a.server_id, list(e)) for a, e in vip_agents],
                _members(plan),
            )
        )
        degraded += sum(len(entries) for _a, entries, _tags in passthrough)
    return _hash(views), degraded


# The shards' compiled state; a tuple holds it stage by stage.
SHARDS = {
    "healthy": "3ab0cea543025961",
    "threshold-6": "fa3b6c9bc266cdff",
    "tor-blackhole": ("3ab0cea543025961", "584d8acb4a72d2ed", "909d8b5303a8ab39"),
    "silent-spine": ("3ab0cea543025961", "ec3ea32b32b9b41e", "909d8b5303a8ab39"),
    "podset-down": ("3ab0cea543025961", "ef8c05ad9cd8c6bd", "dd86a571625fcee2"),
    "one-down": ("9ba94c81e5e82d82", "909d8b5303a8ab39"),
    "payload-qos-vip": "03cad70836dd9839",
    "two-dcs": ("4fb1cd8f884480cd", "536a0ad086729612"),
}


class TestShardPlanEqualsPerAgentCompile:
    def test_healthy(self):
        assert _shards(_fleet()) == (SHARDS["healthy"], 0)

    def test_healthy_under_a_threshold(self):
        assert _shards(_fleet(max_peers_per_server=6)) == (SHARDS["threshold-6"], 0)

    @pytest.mark.parametrize("scenario", ("tor-blackhole", "silent-spine", "podset-down"))
    def test_scenario_on_then_off(self, scenario):
        fleet = _fleet()
        before = _shards(fleet)
        applied = apply_scenario(scenario, fleet.system.fabric)
        during, degraded = _shards(fleet)
        assert degraded > 0
        applied.revert()
        after = _shards(fleet)
        assert after[1] == 0 and after[0] != before[0]  # a generation later
        assert (before[0], during, after[0]) == SHARDS[scenario]

    def test_one_server_down_splits_its_peers_off_the_pod_template(self):
        """Mixed liveness inside a destination pod: the sources that probe
        the dead server compile apart from their pod-mates that do not."""
        fleet = _fleet()
        victim = fleet.system.topology.dc(0).servers_in_pod(1)[2]
        victim.bring_down()
        down, degraded = _shards(fleet)
        # Its three pod-mates, and host 2 of each of the five other pods.
        assert degraded == 3 + 5
        victim.bring_up()
        up, degraded = _shards(fleet)
        assert degraded == 0
        assert (down, up) == SHARDS["one-down"]

    def test_payload_low_qos_and_vip_pinglists(self):
        fleet = _fleet(
            enable_qos_low=True,
            payload_every_nth_peer=2,
            vip_targets=("search.vip",),
            max_peers_per_server=12,
        )
        digest, degraded = _shards(fleet)
        assert degraded > 0  # payload probes stay per pair
        assert all(shard._vip_agents for shard in fleet.shards.values())
        assert digest == SHARDS["payload-qos-vip"]

    def test_two_dcs(self):
        fleet = _fleet(specs=_FLEET_TWO_DC)
        healthy, degraded = _shards(fleet)
        assert degraded == 0
        plans = [shard._plan for shard in fleet.shards.values()]
        assert any(g.dst_dc != g.dc_index for plan in plans for g in plan.groups)
        apply_scenario("tor-blackhole", fleet.system.fabric)
        faulted, degraded = _shards(fleet)
        assert degraded > 0
        assert (healthy, faulted) == SHARDS["two-dcs"]

    def test_observers_see_every_member_once_in_plan_order(self):
        """Replicated members are real members: a round reports each of
        them, once, and nothing else."""
        fleet = _fleet()
        calls = record_probe_calls(fleet.system.fabric)
        launched = fleet.run_round(0.0)
        members = [
            member
            for key in sorted(fleet.shards)
            for member in _members(fleet.shards[key]._plan)
        ]
        assert launched == len(calls) == len(members)
        assert sorted((src, dst, port) for src, dst, _t, _p, port in calls) == sorted(
            members
        )


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

