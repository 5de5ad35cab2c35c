"""Degraded rounds, lock-step: the batched entry points are the scalar engine.

Two contracts, both bit-exact:

* (a) ``Fabric.probe_many`` over a round in which *every* entry needs full
  fidelity is indistinguishable from a loop of ``Fabric.probe`` calls —
  same results, same generator end state, same port-allocator position,
  same SNMP counters, same ledger.  Whatever ``probe_many`` does to decide
  that an entry is scalar-bound may cost time but must never cost a draw.
* (b) A 256-server ``ShardedFleet`` fault drill leaves a fingerprint —
  RNG end states, every switch's SNMP tuple, the probe ledger, uploaded and
  discarded rows, alert events — that is pinned as literals.  The literals
  were recorded before the pod-pair route table existed (at commit
  88c7251), so they hold any routing/partition/recompile rewrite to "same
  simulation, draw for draw".
"""

from __future__ import annotations

import json
import zlib

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import CLASS_STREAM, LATENCY_STREAM
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.fabric import Fabric
from repro.netsim.faults import (
    BlackholeType1,
    BlackholeType2,
    CongestionFault,
    SilentRandomDrop,
    WanFiberCut,
)
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.stream.plane import StreamConfig

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=3, servers_per_pod=4, n_spines=4)
_TWO_DC = [
    TopologySpec(name="dc-w", region="us-west", n_podsets=2, pods_per_podset=2,
                 servers_per_pod=3),
    TopologySpec(name="dc-e", region="us-east", n_podsets=2, pods_per_podset=2,
                 servers_per_pod=3),
]


def _fabric(two_dc: bool = False) -> Fabric:
    topology = MultiDCTopology(_TWO_DC) if two_dc else MultiDCTopology.single(_SPEC)
    return Fabric(topology, seed=23)


def _not_in_pod(dc, src):
    return [s for s in dc.servers if s.pod_index != src.pod_index]


# Each case degrades a fabric and names an *all-degraded* round from the
# first server of DC 0: (two_dc, degrade(fabric) -> destination servers).
def _type1(fabric):
    dc = fabric.topology.dc(0)
    fabric.faults.inject(BlackholeType1(switch_id=dc.tors[0].device_id, fraction=0.5))
    return dc.servers[1:]  # the source ToR is on every envelope


def _type2(fabric):
    dc = fabric.topology.dc(0)
    fabric.faults.inject(BlackholeType2(switch_id=dc.tors[0].device_id, fraction=0.5))
    return dc.servers[1:]


def _silent_spine(fabric):
    dc = fabric.topology.dc(0)
    fabric.faults.inject(
        SilentRandomDrop(switch_id=dc.spines[1].device_id, drop_prob=0.2)
    )
    return dc.servers_in_podset(1)


def _leaf_congestion(fabric):
    dc = fabric.topology.dc(0)
    for leaf in dc.leaves_of(0):
        fabric.faults.inject(
            CongestionFault(switch_id=leaf.device_id, drop_prob=0.1, extra_queue_s=7e-3)
        )
    return _not_in_pod(dc, dc.servers[0])


def _down_destinations(fabric):
    dc = fabric.topology.dc(0)
    down = dc.servers_in_pod(1) + dc.servers_in_pod(4)
    for server in down:
        server.bring_down()
    return down


def _down_tor(fabric):
    dc = fabric.topology.dc(0)
    dc.tors[4].bring_down()
    return dc.servers_in_pod(4)


def _down_leaf_tier(fabric):
    dc = fabric.topology.dc(0)
    for leaf in dc.leaves_of(1):
        leaf.bring_down()
    return dc.servers_in_podset(1)


def _fiber_cut(fabric):
    fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
    return fabric.topology.dc(1).servers


_CASES = {
    "blackhole-type1": (False, _type1),
    "blackhole-type2": (False, _type2),
    "silent-spine": (False, _silent_spine),
    "leaf-congestion": (False, _leaf_congestion),
    "down-destination": (False, _down_destinations),
    "down-tor": (False, _down_tor),
    "down-leaf-tier": (False, _down_leaf_tier),
    "wan-fiber-cut": (True, _fiber_cut),
}


def _snmp(fabric):
    return [
        (
            switch.device_id,
            switch.counters.packets_forwarded,
            switch.counters.input_discards,
            switch.counters.output_discards,
            switch.counters.fcs_errors,
            switch.counters.silent_drops,
        )
        for dc in fabric.topology.dcs
        for switch in dc.all_switches()
    ]


def _end_state(fabric, src):
    return (
        fabric.rng.bit_generator.state,
        fabric._ports[src.device_id]._next,
        _snmp(fabric),
        (fabric.probes_carried, fabric.probes_refused, fabric.probes_carried_batched),
    )


def _comparable(result):
    return (
        result.src, result.dst, result.t, result.success, result.rtt_s,
        result.syn_drops, result.flow, result.forward_hops, result.error,
        result.scope, result.payload_rtt_s,
    )


class TestProbeManyIsTheScalarEngine:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_all_degraded_round_equals_probe_loop(self, case):
        two_dc, degrade = _CASES[case]
        batched, looped = _fabric(two_dc), _fabric(two_dc)
        rounds = []
        for fabric in (batched, looped):
            dsts = degrade(fabric)
            src = fabric.topology.dc(0).servers[0]
            # Two ports and three rounds: the sweep moves the ECMP choice,
            # and a warm route/pair cache must not change a thing.
            entries = [
                (dst.device_id, port, 0) for dst in dsts for port in (81, 82)
            ]
            rounds.append((src, entries))
        assert rounds[0][1] == rounds[1][1] and rounds[0][1]
        for t in (0.0, 60.0, 120.0):
            src, entries = rounds[0]
            got = batched.probe_many(src, entries, t=t)
            src, entries = rounds[1]
            want = [
                looped.probe(src, dst_id, t=t, payload_bytes=payload, dst_port=port)
                for dst_id, port, payload in entries
            ]
            assert [_comparable(r) for r in got] == [_comparable(r) for r in want]
        assert _end_state(batched, rounds[0][0]) == _end_state(looped, rounds[1][0])

    def test_payload_entries_are_scalar_on_a_healthy_fabric(self):
        batched, looped = _fabric(), _fabric()
        src = batched.topology.dc(0).servers[0]
        entries = [(s.device_id, 81, 1200) for s in batched.topology.dc(0).servers[1:]]
        got = batched.probe_many(src, entries, t=5.0)
        src2 = looped.topology.dc(0).servers[0]
        want = [
            looped.probe(src2, dst_id, t=5.0, payload_bytes=payload, dst_port=port)
            for dst_id, port, payload in entries
        ]
        assert [_comparable(r) for r in got] == [_comparable(r) for r in want]
        assert _end_state(batched, src) == _end_state(looped, src2)


# -- (b) the pinned fleet drill ------------------------------------------------

_SPEC_256 = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)
_STEP_S = 60.0


def _crc(value) -> int:
    return zlib.crc32(repr(value).encode())


def run_fleet_drill(seed: int = 7) -> dict:
    """tor-blackhole, silent-spine, podset-down — each on two rounds, off
    two — over a warmed-up 256-server sharded class fleet."""
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC_256,),
            seed=seed,
            generator=GeneratorConfig(max_peers_per_server=64),
            agent=AgentConfig(round_mode="class", upload_period_s=600.0),
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            stream=StreamConfig(shard_aggregation=True),
        )
    )
    with ShardedFleet(system) as fleet:
        fleet.run_for(600.0)
        for name in ("tor-blackhole", "silent-spine", "podset-down"):
            scenario = apply_scenario(name, system.fabric)
            fleet.run_for(2 * _STEP_S)
            scenario.revert()
            fleet.run_for(2 * _STEP_S)
        uploaders = [
            uploader
            for _key, shard in sorted(fleet.shards.items())
            for uploader in (shard.probe_uploader, shard.class_uploader)
        ]
        for uploader in uploaders:
            uploader.flush(1e9)
        rows = {
            stream: _crc(
                sorted(
                    json.dumps(row, sort_keys=True, default=str)
                    for row in system.store.read(stream)
                )
            )
            for stream in (LATENCY_STREAM, CLASS_STREAM)
        }
        return {
            "fabric_rng": _crc(system.fabric.rng.bit_generator.state["state"]),
            "shard_rngs": _crc(
                [
                    shard.rng.bit_generator.state["state"]
                    for _key, shard in sorted(fleet.shards.items())
                ]
            ),
            "snmp": _crc(_snmp(system.fabric)),
            "ledger": (
                fleet.probes_sent,
                system.fabric.probes_carried,
                system.fabric.probes_refused,
                system.fabric.probes_carried_batched,
            ),
            "uploaded": sum(u.stats.records_uploaded for u in uploaders),
            "discarded": sum(u.stats.records_discarded for u in uploaders),
            "rows": rows,
            "alerts": [
                (alert.t, alert.event, alert.metric)
                for alert in system.alert_engine.history
            ],
        }


# Recorded at commit 88c7251 (the parent of the route-table change), before
# any source edit: `python tests/netsim/test_degraded_lockstep.py`.
PINNED_DRILL = {
    "fabric_rng": 2265800029,
    "shard_rngs": 458643845,
    "snmp": 324836657,
    "ledger": (172800, 172800, 0, 0),
    "uploaded": 9382,
    "discarded": 0,
    "rows": {"pingmesh/latency": 1581379299, "pingmesh/latency-class": 2357647459},
    "alerts": [
        (670.0, "breach", "failure_rate"),
        (910.0, "recovery", "failure_rate"),
        (1150.0, "breach", "failure_rate"),
        (1200.0, "breach", "drop_rate"),
        (1200.0, "recovery", "drop_rate"),
    ],
}


def test_fleet_drill_fingerprint_is_pinned():
    assert run_fleet_drill() == PINNED_DRILL


if __name__ == "__main__":
    import pprint

    pprint.pprint(run_fleet_drill())
