"""Degraded rounds, lock-step: the batched entry points are the scalar engine.

Two contracts, both bit-exact:

* (a) In a ``Fabric.probe_many`` round, a flow that crosses a faulted
  device is ``Fabric.probe(src_port=...)`` bit for bit — same result, same
  draws, same SNMP counters — and a flow that does not is never routed per
  hop.  A round in which *every* entry needs full fidelity (a fault on a
  ToR, a WAN direction or a whole tier, a payload echo, a down or
  unroutable destination) is therefore indistinguishable from a loop of
  ``Fabric.probe`` calls: same results, same generator end state, same
  port-allocator position, same SNMP counters, same ledger.  Whatever
  ``probe_many`` does to decide that a flow is scalar-bound may cost time
  but must never cost a draw.
* (b) A 256-server ``ShardedFleet`` fault drill leaves a fingerprint —
  RNG end states, every switch's SNMP tuple, the probe ledger, uploaded and
  discarded rows, alert events — that is pinned as literals, so it holds
  any routing/partition/recompile rewrite to "same simulation, draw for
  draw".  This is the one place a draw change is acknowledged: the literals
  were recorded at commit 88c7251 and re-recorded once, with the per-flow
  partition rule (ISSUE 24) — under silent-spine only the flows that hash
  onto the faulted spine still take the scalar engine, the rest join the
  round's analytic draw.  That moved the fabric generator, the SNMP
  counters, the latency rows and, with other SYNs now lost at the spine,
  one stream-plane ``drop_rate`` episode (970 -> 1090); the ledger, the
  shard generators, the class rows, the row counts and the other five
  events stayed.
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
from repro.netsim.addressing import FiveTuple
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


def _all_spines_silent(fabric):
    dc = fabric.topology.dc(0)
    for spine in dc.spines:
        fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.2)
        )
    return dc.servers_in_podset(1)  # whichever spine a flow hashes onto


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
    "silent-spine-tier": (False, _all_spines_silent),
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
        (fabric.probes_carried, fabric.probes_refused),
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

    def test_only_flows_that_cross_the_fault_are_scalar_probes(self):
        """One silent spine of four, on every envelope of the round: the
        flows whose forward or reverse path holds the spine are the engine
        core's, on the ECMP pass's paths, each bit for bit the pinned-port
        ``Fabric.probe`` call, in entry order; no flow is routed per hop, and
        the rest report their own ECMP hops and count one packet on each."""
        batched, looped = _fabric(), _fabric()
        for fabric in (batched, looped):
            spine = fabric.topology.dc(0).spines[1]
            fabric.faults.inject(
                SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.2)
            )
        src_b, src_l = (f.topology.dc(0).servers[0] for f in (batched, looped))
        entries = [
            (dst.device_id, port, 0)
            for dst in batched.topology.dc(0).servers_in_podset(1)
            for port in (81, 82)
        ]
        routed, carried = [], []
        route, core = batched.router.path, batched._probe_along
        batched.router.path = lambda *args: routed.append(args) or route(*args)
        batched._probe_along = lambda *args, **kw: carried.append(args) or core(*args, **kw)
        crossing = 0
        for round_index, t in enumerate((0.0, 60.0, 120.0)):
            # The scalar probes draw first, in entry order: from the same
            # generator state the loop reproduces every one of them.
            looped.rng.bit_generator.state = batched.rng.bit_generator.state
            carried.clear()
            got = batched.probe_many(src_b, entries, t=t)
            scalar = 0
            for row, (dst_id, port, _payload) in zip(got, entries):
                dst = looped.topology.server(dst_id)
                flow = FiveTuple(src_l.ip, row.flow.src_port, dst.ip, port)
                forward = looped.router.path(src_l, dst, flow)
                reverse = looped.router.path(dst, src_l, flow.reversed())
                if spine in forward.hops or spine in reverse.hops:
                    probe = looped.probe(
                        src_l, dst, t=t, dst_port=port, src_port=flow.src_port
                    )
                    assert _comparable(row) == _comparable(probe)
                    scalar += 1
                else:
                    assert row.forward_hops == forward.hop_id_tuple
                    assert row.scope is forward.scope and row.flow == flow
                    for hop in forward.hops:  # what the analytic draw counts
                        hop.counters.packets_forwarded += 1
            assert len(carried) == scalar
            assert routed == []
            assert batched.probes_carried == (round_index + 1) * len(entries)
            crossing += scalar
        # 1 - (3/4)**2 of the flows cross one spine of four.
        assert 10 < crossing < 3 * len(entries) / 2
        assert _snmp(batched) == _snmp(looped)
        assert batched._ports[src_b.device_id]._next == 49_152 + 3 * len(entries)

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
    fleet = ShardedFleet(system)
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
        ),
        "uploaded": sum(u.stats.records_uploaded for u in uploaders),
        "discarded": sum(u.stats.records_discarded for u in uploaders),
        "rows": rows,
        "alerts": [
            (alert.t, alert.event, alert.metric)
            for alert in system.alert_engine.history
        ],
    }


# Recorded with `python tests/netsim/test_degraded_lockstep.py`: at commit
# 88c7251 (the parent of the route-table change), then once more with the
# per-flow partition rule — see (b) above for what moved.
PINNED_DRILL = {
    "fabric_rng": 2755401830,
    "shard_rngs": 458643845,
    "snmp": 573867111,
    "ledger": (172800, 172800, 0),
    "uploaded": 9382,
    "discarded": 0,
    "rows": {"pingmesh/latency": 747453548, "pingmesh/latency-class": 2357647459},
    "alerts": [
        (670.0, "breach", "failure_rate"),
        (910.0, "recovery", "failure_rate"),
        (970.0, "breach", "drop_rate"),
        (1090.0, "recovery", "drop_rate"),
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
