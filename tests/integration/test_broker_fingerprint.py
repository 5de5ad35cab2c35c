"""The broker's injected rounds, held to recorded fingerprints.

How a sharded fleet's broker round picks, compiles and settles its
injected probes is pinned here as sha256 literals
(``python tests/integration/test_broker_fingerprint.py`` prints them):

* every channel's ``(state, successes, failures, probes_launched)``, by
  request id;
* every switch's ``packets_forwarded``, by device id;
* the fabric's ``probes_carried``.

A lossy 64-server fleet per seed runs bursts of plain and payload probes, one
burst whose pairs include a down destination, and a 240 s window of
``_FAULTS``, so the class groups, the per-source passthrough, the judged
tiers of a faulted spine and the pods of a faulted ToR all carry tenant
probes.

A second run makes every cap of the greedy pick bind: one source past
``MAX_INJECTED_PER_AGENT_ROUND``, a request past its 64-probe room, a round
past a lowered ``MAX_INJECTED_PER_FLEET_ROUND``, and two requests 4,096 ids
apart on one pair, so they share a port and the collision set defers one.
There the broker's injected calls, in the order the rounds report them, are
pinned too.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.broker import MeasurementBroker, TenantQuota
from repro.broker import broker as broker_module
from repro.broker.admission import MAX_INJECTED_PER_AGENT_ROUND, PORT_BASE
from repro.core.agent.agent import AgentConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.drops import DropModel
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=16, n_spines=4)
_SEEDS = (1, 2)
# Judged tiers (a faulted spine) and a scalar pod (a faulted ToR).
_FAULTS = ("silent-spine", "tor-blackhole")


class _LossyDrops(DropModel):
    """Every class loses 40% of its SYN attempts: 6.4% of probes fail."""

    def attempt_drop_prob_kinds(self, kinds, wan):
        return 0.4


def _bursts(broker, servers, round_no: int) -> None:
    a, b = servers[round_no], servers[-1 - round_no]
    broker.submit("acme", src="podset:0/0", dst="podset:0/1", probes_per_pair=3)
    broker.submit("zeta", src="dc:0", dst="dc:0", probes_per_pair=2, qos="low")
    broker.submit("acme", src="podset:0/1", dst="podset:0/0", payload_bytes=4096)
    broker.submit(
        "zeta",
        pairs=[(a.device_id, b.device_id), (b.device_id, a.device_id),
               (a.device_id, servers[5].device_id), (b.device_id, servers[40].device_id)],
        probes_per_pair=4,
    )


def _fleet(seed: int):
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,), seed=seed, agent=AgentConfig(round_mode="class", upload_period_s=300.0)
        )
    )
    fabric = system.fabric
    # Lossy enough that class groups lose members every round: who failed
    # is drawn, and attributed, on every round.
    fabric._dropmodel[0] = _LossyDrops(fabric.profile_of(0))
    fleet = ShardedFleet(system)
    broker = MeasurementBroker(system)
    for tenant in ("acme", "zeta"):
        broker.register_tenant(tenant, TenantQuota(credits_per_window=1_000_000))
    return system, fleet, broker, system.topology.dc(0).servers


def _run(seed: int) -> PingmeshSystem:
    system, fleet, broker, servers = _fleet(seed)
    fleet.run_for(60.0)
    servers[5].bring_down()
    _bursts(broker, servers, 0)
    fleet.run_for(180.0)
    faults = [apply_scenario(name, system.fabric) for name in _FAULTS]
    _bursts(broker, servers, 1)
    fleet.run_for(240.0)
    for fault in faults:
        fault.revert()
    servers[5].bring_up()
    _bursts(broker, servers, 2)
    fleet.run_for(300.0)
    return system


_FLEET_CAP = 100  # a 64-server fleet cannot reach the real 16,384


def _run_caps(seed: int, calls: list) -> PingmeshSystem:
    """Every cap binds; ``calls`` gets each injected ``(t, src, dst, port)``."""
    system, fleet, broker, servers = _fleet(seed)
    system.fabric.round_observers.append(
        lambda src, entries, t: calls.extend(
            (t, src, *entry[:2]) for entry in entries if entry[1] >= PORT_BASE
        )
    )
    ids = [server.device_id for server in servers]
    fleet.run_for(60.0)
    for _ in range(2):  # 126 pairs from one source
        broker.submit("acme", src=f"server:{ids[0]}", dst="dc:0", probes_per_pair=2)
    broker.submit("acme", src="podset:0/1", dst="podset:0/0")  # 256 pairs
    first = broker.submit("zeta", pairs=[(ids[3], ids[50])], probes_per_pair=3)
    while broker.requests_submitted % 4096 != first.request_id % 4096:
        broker.submit("nobody", kind="scope")  # a rejected request takes an id
    broker.submit("zeta", pairs=[(ids[3], ids[50])], probes_per_pair=3)
    fleet.run_for(600.0)
    return system


def fingerprint(system: PingmeshSystem) -> dict[str, str]:
    channels = hashlib.sha256()
    for rid, channel in sorted(system.broker.channels.items()):
        channels.update(
            repr((rid, channel.state.value, channel.successes, channel.failures,
                  channel.probes_launched)).encode()
        )
    switches = hashlib.sha256()
    for switch in sorted(system.topology.dc(0).all_switches(), key=lambda s: s.device_id):
        switches.update(repr((switch.device_id, switch.counters.packets_forwarded)).encode())
    return {
        "channels": channels.hexdigest(),
        "switches": switches.hexdigest(),
        "probes_carried": str(system.fabric.probes_carried),
    }


# Recorded at commit 877396a, before the broker round's compile and
# settlement were rewritten.
PINNED: dict[int, dict[str, str]] = {
    1: {
        "channels": "252a34d91e0fbd296db0cfdc85031b5acdeaa4194e20df578b25229cdbb34547",
        "switches": "11983fd22440ec817343f541d9030df4eb61c59d1bb3004fb4c2dc81e2dc9ab6",
        "probes_carried": "19762",
    },
    2: {
        "channels": "87353f92d7bd383b38b0cc29ce1ac78f44aaeab9209892ca087733bd378e8ca5",
        "switches": "dab677152e904d7046f233aeba96d1dd2fcea8802f401383ce0ddbca6c2cc202",
        "probes_carried": "19762",
    },
}


# Recorded at commit 003e371, before bursts became ledger rows.
CAPS_PINNED: dict[int, dict[str, str]] = {
    1: {
        "channels": "19549b1b561a6e51588623bde9097071b11df39514c8d138c0a1ef80b27e9a02",
        "switches": "49e57a41aadbb2560881c79adf5f2a5d550133afa07a165eb256fffd2771937e",
        "probes_carried": "14338",
        "calls": "51d58df05d4e0ab16745fd6a4e0a3a9ced96b0c244ae792394e4a5d20f5afb6f",
    },
    2: {
        "channels": "61588d79ea94a211e67836828b43b865d1eca4c0b9191177844f31ab17f9e36a",
        "switches": "49e57a41aadbb2560881c79adf5f2a5d550133afa07a165eb256fffd2771937e",
        "probes_carried": "14338",
        "calls": "51d58df05d4e0ab16745fd6a4e0a3a9ced96b0c244ae792394e4a5d20f5afb6f",
    },
}


@pytest.mark.parametrize("seed", _SEEDS)
def test_broker_fingerprint_is_pinned(seed):
    system = _run(seed)
    broker = system.broker
    assert broker.probes_launched == broker.probes_delivered > 0
    assert fingerprint(system) == PINNED[seed]


def caps_fingerprint(seed: int) -> dict[str, str]:
    calls: list = []
    system = _run_caps(seed, calls)
    cap, ids = MAX_INJECTED_PER_AGENT_ROUND, [s.device_id for s in system.topology.dc(0).servers]
    assert max(Counter(call[:2] for call in calls).values()) == cap  # a source's cap
    assert max(Counter((t, port) for t, _s, _d, port in calls).values()) == cap  # a room
    assert max(Counter(t for t, *_ in calls).values()) == _FLEET_CAP
    shared = [t for t, src, dst, _port in calls if (src, dst) == (ids[3], ids[50])]
    assert len(shared) == len(set(shared)) == 6  # never both in one round
    return {**fingerprint(system), "calls": hashlib.sha256(repr(calls).encode()).hexdigest()}


@pytest.mark.parametrize("seed", _SEEDS)
def test_cap_binding_fingerprint_is_pinned(seed, monkeypatch):
    monkeypatch.setattr(broker_module, "MAX_INJECTED_PER_FLEET_ROUND", _FLEET_CAP)
    assert caps_fingerprint(seed) == CAPS_PINNED[seed]


if __name__ == "__main__":
    import pprint

    pprint.pprint({seed: fingerprint(_run(seed)) for seed in _SEEDS}, width=120)
    broker_module.MAX_INJECTED_PER_FLEET_ROUND = _FLEET_CAP
    pprint.pprint({seed: caps_fingerprint(seed) for seed in _SEEDS}, width=120)
