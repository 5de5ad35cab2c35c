"""The sketch sinks, held to recorded fingerprints.

The simulation's own oracles (RNG state, counts, alerts, table sizes)
never read a sketch bucket, so how a round is folded into the agent's PA
counters and into the stream plane's windows is pinned here as sha256
literals (``python tests/stream/test_sketch_fingerprint.py`` prints them):

* every agent's ``counters.to_payload()``, by server id;
* every retained ingest window's ``{key: stats.to_payload()}``.

Two 64-server systems per seed, each with a 30 s window of ``_FAULTS``:
one in fast mode, where every probe goes through the counters, the pair
aggregators and the ingest tree; one in class mode, where the shards'
degraded passthrough rounds reach the agents' pair aggregators beside the
shards' class rounds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=16, n_spines=4)
_SEEDS = (1, 2)
# Failures, a retransmission signature and passthrough rounds in both modes.
_FAULTS = ("silent-spine", "tor-blackhole", "fcs-errors")


def _system(seed: int, mode: str) -> PingmeshSystem:
    return PingmeshSystem(
        PingmeshSystemConfig(specs=(_SPEC,), seed=seed, agent=AgentConfig(round_mode=mode))
    )


def _run(seed: int, mode: str) -> PingmeshSystem:
    system = _system(seed, mode)
    driver = ShardedFleet(system) if mode == "class" else system
    driver.run_for(40.0)
    faults = [apply_scenario(name, system.fabric) for name in _FAULTS]
    driver.run_for(30.0)
    for fault in faults:
        fault.revert()
    driver.run_for(20.0)
    return system


def fingerprint(system: PingmeshSystem) -> dict[str, str]:
    counters = hashlib.sha256()
    for server_id in sorted(system.agents):
        counters.update(repr((server_id, system.agents[server_id].counters.to_payload())).encode())
    ingest = system.stream.ingest
    windows = hashlib.sha256()
    for start in ingest.window_starts():
        window = ingest.window(start)
        windows.update(repr((start, {key: window[key].to_payload() for key in sorted(window)})).encode())
    return {"counters": counters.hexdigest(), "windows": windows.hexdigest()}


# Recorded at commit e4154e2, before the sinks' fold was rewritten.  A
# class-mode agent's counters see only VIP probes and this fleet has none,
# so both class seeds pin the same 64 empty payloads.
PINNED: dict[tuple[str, int], dict[str, str]] = {
    ("fast", 1): {
        "counters": "e176094243537dd92b7838e1779c10ceb9af45c60b21244c5b7bf1910de2ce90",
        "windows": "152466349e9f680323e7bcbbebd6be982fa41d0e215edac5eba17b43359338e3",
    },
    ("fast", 2): {
        "counters": "c9c37dca666a2f36aaaeba8e8d1a1da854dd7f67bdeb487e73b6aa9205911b4a",
        "windows": "a947a11b67636d77eaf645740ac3c4ee55aa23b539dc2058167aedef599ca353",
    },
    ("class", 1): {
        "counters": "41089736b60bae37629bf5124a313ba843ddbd6d9114367fdee16fa8476b9ba2",
        "windows": "1e28a55a29044e49c01ac55509e84b74048e4dbc0c7607da0f372bfba2e7752a",
    },
    ("class", 2): {
        "counters": "41089736b60bae37629bf5124a313ba843ddbd6d9114367fdee16fa8476b9ba2",
        "windows": "a520a260d74d11194f03ad1471e4e8092f064818b92fd18bfb4d720f49036cfa",
    },
}


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize("mode", ["fast", "class"])
def test_sketch_fingerprint_is_pinned(mode, seed):
    system = _run(seed, mode)
    assert system.stream.ingest.deltas_ingested > 0
    assert fingerprint(system) == PINNED[mode, seed]


if __name__ == "__main__":
    import pprint

    pprint.pprint(
        {(mode, seed): fingerprint(_run(seed, mode))
         for mode in ("fast", "class") for seed in _SEEDS},
        width=120,
    )
