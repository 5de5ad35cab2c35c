"""Property test: pooled execution is bit-identical to serial.

Hypothesis drives a random script of fleet rounds interleaved with the
events that most plausibly break the pool's accounting — fault injection
(degrading class pairs to the serial per-pair path), replica flaps
(touching the controller mid-run) and topology growth (new shards joining
between rounds).  Whatever the script, a ``workers=2`` fleet must produce
the same probes, the same uploaded rows, the same SNMP sums, the same
per-shard RNG end states and the same reported probes as a serial
fleet under the same seed — both with a recording round observer attached.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.agent.agent import AgentConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faults import SilentRandomDrop
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig
from tests.conftest import record_probe_calls
from tests.core.test_sharded_fleet import _fingerprint

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=2, n_spines=4)

OPS = ("round", "fault", "clear", "grow", "flap")


def _run_script(ops, seed, workers):
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(_SPEC,),
            seed=seed,
            agent=AgentConfig(round_mode="class"),
            stream=StreamConfig(shard_aggregation=True),
        )
    )
    observed = record_probe_calls(system.fabric)
    fleet = ShardedFleet(system, workers=workers)
    t = 0.0
    fault = None
    grown = False
    for op in ops:
        if op == "round":
            fleet.run_round(t)
            t += 30.0
        elif op == "fault" and fault is None:
            spine = system.topology.dc(0).spines[0]
            fault = system.fabric.faults.inject(
                SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.25)
            )
        elif op == "clear" and fault is not None:
            system.fabric.faults.clear(fault)
            fault = None
        elif op == "grow" and not grown:
            system.add_podset(0)  # one growth keeps examples cheap
            grown = True
        elif op == "flap":
            system.controller.fail_replica("controller0")
            system.controller.recover_replica("controller0")
    fleet.run_round(t)
    return _fingerprint(system, fleet, observed)


@settings(max_examples=8, deadline=None)
@given(
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_thread_pool_matches_serial_bit_for_bit(ops, seed):
    assert _run_script(ops, seed, 0) == _run_script(ops, seed, 2)
