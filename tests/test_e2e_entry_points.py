"""Tier-1 guard for the e2e harness's entry points into ``src/``.

``benchmarks/e2e/tracing.py`` wraps functions of the program by name,
through ``vars(owner)[attr]`` — so a method that is renamed, or that moves
to a base class and becomes *inherited*, breaks every traced benchmark run
while the unit tests stay green.  This resolves every target the way
``Tracer._patch`` does, and reads the attributes ``workloads.py`` and
``metrics.py`` take off live objects, in milliseconds.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.records import CLASS_STREAM
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig

_TRACING_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("e2e_tracing", _TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _raw(target: str):
    """What ``Tracer._patch`` would wrap, or a failure naming the target."""
    owner, attr = tracing._resolve(target)
    assert attr in vars(owner), (
        f"{target}: {attr!r} is not defined on {owner!r} itself "
        "(renamed, or inherited from a base class)"
    )
    raw = vars(owner)[attr]
    return raw.__func__ if isinstance(raw, classmethod) else raw


@pytest.mark.parametrize(
    "target,flavour", [(target, flavour) for _n, target, flavour, _u in tracing.SPAN_MAP]
)
def test_span_target_resolves(target, flavour):
    fn = _raw(target)
    assert callable(fn)
    assert inspect.isgeneratorfunction(fn) == (flavour == "gen")


def test_bytes_hook_resolves():
    _counter, target = tracing.BYTES_HOOK
    owner, attr = tracing._resolve(target)
    assert isinstance(vars(owner)[attr], classmethod)
    assert callable(_raw(target))


def test_attributes_the_harness_reads():
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(TopologySpec(n_podsets=2, pods_per_podset=1, servers_per_pod=2),),
            agent=AgentConfig(round_mode="class"),
            stream=StreamConfig(shard_aggregation=True),
        )
    )
    fleet = ShardedFleet(system)
    launched = fleet.run_round(0.0)
    assert fleet.probes_sent == launched > 0
    assert fleet.broker_probes_sent == 0

    uploaders = []
    for agent in system.agents.values():
        uploaders += [agent.uploader, agent.class_uploader]
    for shard in fleet.shards.values():
        uploaders += [shard.probe_uploader, shard.class_uploader]
    for uploader in uploaders:
        uploader.flush(600.0)
        stats = uploader.stats
        assert stats.records_added == stats.records_uploaded + stats.records_discarded
        assert uploader.buffered_records == uploader.spooled_records == 0

    store = system.store
    stored = sum(len(extent.records) for extent in store.extents(CLASS_STREAM))
    assert stored == store.records_ingested > 0
    assert store.bytes_ingested > 0 and store.total_bytes() > 0

    stream = system.stream
    assert stream.memory_buckets > 0
    assert stream.deltas_emitted == stream.probes_dropped == 0
    ledger = stream.conservation()
    assert ledger["probes_folded"] == ledger["probes_emitted"] + ledger["probes_pending"]

    downloads = system.controller.download_stats()
    assert downloads["responses_200"] == len(system.agents)
    assert downloads["responses_304"] == 0
