"""``Fabric.probe_many``, held to recorded fingerprints — not to a twin.

A probe round is compiled once per (source, entries object, generation)
and comes back as a columnar :class:`~repro.netsim.fabric.ProbeBatch`
(ISSUE 22).  What that rewrite may not move is pinned here as sha256
literals, recorded at commit 9226c3c — the parent, where ``probe_many``
built a ``ProbeResult`` per probe — before any source edit
(``python -m tests.netsim.test_probe_round_fingerprint`` prints them):
every row a caller can read, the generator's end state, the port
allocator's position, every switch's ``packets_forwarded``, the probe
ledger and the reported probe sequence, over three rounds at two seeds of
seven kinds of round (sixty rounds of the lossy one).  No copy of the old
implementation lives in this file (ROADMAP 7d).

Beside the literals: the row view's sequence contract, ``allocate_many``
against ``allocate``, a work meter (a healthy round builds no
``ProbeResult`` and no ``FiveTuple``; plan and static columns are built
once per pinglist and generation) and the rule that a *list* of entries is
never cached.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.addressing import (
    EPHEMERAL_PORT_MAX,
    EPHEMERAL_PORT_MIN,
    EphemeralPortAllocator,
)
from repro.netsim.fabric import Fabric
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.netsim.workload import PROFILES
from tests.conftest import calls_digest, record_probe_calls

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=3, servers_per_pod=6, n_spines=4)
_TWO_DC = [
    TopologySpec(name="dc-w", region="us-west", n_podsets=2, pods_per_podset=2,
                 servers_per_pod=4),
    TopologySpec(name="dc-e", region="us-east", n_podsets=2, pods_per_podset=2,
                 servers_per_pod=4),
]
_SEEDS = (3, 11)
_TIMES = (0.0, 60.0, 120.0)
_LOSSY_TIMES = tuple(60.0 * i for i in range(60))  # long enough to time out


# Each case builds its world and names the round: (fabric, src, entries).
def _healthy(seed, profiles=None):
    fabric = Fabric(MultiDCTopology.single(_SPEC), seed=seed, profiles=profiles)
    servers = fabric.topology.dc(0).servers
    # 30 entries over intra-pod, intra-podset and cross-podset peers on two
    # ports; the allocator starts 40 short of the wrap, so round two crosses.
    entries = tuple((s.device_id, 81 + (i % 2), 0) for i, s in enumerate(servers[1:31]))
    fabric._ports[servers[0].device_id] = EphemeralPortAllocator(EPHEMERAL_PORT_MAX - 40)
    return fabric, servers[0], entries


def _lossy(seed):
    # ~8% of SYN attempts lost with no fault anywhere: the analytic
    # partition's own 3 s / 9 s signatures and (seed 3) a 21 s timeout.
    lossy = PROFILES["throughput"].with_drop_targets(0.05, 0.099)
    return _healthy(seed, profiles={_SPEC.name: lossy})


def _tor_blackhole(seed):
    fabric, src, entries = _healthy(seed)
    apply_scenario("tor-blackhole", fabric)  # pod 2's ToR: 6 of 30 go scalar
    return fabric, src, entries


def _payload(seed):
    fabric, src, entries = _healthy(seed)
    entries = tuple(
        (dst, port, 800 if i % 7 == 2 else 0) for i, (dst, port, _p) in enumerate(entries)
    )
    return fabric, src, entries


def _down_destination(seed):
    fabric, src, entries = _healthy(seed)
    for index in (4, 17, 18):
        fabric.topology.server(entries[index][0]).bring_down()
    return fabric, src, entries


def _down_source(seed):
    fabric, src, entries = _healthy(seed)
    src.bring_down()
    return fabric, src, entries[:8]


def _wan_pair(seed):
    fabric = Fabric(MultiDCTopology(_TWO_DC), seed=seed)
    west, east = fabric.topology.dc(0).servers, fabric.topology.dc(1).servers
    peers = [west[1], east[0], west[5], east[9], west[12], east[15], west[0]]
    return fabric, west[0], tuple((s.device_id, 81, 0) for s in peers)


CASES = {
    "healthy-30": _healthy,
    "lossy-30": _lossy,
    "tor-blackhole-mixed": _tor_blackhole,
    "payload-entries": _payload,
    "down-destination": _down_destination,
    "down-source": _down_source,
    "wan-pair": _wan_pair,
}


def _row(result) -> tuple:
    return (
        result.src, result.dst, result.t, result.success, result.rtt_s, result.error,
        result.syn_drops, result.payload_rtt_s,
        None if result.flow is None else result.flow.src_port,
        None if result.scope is None else result.scope.name,
        result.forward_hops,
    )


def fingerprint(case: str, seed: int, entries_type=tuple) -> tuple[str, str]:
    """The rounds' digest, and their probe calls' (``calls_digest``)."""
    fabric, src, entries = CASES[case](seed)
    entries = entries_type(entries)
    observed = record_probe_calls(fabric)
    digest = hashlib.sha256()
    for t in _LOSSY_TIMES if case == "lossy-30" else _TIMES:
        results = fabric.probe_many(src.device_id, entries, t=t)
        assert len(results) == len(entries)
        for result in results:
            # repr: a numpy scalar where a Python one was reads differently.
            digest.update(repr(_row(result)).encode())
    allocator = fabric._ports.get(src.device_id)
    end_state = (
        fabric.rng.bit_generator.state,
        None if allocator is None else allocator._next,
        [
            (switch.device_id, switch.counters.packets_forwarded)
            for dc in fabric.topology.dcs
            for switch in dc.all_switches()
        ],
        (fabric.probes_carried, fabric.probes_refused),
        observed,
    )
    digest.update(repr(end_state).encode())
    return digest.hexdigest(), calls_digest(observed)


# Recorded at commit 9226c3c, before any source edit.
PINNED = {
    ("healthy-30", 3): "32c6eca17085c0336581245c70342307ef86b1f837f66625697576bb926995a4",
    ("healthy-30", 11): "76e349cc8549aaf502c6c708d487ed6952857ad14510e527c3fcb5ff20fcbffe",
    ("lossy-30", 3): "c852b30d13fb2a2514e37a3318e26d6afb18eec2d7c04c8ec831775a5d9eefdf",
    ("lossy-30", 11): "7cc3a4b446019185b76d507b75a302dafe656f96acd7bcf901f8716b81032fc0",
    ("tor-blackhole-mixed", 3): "20c52cc4adb721416945b4196905ba74fe3c898f75e016fd41fb58b349a0ac64",
    ("tor-blackhole-mixed", 11): "6119534ca7944bfdea0fab5ed2360053876bb628fb5359fa3f9fbfb75c1cbd74",
    ("payload-entries", 3): "3d3e791c11feedfc7c9d4645edc45cce32d6b6250f9b678c62feaf561202ee44",
    ("payload-entries", 11): "e24a47e23da1bc03b21b454bd444581a6bcf6cc6a52e3bcc391dbb8f0097e369",
    ("down-destination", 3): "dac8b1b1cfdf97c03eb3f3c9cbc831c25b6daa063849bb3961d6976e28f86caa",
    ("down-destination", 11): "d6162ff848aec4160675e4d9f3cfa6dc2381490e8b96a7be599582bb003d8097",
    ("down-source", 3): "6f39e347cdabdfd442bdf278d89e8e8ebd4c36cc721275d023e1bd4f3c73e1d2",
    ("down-source", 11): "678ec52d61de9d0e3c64bd86dbf0ec2c1873f791b528b98a3570af21fad72b04",
    ("wan-pair", 3): "1ee53ccb53e6770e6873a19f8866ba78ee11a3a3328ce8440d62417e5a4999c1",
    ("wan-pair", 11): "f45045be5d90700459ec8aed325047149957a9c17de8ab2d88da03d0b6df40a3",
}


# Each (src, t) round's probe calls, sorted (``calls_digest``): who probed
# whom, so the same at both seeds.  Recorded at commit 07690b6, before the
# per-probe observers became one report per engine call.
_ALL_30 = "02085815f9572ea96a97eaef54750deaaf5e4322d37af535e9cbb155f14976ac"
ROUND_CALLS = {
    "healthy-30": _ALL_30,
    "lossy-30": "23716384b9a5b085ce7cdaff4e49ac7234bbe279a4f90339d8c0db0ee79f36ac",
    "tor-blackhole-mixed": _ALL_30,
    "payload-entries": "b30456f1f722399e34092874acef05267c74c5c09e099a4bf371df9319821228",
    "down-destination": _ALL_30,
    "down-source": "e94ee4fa56c1ee94f0ed96fd3cd752e778b18af4b3c0debfcd4af2df1c3bd334",
    "wan-pair": "a917fed04893464c01953b3f0a6d7978b0eff10ed10af8fb7d5fe60eb0560987",
}


@pytest.mark.parametrize("case,seed", sorted(PINNED))
def test_round_fingerprint_is_the_parents(case, seed):
    assert fingerprint(case, seed) == (PINNED[(case, seed)], ROUND_CALLS[case])


def test_a_list_of_entries_draws_the_same_rounds():
    """Compiled afresh every call or found on the source: same simulation."""
    for case in CASES:
        assert fingerprint(case, 3, entries_type=list)[0] == PINNED[(case, 3)]


# -- the row view -----------------------------------------------------------------


class TestRowView:
    @pytest.fixture()
    def round_(self):
        fabric, src, entries = _payload(5)  # scalar rows among analytic ones
        return fabric, src, entries, fabric.probe_many(src.device_id, entries, t=7.0)

    def test_sequence_contract(self, round_):
        _fabric, src, entries, batch = round_
        rows = list(batch)
        assert len(batch) == len(rows) == len(entries) == 30
        assert [_row(batch[i]) for i in range(30)] == [_row(row) for row in rows]
        assert _row(batch[-1]) == _row(rows[29]) and _row(batch[-30]) == _row(rows[0])
        assert [_row(row) for row in batch[3:9:2]] == [_row(row) for row in rows[3:9:2]]
        assert batch[30:] == [] and len(batch[-2:]) == 2
        for index in (30, -31):
            with pytest.raises(IndexError):
                batch[index]
        assert batch.src == src.device_id and batch.t == 7.0
        assert [row.dst for row in rows] == [entry[0] for entry in entries]

    def test_rows_carry_the_allocated_flow(self, round_):
        fabric, src, entries, batch = round_
        for index, (dst_id, dst_port, payload) in enumerate(entries):
            flow = batch[index].flow
            assert flow.src_ip == src.ip and flow.dst_ip == fabric.topology.server(dst_id).ip
            assert (flow.src_port, flow.dst_port) == (batch.src_port[index], dst_port)
            assert (batch[index].payload_rtt_s is not None) == (payload > 0)
        # Scalar probes take their ports first, in entry order; then the rest.
        scalar = [i for i, entry in enumerate(entries) if entry[2]]
        fast = [i for i, entry in enumerate(entries) if not entry[2]]
        start = EPHEMERAL_PORT_MAX - 40
        assert [batch.src_port[i] for i in scalar + fast] == list(range(start, start + 30))

    def test_scalar_rows_are_the_engines_own_objects(self, round_):
        _fabric, _src, entries, batch = round_
        for index, entry in enumerate(entries):
            assert (batch[index] is batch[index]) == (entry[2] > 0)

    def test_columns_are_python_typed_in_rows(self, round_):
        row = round_[3][0]
        assert type(row.success) is bool and type(row.rtt_s) is float
        assert type(row.syn_drops) is int and type(row.flow.src_port) is int


@settings(max_examples=200, deadline=None)
@given(
    start=st.integers(EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MAX),
    blocks=st.lists(st.integers(0, 40_000), min_size=1, max_size=4),
)
def test_allocate_many_is_k_allocates(start, blocks):
    """From any start, across the wrap, more than once around."""
    many, single = EphemeralPortAllocator(start), EphemeralPortAllocator(start)
    for k in blocks:
        assert list(many.allocate_many(k)) == [single.allocate() for _ in range(k)]
        assert many._next == single._next


# -- a work meter -----------------------------------------------------------------


class TestWorkPerRound:
    @pytest.fixture()
    def agent_round(self):
        """One agent's round the way the agent hands it over (tuples), and
        ``make_records`` beside the engine."""
        from repro.core.dsa.records import make_records

        fabric, src, entries = _healthy(5)
        tags = tuple(("tor-level", "high") for _ in entries)
        cache: dict = {}

        def run(t, entries=entries, tags=tags):
            probes = fabric.probe_many(src.device_id, entries, t=t)
            return probes, make_records(fabric.topology, probes, tags, cache)

        return fabric, src, entries, run

    def test_a_healthy_round_builds_no_row_objects(self, agent_round, monkeypatch):
        import repro.netsim.fabric as fabric_module

        fabric, _src, _entries, run = agent_round
        run(0.0)  # compile, route, fill the pair cache
        built = []
        for name in ("ProbeResult", "FiveTuple"):
            real = getattr(fabric_module, name)
            monkeypatch.setattr(
                fabric_module, name,
                lambda *a, _real=real, _name=name, **k: (built.append(_name), _real(*a, **k))[1],
            )
        carried = fabric.probes_carried
        probes, batch = run(60.0)
        assert fabric.probes_carried == carried + 30 and batch.n == 30
        assert built == []
        probes[4]  # ... until somebody reads a row
        assert built == ["FiveTuple", "ProbeResult"]

    def test_plan_and_static_columns_are_built_once_per_pinglist(self, agent_round):
        fabric, src, entries, run = agent_round
        first, again = run(0.0), run(60.0)
        assert again[0].plan is first[0].plan
        assert again[1].static is first[1].static

        swapped = tuple(entries[::-1])  # a new pinglist object
        other = run(120.0, entries=swapped)
        assert other[0].plan is not first[0].plan and other[1].static is not first[1].static
        assert run(180.0, entries=swapped)[0].plan is other[0].plan

        fabric.topology.state_version.bump()  # a new generation
        bumped = run(240.0, entries=swapped)
        assert bumped[0].plan is not other[0].plan and bumped[1].static is not other[1].static
        assert bumped[1].static.lists == other[1].static.lists

        retagged = run(300.0, entries=swapped, tags=tuple(("intra-pod", "low") for _ in entries))
        assert retagged[0].plan is bumped[0].plan and retagged[1].static is not bumped[1].static
        assert set(retagged[1].static.lists["purpose"]) == {"intra-pod"}

    def test_a_list_is_never_cached(self, agent_round):
        fabric, src, entries, _run = agent_round
        round_ = list(entries)
        first = fabric.probe_many(src.device_id, round_, t=0.0)
        round_[0] = (round_[-1][0], 82, 0)
        del round_[10:]
        second = fabric.probe_many(src.device_id, round_, t=60.0)
        assert second.plan is not first.plan
        assert len(first) == 30 and len(second) == 10
        assert (second[0].dst, second[0].flow.dst_port) == (entries[-1][0], 82)
        assert src.device_id not in fabric._round_plans


if __name__ == "__main__":
    print("PINNED = {")
    for case in CASES:
        for seed in _SEEDS:
            print(f'    ("{case}", {seed}): "{fingerprint(case, seed)[0]}",')
    print("}")
