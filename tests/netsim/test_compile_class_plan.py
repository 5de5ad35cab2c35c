"""``Fabric.compile_class_plan`` against the per-entry loop it replaced.

The reference below walks a round entry by entry: resolve both ends,
route the pod pair through ``_class_facts``, open or join a group, take
the member's ordinal and count one packet on every hop of its
representative forward path.  The array compile must give the same plan:
the same groups in the same order, the same ``member_indices``,
``passthrough``, ``rounds`` and ``n_class_probes``, and the same SNMP
packets per counter.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netsim.fabric import ClassGroup, ClassRoundPlan, Fabric
from repro.netsim.faults import BlackholeType1, SilentRandomDrop
from repro.netsim.routing import PathScope
from repro.netsim.topology import MultiDCTopology, TopologySpec

_TAGS = (("tor-level", "high"), ("broker", "high"), ("broker", "low"))


def reference_plan(fabric: Fabric, sources, entries, tags) -> ClassRoundPlan:
    """The per-entry compile, one dict lookup and one hop walk per entry."""
    version = fabric.topology.state_version.value
    groups: dict[tuple, tuple[ClassGroup, list[int]]] = {}
    passthrough: list[int] = []
    members: dict[str, list[int]] = {}
    counter_acc: dict[int, list] = {}
    for index, (src, (dst_id, _port, payload_bytes), (purpose, qos)) in enumerate(
        zip(sources, entries, tags)
    ):
        src_server = fabric._resolve(src)
        src_id = src_server.device_id
        if payload_bytes > 0 or dst_id == src_id:
            passthrough.append(index)
            continue
        dst_server = fabric._resolve(dst_id)
        if not dst_server.is_up:
            passthrough.append(index)
            continue
        facts = fabric._class_facts(src_server, dst_server)
        if facts.scalar or facts.tiers is not None:
            passthrough.append(index)
            continue
        route = facts.route
        key = (purpose, qos, facts.class_key)
        slot = groups.get(key)
        if slot is None:
            slot = groups[key] = (
                ClassGroup(
                    purpose=purpose, qos=qos, dc_index=src_server.dc_index,
                    dst_dc=dst_server.dc_index, scope=route.scope,
                    n_hops=route.n_hops, wan_fwd=route.wan_fwd,
                    wan_rev=route.wan_rev, wan_rtt=route.wan_fwd + route.wan_rev,
                    p_attempt=facts.p_attempt, n=0,
                ),
                [],
            )
        group, indices = slot
        ordinal = group.n
        group.n += 1
        indices.append(index)
        members.setdefault(src_id, []).append(index)
        hops = [route.src_tor]
        for live, _salt in route.tiers:
            hops.append(live[ordinal % len(live)])
        if route.scope is not PathScope.INTRA_POD:
            hops.append(route.dst_tor)
        for hop in hops:
            counter_acc.setdefault(id(hop.counters), [hop.counters, 0])[1] += 1
    merged = [group for group, _indices in groups.values()]
    return ClassRoundPlan(
        version=version,
        groups=merged,
        passthrough=passthrough,
        n_class_probes=sum(group.n for group in merged),
        counter_increments=[(c, k) for c, k in counter_acc.values()],
        member_indices=[indices for _group, indices in groups.values()],
        make_rounds=lambda: [(src, entries, indices) for src, indices in members.items()],
    )


def _numbered(fabric: Fabric, sources, entries, tags) -> tuple:
    """A round given as sources, entries and tags, as ``compile_class_plan``
    takes it: server numbers, payloads, tag codes and the tags."""
    numbers: dict[tuple[str, str], int] = {}
    return (
        fabric.server_numbers([getattr(src, "device_id", src) for src in sources]),
        fabric.server_numbers([entry[0] for entry in entries]),
        np.array([entry[2] for entry in entries], dtype=np.int64),
        np.array([numbers.setdefault(tag, len(numbers)) for tag in tags], dtype=np.intp),
        list(numbers),
    )


def compile_plan(fabric: Fabric, sources, entries, tags) -> ClassRoundPlan:
    return fabric.compile_class_plan(*_numbered(fabric, sources, entries, tags), lambda: entries)


def _packets(plan: ClassRoundPlan) -> dict[int, int]:
    totals: dict[int, int] = {}
    for counters, packets in plan.counter_increments:
        totals[id(counters)] = totals.get(id(counters), 0) + packets
    return totals


def assert_same_plan(plan: ClassRoundPlan, reference: ClassRoundPlan) -> None:
    assert plan.version == reference.version
    assert plan.groups == reference.groups
    assert plan.member_indices == reference.member_indices
    assert plan.passthrough == reference.passthrough
    assert plan.n_class_probes == reference.n_class_probes
    assert [(src, indices) for src, _entries, indices in plan.rounds] == [
        (src, indices) for src, _entries, indices in reference.rounds
    ]
    assert all(entries is reference.rounds[0][1] for _src, entries, _i in plan.rounds)
    assert _packets(plan) == _packets(reference)


def _fabric(seed: int = 7) -> Fabric:
    spec = dict(n_podsets=2, pods_per_podset=2, servers_per_pod=3, n_spines=4)
    topology = MultiDCTopology(
        [
            TopologySpec(name="dc-e", region="us-east", **spec),
            TopologySpec(name="dc-w", region="us-west", **spec),
        ]
    )
    return Fabric(topology, seed=seed)


def _round(fabric: Fabric, picks, mixed_sources: bool):
    servers = [s for dc in fabric.topology.dcs for s in dc.servers]
    sources, entries, tags = [], [], []
    for src, dst, payload, tag in picks:
        server = servers[src % len(servers)]
        sources.append(server if mixed_sources and src % 2 else server.device_id)
        entries.append((servers[dst % len(servers)].device_id, 81, 512 * payload))
        tags.append(_TAGS[tag])
    return sources, entries, tags


_PICKS = st.lists(
    st.tuples(
        st.integers(0, 23),  # source
        st.integers(0, 23),  # destination (a self-pair when equal)
        st.integers(0, 9).map(lambda n: int(n == 0)),  # payload now and then
        st.integers(0, len(_TAGS) - 1),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(
    picks=_PICKS,
    down=st.sets(st.integers(0, 23), max_size=4),
    spine_fault=st.booleans(),
    tor_fault=st.booleans(),
    mixed_sources=st.booleans(),
)
@example(picks=[], down=set(), spine_fault=False, tor_fault=False, mixed_sources=False)
@example(  # every entry a payload, a self-pair or a down destination
    picks=[(0, 1, 1, 0), (2, 2, 0, 1), (3, 4, 0, 2), (5, 4, 0, 0)],
    down={4}, spine_fault=False, tor_fault=False, mixed_sources=True,
)
def test_array_compile_is_the_per_entry_loop(picks, down, spine_fault, tor_fault, mixed_sources):
    fabric = _fabric()
    servers = [s for dc in fabric.topology.dcs for s in dc.servers]
    for index in down:
        servers[index].bring_down()
    dc0 = fabric.topology.dc(0)
    if spine_fault:  # judged tiers: only the flows hashing onto it pass through
        fabric.faults.inject(SilentRandomDrop(switch_id=dc0.spines[1].device_id, drop_prob=0.2))
    if tor_fault:  # every pair of the ToR's pod passes through
        fabric.faults.inject(BlackholeType1(switch_id=dc0.tors[1].device_id))
    sources, entries, tags = _round(fabric, picks, mixed_sources)
    reference = reference_plan(fabric, sources, entries, tags)
    assert_same_plan(compile_plan(fabric, sources, entries, tags), reference)
    # Again from the generation's warm class table, then from a fresh one.
    assert_same_plan(compile_plan(fabric, sources, entries, tags), reference)
    fabric.topology.state_version.bump()
    assert_same_plan(
        compile_plan(fabric, sources, entries, tags),
        reference_plan(fabric, sources, entries, tags),
    )


def test_build_class_plan_is_one_source_of_the_compile():
    fabric = _fabric()
    src = fabric.topology.dc(0).servers[0]
    entries = [(s.device_id, 81, 0) for dc in fabric.topology.dcs for s in dc.servers]
    plan = fabric.build_class_plan(src.device_id, entries)
    tags = [("tor-level", "high")] * len(entries)
    assert_same_plan(plan, reference_plan(fabric, [src] * len(entries), entries, tags))
    assert plan.passthrough == [0]  # the self-pair
    assert {group.scope for group in plan.groups} == set(PathScope) - {PathScope.SAME_HOST}


def test_rounds_are_derived_when_first_read():
    """Only round observers read ``rounds``: a compile hands over how to make
    them, and the entries are built on the first read, once."""
    fabric = _fabric()
    sources, entries, tags = _round(fabric, [(0, 7, 0, 1), (3, 9, 0, 2), (0, 12, 0, 1)], False)
    made = []
    plan = compile_plan(fabric, sources, entries, tags)
    lazy = fabric.compile_class_plan(*_numbered(fabric, sources, entries, tags),
                                     lambda: made.append(1) or entries)
    assert made == []
    assert_same_plan(lazy, plan)
    assert lazy.rounds is lazy.rounds and made == [1]
