"""The generation-stamped path cache: cached must always equal fresh.

The router memoizes paths per ``(src, dst, ecmp_bucket)`` and drops the
cache whenever the topology's ``StateVersion`` moves.  Everything here
checks one contract: :meth:`Router.path` is indistinguishable from
:meth:`Router.uncached_path` no matter what sequence of device flips,
fault changes, and growth events happens in between.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.agent.agent import AgentConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim import fabric as fabric_module
from repro.netsim.addressing import (
    EPHEMERAL_PORT_MAX,
    EPHEMERAL_PORT_MIN,
    EphemeralPortAllocator,
    FiveTuple,
)
from repro.netsim.fabric import Fabric
from repro.netsim.faults import (
    FaultInjector,
    SilentRandomDrop,
    WanFiberCut,
    podset_down,
    podset_up,
    wan_link_id,
)
from repro.netsim.routing import NoRouteError, Router
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import MultiDCTopology, TopologySpec


@pytest.fixture()
def topo():
    return MultiDCTopology.single(
        TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=2, n_spines=4)
    )


@pytest.fixture()
def router(topo):
    return Router(topo)


def _cross_podset_pair(topo):
    dc = topo.dc(0)
    return dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]


def _flow(src, dst, src_port=50_000, dst_port=81):
    return FiveTuple(src.ip, src_port, dst.ip, dst_port)


def _same_path(a, b) -> bool:
    return (
        a.scope == b.scope
        and a.hop_ids() == b.hop_ids()
        and a.wan_rtt == b.wan_rtt
    )


class TestCacheMechanics:
    def test_second_lookup_is_a_hit(self, topo, router):
        src, dst = _cross_podset_pair(topo)
        flow = _flow(src, dst)
        first = router.path(src, dst, flow)
        second = router.path(src, dst, flow)
        assert second is first
        assert (router.cache_misses, router.cache_hits) == (1, 1)

    def test_same_bucket_different_port_shares_the_entry(self, topo, router):
        src, dst = _cross_podset_pair(topo)
        ports = range(EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MIN + 200)
        paths = {id(router.path(src, dst, _flow(src, dst, port))) for port in ports}
        # Distinct ports land in a handful of buckets, each cached once.
        assert len(router._path_cache) == len(paths)
        assert router.cache_misses == len(paths)
        assert router.cache_hits == 200 - len(paths)

    def test_bucket_count_is_bounded_by_tier_sizes(self, topo, router):
        src, dst = _cross_podset_pair(topo)
        spec = topo.dc(0).spec
        buckets = {
            router.ecmp_bucket(src, dst, _flow(src, dst, port))
            for port in range(EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MAX + 1)
        }
        cap = spec.leaves_per_podset * spec.n_spines * spec.leaves_per_podset
        assert 1 <= len(buckets) <= cap

    def test_port_wraparound_revisits_the_same_path_set(self, topo, router):
        """Satellite: after 64k allocations the sweep repeats exactly.

        The allocator's range is finite, so the ECMP bucket sweep is too:
        the second full cycle of ports must reproduce the first cycle's
        ports, buckets, and cached-path set with zero new cache misses.
        """
        src, dst = _cross_podset_pair(topo)
        allocator = EphemeralPortAllocator()
        n_ports = EPHEMERAL_PORT_MAX - EPHEMERAL_PORT_MIN + 1
        first_cycle = [allocator.allocate() for _ in range(n_ports)]
        second_cycle = [allocator.allocate() for _ in range(n_ports)]
        assert second_cycle == first_cycle

        sweep = first_cycle[::257]  # every 257th port keeps the test fast
        first_paths = [
            router.path(src, dst, _flow(src, dst, port)) for port in sweep
        ]
        misses = router.cache_misses
        second_paths = [
            router.path(src, dst, _flow(src, dst, port)) for port in sweep
        ]
        assert router.cache_misses == misses
        assert all(a is b for a, b in zip(first_paths, second_paths))


class TestGenerationInvalidation:
    def test_device_transition_drops_the_cache(self, topo, router):
        src, dst = _cross_podset_pair(topo)
        flow = _flow(src, dst)
        stale = router.path(src, dst, flow)
        spine = stale.hops[2]
        spine.bring_down()
        fresh = router.path(src, dst, flow)
        assert spine.device_id not in fresh.hop_ids()
        assert _same_path(fresh, router.uncached_path(src, dst, flow))

    def test_down_up_flap_between_rounds(self, topo, router):
        """Satellite edge: a flap must invalidate twice, not net out to zero."""
        src, dst = _cross_podset_pair(topo)
        flow = _flow(src, dst)
        before = router.path(src, dst, flow)
        spine = before.hops[2]
        spine.bring_down()
        while_down = router.path(src, dst, flow)
        assert spine.device_id not in while_down.hop_ids()
        spine.bring_up()
        after = router.path(src, dst, flow)
        assert _same_path(after, before)
        assert _same_path(after, router.uncached_path(src, dst, flow))

    def test_fault_changes_bump_without_changing_routes(self, topo, router):
        """A fault change moves the state generation, not the routing one:
        the path cache empties, the pod-route record is kept."""
        src, dst = _cross_podset_pair(topo)
        flow = _flow(src, dst)
        injector = FaultInjector(state_version=topo.state_version)
        before = router.path(src, dst, flow)
        route = router.pod_route(src, dst)
        version = topo.state_version.value
        fault = injector.inject(SilentRandomDrop(switch_id=before.hops[0].device_id))
        assert topo.state_version.value == version + 1
        assert router.pod_route(src, dst) is route
        assert len(router._path_cache) == 0
        misses = router.cache_misses
        assert _same_path(router.path(src, dst, flow), before)
        assert router.cache_misses == misses + 1  # the path itself is rebuilt
        injector.clear(fault)
        assert topo.state_version.value == version + 2
        assert router.pod_route(src, dst) is route
        assert len(router._path_cache) == 0

    def test_add_podset_during_a_live_run(self, topo, router):
        """Satellite edge: growth invalidates, and new servers route."""
        src, dst = _cross_podset_pair(topo)
        router.path(src, dst, _flow(src, dst))
        new_servers = topo.dc(0).add_podset()
        newcomer = new_servers[0]
        flow = _flow(src, newcomer)
        grown = router.path(src, newcomer, flow)
        assert _same_path(grown, router.uncached_path(src, newcomer, flow))
        # The old pair still matches fresh computation post-growth.
        old_flow = _flow(src, dst)
        assert _same_path(
            router.path(src, dst, old_flow), router.uncached_path(src, dst, old_flow)
        )

    def test_reload_bumps_even_up_to_up(self, topo, router):
        src, dst = _cross_podset_pair(topo)
        router.path(src, dst, _flow(src, dst))
        version = topo.state_version.value
        topo.dc(0).spines[0].reload()
        assert topo.state_version.value == version + 1


class TestFastPathInvalidation:
    """Satellite edges at the fabric level: no stale-route probe may
    succeed through a withdrawn switch, whichever engine carried it."""

    def _fabric(self):
        return Fabric.single_dc(
            TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=2, n_spines=4),
            seed=11,
        )

    def test_fault_injected_mid_round_forces_scalar(self):
        fabric = self._fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        entries = [(s.device_id, 81, 0) for s in dc.servers_in_podset(1)]
        fabric.probe_many(src, entries)  # warm the pair cache
        for spine in dc.spines:
            fabric.faults.inject(
                SilentRandomDrop(switch_id=spine.device_id, drop_prob=1.0)
            )
        results = fabric.probe_many(src, entries)
        # Every cross-podset path crosses a spine; a stale fast-path entry
        # would sail through the blackhole and succeed.
        assert all(not r.success for r in results)

    def test_withdrawn_switch_never_appears_in_a_probe(self):
        fabric = self._fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        entries = [(s.device_id, 81, 0) for s in dc.servers_in_podset(1)]
        fabric.probe_many(src, entries)  # warm the pair cache
        withdrawn = dc.spines[0]
        withdrawn.bring_down()
        for t in (100.0, 200.0):
            for result in fabric.probe_many(src, entries, t=t):
                assert withdrawn.device_id not in result.forward_hops

    def test_growth_during_a_live_run_reaches_new_servers(self):
        fabric = self._fabric()
        dc = fabric.topology.dc(0)
        src = dc.servers_in_podset(0)[0]
        entries = [(s.device_id, 81, 0) for s in dc.servers_in_podset(1)]
        fabric.probe_many(src, entries)
        new_servers = dc.add_podset()
        grown_entries = entries + [(s.device_id, 81, 0) for s in new_servers[:4]]
        results = fabric.probe_many(src, grown_entries, t=100.0)
        assert all(r.success for r in results)


# Operations the property test interleaves with path queries.  Each op
# bumps (or should bump) the state version; correctness means cached and
# fresh computation agree after every single one, and that those in
# _ROUTE_KEEPING_OPS moved no route.
_OPS = (
    "down", "up", "flap", "fault", "wan-fault", "clear", "podset-down",
    "podset-up", "grow", "reload", "isolate", "server-down",
    "server-up", "noop",
)
_ROUTE_KEEPING_OPS = {"fault", "wan-fault", "clear", "server-down", "server-up"}


def _two_dc_fabric():
    return Fabric(
        MultiDCTopology(
            [
                TopologySpec(name="dc-w", region="us-west", n_podsets=2,
                             pods_per_podset=2, servers_per_pod=2, n_spines=3),
                TopologySpec(name="dc-e", region="us-east", n_podsets=1,
                             pods_per_podset=2, servers_per_pod=2, n_spines=2),
            ]
        ),
        seed=3,
    )


class TestCachedEqualsFreshProperty:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(0, 10_000)),
            min_size=1,
            max_size=10,
        ),
        probes=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.integers(0, 10_000),
                st.integers(EPHEMERAL_PORT_MIN, EPHEMERAL_PORT_MAX),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    # Pool indices: dc-w leaves 4-7, spines 8-10, borders 11-12, dc-e spines
    # 17-18.  A silent spine as its tier shrinks to two, then one (itself);
    # a remote spine, a border and a leaf judged across the WAN; then the
    # WAN itself cut (on every inter-DC flow), and the first fault cleared.
    @example(
        ops=[
            ("fault", 9), ("down", 8), ("down", 10), ("up", 8), ("down", 9),
            ("fault", 17), ("fault", 11), ("fault", 5), ("wan-fault", 0), ("clear", 0),
        ],
        probes=[(0, 4, 50_000)],
    )
    @settings(max_examples=60, deadline=None)
    def test_the_table_is_the_router(self, ops, probes):
        """Across random fault/flap/outage/growth sequences, the
        route table answers exactly as the from-scratch reference does:
        ``path`` == ``uncached_path`` hop object for hop object, and a fault
        or server step keeps every ``PodRoute``; and of the class plan's
        passthrough set, ``probe_many`` hands the engine's core exactly the
        routable flows the router says cross a fault (or cannot be judged:
        payload, dead destination) — the vector verdict is ``Router.path``'s."""
        fabric = _two_dc_fabric()
        topo, router = fabric.topology, fabric.router
        active_faults: list = []
        dc = topo.dc(0)

        def switch_pool():
            return [switch for each in topo.dcs for switch in each.all_switches()]

        def check_paths():
            servers = topo.all_servers()
            for i, j, port in probes:
                src = servers[i % len(servers)]
                dst = servers[j % len(servers)]
                flow = FiveTuple(src.ip, port, dst.ip, 81)
                try:
                    cached = router.path(src, dst, flow)
                except NoRouteError:
                    with pytest.raises(NoRouteError):
                        router.uncached_path(src, dst, flow)
                    continue
                fresh = router.uncached_path(src, dst, flow)
                assert cached.scope is fresh.scope
                assert cached.wan_rtt == fresh.wan_rtt
                assert len(cached.hops) == len(fresh.hops)
                assert all(a is b for a, b in zip(cached.hops, fresh.hops))

        def check_partition():
            servers = topo.all_servers()
            src = servers[probes[0][0] % len(servers)]
            if not src.is_up:
                return  # a dead host's round is refused whole, not partitioned
            entries = [(server.device_id, 81, 0) for server in servers]
            entries.append((servers[-1].device_id, 82, 64))  # a payload echo
            plan = fabric.build_class_plan(src, entries)
            scalar_bound = []
            core = fabric._probe_along
            fabric._probe_along = lambda forward, reverse, flow, *args, **kw: (
                scalar_bound.append((forward.dst.device_id, flow.dst_port))
                or core(forward, reverse, flow, *args, **kw)
            )
            try:
                batch = fabric.probe_many(src, entries)
            finally:
                del fabric._probe_along
            faulted = fabric.faults.faulted_switch_ids()

            def crosses_a_fault(index):
                dst_id, dst_port, payload = entries[index]
                dst = topo.server(dst_id)
                flow = FiveTuple(src.ip, batch.src_port[index], dst.ip, dst_port)
                try:
                    paths = (
                        router.path(src, dst, flow),
                        router.path(dst, src, flow.reversed()),
                    )
                except NoRouteError:
                    # Resolved in the plan: never routed, never carried.
                    assert batch[index].error == "no_route"
                    return False
                if payload > 0 or not dst.is_up:
                    return True
                crossed = {hop.device_id for path in paths for hop in path.hops}
                if src.dc_index != dst.dc_index:
                    crossed |= {
                        wan_link_id(src.dc_index, dst.dc_index),
                        wan_link_id(dst.dc_index, src.dc_index),
                    }
                return not faulted.isdisjoint(crossed)

            passed = [
                entries[index][:2]
                for index in plan.passthrough
                # A payload-free same-host entry is the one kind the plan
                # passes through and probe_many always fast-paths.
                if (entries[index][0] != src.device_id or entries[index][2] > 0)
                and crosses_a_fault(index)
            ]
            assert passed == scalar_bound

        def check():
            check_paths()
            check_partition()

        check()
        for op, pick in ops:
            pool = switch_pool()
            switch = pool[pick % len(pool)]
            routes = dict(router._routes)
            if op == "down":
                switch.bring_down()
            elif op == "up":
                switch.bring_up()
            elif op == "flap":
                switch.bring_down()
                switch.bring_up()
            elif op == "fault":
                active_faults.append(
                    fabric.faults.inject(SilentRandomDrop(switch_id=switch.device_id))
                )
            elif op == "wan-fault":
                active_faults.append(
                    fabric.faults.inject(WanFiberCut(src_dc=pick % 2, dst_dc=1 - pick % 2))
                )
            elif op == "clear" and active_faults:
                fabric.faults.clear(active_faults.pop(pick % len(active_faults)))
            elif op == "podset-down":
                podset_down(topo, 0, pick % dc.spec.n_podsets)
            elif op == "podset-up":
                podset_up(topo, 0, pick % dc.spec.n_podsets)
            elif op == "grow" and dc.spec.n_podsets < 4:
                dc.add_podset()
            elif op == "reload":
                fabric.reload_switch(switch)
            elif op == "isolate":
                fabric.isolate_switch(switch)
            elif op in ("server-down", "server-up"):
                server = topo.all_servers()[pick % len(topo.all_servers())]
                (server.bring_down if op == "server-down" else server.bring_up)()
            check()
            if op in _ROUTE_KEEPING_OPS:
                assert all(router._routes[key] is route for key, route in routes.items())


class TestDegradedRoundCallCounts:
    """Wall-clock-free guard on the degraded path: what a silent-spine
    round *calls*, counted by wrapping — so the cost model (the scalar
    engine's core for the flows that cross the spine and for no other, on
    the paths the ECMP pass chose; judge once per pod pair) cannot regress."""

    def test_silent_spine_round_routes_twice_per_probe(self, monkeypatch):
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(
                    TopologySpec(
                        n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8
                    ),
                ),
                seed=2,
                agent=AgentConfig(round_mode="class"),
            )
        )
        fabric = system.fabric
        calls = Counter()

        def counted(owner, name, key=None):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[key or name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        fleet = ShardedFleet(system)
        fleet.run_for(600.0)  # pinglists fetched, plans compiled
        apply_scenario("silent-spine", fabric)
        counted(fabric.router, "path")
        counted(fabric.router, "uncached_path")
        counted(fabric, "_pair_info")
        counted(fabric, "probe")
        counted(fabric, "_probe_along")
        counted(fabric_module, "_ClassFacts", "facts")
        rounds = []
        probe_many = fabric.probe_many
        monkeypatch.setattr(
            fabric,
            "probe_many",
            lambda src, entries, t: rounds.append(
                (src, entries, probe_many(src, entries, t=t))
            )
            or rounds[-1][2],
        )
        sent = fleet.probes_sent
        fleet.run_for(60.0)  # one recompile, one degraded round
        metered = Counter(calls)  # the meter stops here
        pod = lambda server: (server.dc_index, server.pod_index)
        pod_pairs = {
            (pod(system.topology.server(agent.server_id)),
             pod(system.topology.server(entry.peer_id)))
            for agent in system.agents.values()
            for entry in agent.pinglist.entries
        }
        # The work meter: one pass through the engine's core per flow whose
        # own path, out or back, holds the spine — 1 - (7/8)**2 of the
        # cross-podset flows, every one of which was on the faulted envelope.
        spine = system.topology.dc(0).spines[1]
        judged = crossing = 0
        for src_id, entries, batch in rounds:
            src = system.topology.server(src_id)
            for (dst_id, dst_port, _payload), port in zip(entries, batch.src_port):
                dst = system.topology.server(dst_id)
                assert dst.podset_index != src.podset_index
                flow = FiveTuple(src.ip, port, dst.ip, dst_port)
                judged += 1
                crossing += (
                    spine in fabric.router.path(src, dst, flow).hops
                    or spine in fabric.router.path(dst, src, flow.reversed()).hops
                )
        assert judged > 3000  # every cross-podset pair left the class plan
        assert judged < fleet.probes_sent - sent  # intra-podset stayed classed
        assert metered["_probe_along"] == crossing
        assert 0.18 * judged < crossing < 0.29 * judged
        assert metered["probe"] == metered["path"] == metered["uncached_path"] == 0
        assert metered["_pair_info"] == 0
        assert 0 < metered["facts"] <= len(pod_pairs)
