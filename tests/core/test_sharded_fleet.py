"""The podset-sharded fleet driver: conservation, parity, growth, scale.

The exactness bar: sharded execution reorganizes *who runs the round*, not
what the round does — so probe conservation must be exact (to the probe),
the chaos invariant catalogue must stay clean, and growth mid-run must fold
new podsets into the shard map without dropping a probe.

``test_scale_smoke_1k_window`` is the tier-1 smoke for the scale suite:
1024 servers, one simulated 10-minute window, sharded class rounds.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.chaos.invariants import InvariantChecker
from repro.core import sharded
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.controller.pinglist import Pinglist
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import CLASS_STREAM, LATENCY_STREAM
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faults import BlackholeType1, SilentRandomDrop
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig
from tests.conftest import calls_digest, record_probe_calls

_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4, n_spines=4)


def _system(round_mode="class", spec=_SPEC, seed=0, **config):
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec,),
            seed=seed,
            agent=AgentConfig(round_mode=round_mode),
            **config,
        )
    )


class TestShardedConservation:
    def test_probe_conservation_exact_with_observer(self):
        """Every probe a sharded round carries — classed, degraded, VIP —
        must be in the fabric's round reports, and the fabric
        ledger must balance to the probe."""
        system = _system()
        observed = record_probe_calls(system.fabric)
        fleet = ShardedFleet(system)
        carried_before = system.fabric.probes_carried
        refused_before = system.fabric.probes_refused
        launched = fleet.run_round(0.0)
        assert launched > 0
        assert len(observed) == launched
        ledger = (system.fabric.probes_carried - carried_before) + (
            system.fabric.probes_refused - refused_before
        )
        assert ledger == len(observed)

    def test_conservation_holds_under_faults(self):
        system = _system()
        observed = record_probe_calls(system.fabric)
        fleet = ShardedFleet(system)
        spine = system.topology.dc(0).spines[0]
        system.fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.3)
        )
        launched = fleet.run_round(30.0)
        assert len(observed) == launched
        # Faulted envelopes degraded: some pairs went per-pair.
        shard = next(iter(fleet.shards.values()))
        assert shard._plan is not None
        assert any(s._passthrough for s in fleet.shards.values())

    def test_chaos_invariant_checker_clean(self):
        """The full chaos invariant catalogue over sharded rounds."""
        system = _system()
        fleet = ShardedFleet(system)
        checker = InvariantChecker(system)
        checker.attach()
        fleet.run_for(180.0)
        checker.check_phase()
        assert checker.clean, [str(v) for v in checker.violations]

    def test_stream_plane_conservation_under_sharding(self):
        system = _system()
        fleet = ShardedFleet(system)
        fleet.run_for(120.0)
        ledger = system.stream.conservation()
        assert ledger["probes_folded"] == (
            ledger["probes_emitted"] + ledger["probes_pending"]
        )
        assert ledger["probes_folded"] > 0


class TestPlanStaleness:
    def test_new_pinglist_at_a_recycled_address_recompiles(self, monkeypatch):
        """Regression: the plan key was ``id(agent.pinglist)`` of objects
        the shard did not hold, so a fail-closed agent's freed pinglist
        could lend its address — and with it the old key — to the pinglist
        a recovery fetched, skipping the recompile.  Every address collides
        here; the shard must tell pinglists apart regardless."""
        monkeypatch.setattr(sharded, "id", lambda _object: 0, raising=False)
        system = _system()
        fleet = ShardedFleet(system)
        total = sum(len(agent.pinglist) for agent in system.agents.values())
        assert fleet.run_round(0.0) == total
        agent = next(iter(system.agents.values()))
        current = agent.pinglist
        agent.pinglist = Pinglist(
            server_id=current.server_id,
            generation=current.generation + 1,
            generated_at=60.0,
            parameters=current.parameters,
            entries=current.entries[:2],
        )
        assert fleet.run_round(60.0) == total - len(current) + 2
        agent.pinglist = current
        assert fleet.run_round(120.0) == total


class TestStalePinglistUnderSharding:
    def test_degraded_rows_of_a_stale_agent_carry_the_tag(self):
        """Regression: the shard handed degraded-pair batches to its
        uploader untagged, so during an incident an agent probing an
        unconfirmed pinglist looked fresh under ``ShardedFleet`` while the
        per-agent driver tagged the very same probes."""
        system = _system()
        fleet = ShardedFleet(system)
        fleet.run_round(0.0)
        dc = system.topology.dc(0)
        system.fabric.faults.inject(
            BlackholeType1(switch_id=dc.tors[0].device_id, fraction=0.5)
        )
        stale_id = dc.servers_in_pod(0)[1].device_id
        stale_agent = system.agents[stale_id]
        stale_agent.safety.record_controller_failure(30.0)
        assert stale_agent.pinglist_stale and stale_agent.probing

        shard = fleet.shards[(0, 0)]
        fleet.run_round(60.0)
        held = shard.probe_uploader._buffer
        by_src = {batch.static.lists["src"][0]: batch for batch in held}
        assert len(by_src) == len(held) > 1 and stale_id in by_src
        assert [src for src, batch in by_src.items() if batch.stale] == [stale_id]

        stats = shard.probe_uploader.stats
        added = stats.records_added
        assert shard.probe_uploader.flush(61.0)
        assert stats.records_uploaded == added and stats.records_discarded == 0
        assert shard.probe_uploader.buffered_records == 0
        # Mixed schema: shipped as row dicts, the tag on the stale agent's only.
        extent = system.store.stream(LATENCY_STREAM).extents[-1]
        assert not extent.adopted and len(extent.records) == added
        for row in extent.records:
            assert row.get("pinglist_stale", False) == (row["src"] == stale_id)
        assert sum(row["src"] == stale_id for row in extent.records) == by_src[stale_id].n


class TestShardedParity:
    def test_sharded_totals_match_per_agent_class_mode(self):
        """A class-mode fleet's sharded round and the same world's fast
        agents' own rounds launch identical probe counts (same pinglists —
        only who runs the round and how it draws differ)."""
        fleet = ShardedFleet(_system(seed=3))
        per_agent = _system(round_mode="fast", seed=3)
        per_agent.start()

        fleet_launched = fleet.run_round(0.0)
        agent_launched = sum(
            agent.run_probe_round(0.0) for agent in per_agent.agents.values()
        )
        assert fleet_launched == agent_launched > 0

    def test_class_summaries_reach_class_stream(self):
        system = _system()
        fleet = ShardedFleet(system)
        fleet.run_round(0.0)
        for shard in fleet.shards.values():
            shard.class_uploader.flush(600.0)
        records = list(system.store.read(CLASS_STREAM))
        assert records
        assert all(r["src"].startswith("shard:") for r in records)
        assert all(r["src_pod"] == -1 for r in records)


class TestShardedGrowth:
    def test_growth_adds_shards_and_probes(self):
        system = _system()
        fleet = ShardedFleet(system)
        fleet.run_for(60.0)
        shards_before = len(fleet.shards)
        probes_before = fleet.probes_sent
        system.add_podset(0)
        # New agents need a pinglist with the new peers; regenerate + the
        # next fleet round picks them up.
        fleet.run_for(120.0)
        assert len(fleet.shards) == shards_before + 1
        assert fleet.probes_sent > probes_before
        new_shard = fleet.shards[(0, shards_before)]
        assert new_shard.probes_sent > 0


class TestWorkerPool:
    def test_worker_pool_matches_serial_accounting(self):
        """Worker count must not change the probe ledger or the SNMP sums
        — a pooled round accounts on the main thread, in shard order."""
        totals = {}
        for workers in (0, 4):
            system = _system(seed=7)
            fleet = ShardedFleet(system, workers=workers)
            launched = fleet.run_round(0.0)
            totals[workers] = (
                launched,
                system.fabric.probes_carried,
                sum(
                    s.counters.packets_forwarded
                    for s in system.topology.dc(0).all_switches()
                ),
            )
        assert totals[0] == totals[4]

    def test_observed_pool_draws_off_the_main_thread(self, monkeypatch):
        """An attached round observer does not turn the pool off: the class
        draws run on worker threads that are gone once the round returns,
        and the observer sees exactly the serial fleet's probes."""
        draw_threads = []
        draw = sharded.execute_class_groups

        def recorded_draw(*args):
            draw_threads.append(threading.current_thread())
            return draw(*args)

        monkeypatch.setattr(sharded, "execute_class_groups", recorded_draw)
        serial_calls = _run_executor_script(0)[-1]
        assert not draw_threads
        pooled_calls = _run_executor_script(2)[-1]
        assert draw_threads
        assert threading.main_thread() not in draw_threads
        assert not any(thread.is_alive() for thread in draw_threads)
        assert pooled_calls == serial_calls and len(serial_calls) > 0

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 0"):
            ShardedFleet(_system(), workers=-1)

    def test_started_system_with_agent_rounds_rejected(self):
        """Fast-mode agents run their own rounds: no fleet may drive them
        as well, whether or not the system has started."""
        for started in (False, True):
            system = _system(round_mode="fast")
            if started:
                system.start()  # schedules per-agent rounds
            with pytest.raises(ValueError, match="drives class rounds"):
                ShardedFleet(system)
            assert system.fleet is None

    def test_class_system_without_a_fleet_refuses_to_start(self):
        """A class-mode system's agents schedule no rounds, so it must not
        run without the fleet that probes for them."""
        system = _system()
        for start in (system.start, lambda: system.run_for(60.0)):
            with pytest.raises(RuntimeError, match="ShardedFleet"):
                start()
        assert not system.agents
        fleet = ShardedFleet(system)
        assert system.fleet is fleet and system._started


def _fingerprint(system, fleet, observed):
    """Everything a round materializes, in comparable form: per-shard RNG
    end states, the probe ledger, every uploaded row (bit-for-bit —
    floats included — so any draw-sequence divergence shows up) and the
    probes the rounds reported, last."""
    import json

    for key in sorted(fleet.shards):
        shard = fleet.shards[key]
        shard.probe_uploader.flush(1e9)
        shard.class_uploader.flush(1e9)
    rows = {
        stream: sorted(
            json.dumps(row, sort_keys=True, default=str)
            for row in system.store.read(stream)
        )
        for stream in (LATENCY_STREAM, CLASS_STREAM)
        if system.store.has_stream(stream)
    }
    rng_states = {
        key: json.dumps(
            fleet.shards[key].rng.bit_generator.state, sort_keys=True, default=str
        )
        for key in sorted(fleet.shards)
    }
    switch_counters = [
        (s.device_id, s.counters.packets_forwarded, s.counters.silent_drops)
        for s in system.topology.dc(0).all_switches()
    ]
    return (
        fleet.probes_sent,
        system.fabric.probes_carried,
        system.fabric.probes_refused,
        rows,
        rng_states,
        switch_counters,
        observed,
    )


def _run_executor_script(workers, seed=11):
    """One fixed scenario — rounds, a mid-run fault, growth — with a
    recording round observer attached.  Same seed must mean the same
    fingerprint, whatever the worker count."""
    system = _system(seed=seed)
    observed = record_probe_calls(system.fabric)
    fleet = ShardedFleet(system, workers=workers)
    fleet.run_round(0.0)
    spine = system.topology.dc(0).spines[0]
    fault = system.fabric.faults.inject(
        SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.3)
    )
    fleet.run_round(30.0)
    system.fabric.faults.clear(fault)
    system.add_podset(0)
    fleet.run_round(60.0)
    fleet.run_round(90.0)
    return _fingerprint(system, fleet, observed)


class TestExecutorParity:
    """Serial and pooled rounds must be bit-identical under one seed — the
    contract that makes ``workers`` a pure deployment knob."""

    def test_serial_and_thread_bit_identical(self):
        assert _run_executor_script(0) == _run_executor_script(2)

    def test_probe_conservation_exact_per_executor(self):
        """launched == carried + refused, serial or pooled — the fabric
        ledger balances to the probe no matter who runs the draws."""
        for workers in (0, 2):
            system = _system(seed=5)
            fleet = ShardedFleet(system, workers=workers)
            before = (system.fabric.probes_carried, system.fabric.probes_refused)
            launched = fleet.run_round(0.0)
            assert launched > 0
            ledger = (system.fabric.probes_carried - before[0]) + (
                system.fabric.probes_refused - before[1]
            )
            assert ledger == launched, workers


# One 1k-server round healthy, then one under a ToR black-hole: each (src, t)
# round's probe calls, sorted (``calls_digest``).  Recorded at commit
# 07690b6, where class rounds reported every member to a per-probe observer.
PINNED_1K_ROUNDS = (
    "a50e5188a0270ae5fe1ea23aa3dccaf87dff434d0a363f17dc49524674e7d1e1",
    "312565213cf113718c18fd624e8e2ca5b6139581c9d601c117bbe1898ec7c864",
)


@pytest.mark.parametrize("workers", (0, 2))
def test_a_1k_fleet_round_reports_the_parents_calls(workers):
    from repro.netsim.scenarios import apply_scenario

    spec = TopologySpec(n_podsets=4, pods_per_podset=16, servers_per_pod=16)
    system = _system(spec=spec, seed=1, generator=GeneratorConfig(max_peers_per_server=32))
    calls = record_probe_calls(system.fabric)
    fleet = ShardedFleet(system, workers=workers)
    assert fleet.run_round(0.0) == len(calls) == 32_768
    healthy = calls_digest(calls)
    calls.clear()
    apply_scenario("tor-blackhole", system.fabric)
    assert fleet.run_round(10.0) == len(calls)
    assert (healthy, calls_digest(calls)) == PINNED_1K_ROUNDS


def test_a_healthy_class_window_is_not_a_power_loss():
    """Class rounds write no pod-pair rows, so a healthy class-mode window's
    heatmap is all white: no per-pair data, not a podset-down everywhere."""
    system = _system(dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0))
    ShardedFleet(system).run_for(600.0)
    patterns = system.database.query("patterns_10min")
    assert [row["t"] for row in patterns] == [300.0, 600.0]
    for row in patterns:
        assert (row["pattern"], row["affected_podsets"]) == ("unclassified", [])
        assert row["detail"] == "no per-pair data"


class TestScaleSmoke:
    def test_scale_smoke_1k_window(self):
        """Tier-1 smoke of the scale suite: 1024 servers, one simulated
        10-minute window through the sharded class driver."""
        spec = TopologySpec(
            n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8
        )
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(spec,),
                agent=AgentConfig(round_mode="class", upload_period_s=600.0),
                generator=GeneratorConfig(max_peers_per_server=32),
                stream=StreamConfig(shard_aggregation=True),
                dsa=DsaConfig(
                    ingestion_delay_s=0.0, near_real_time_period_s=300.0
                ),
            )
        )
        assert len(system.topology.dc(0).servers) == 1024
        fleet = ShardedFleet(system)
        # An on-demand broker rides the same fleet: one tenant burst must
        # complete inside the window without perturbing baseline rounds.
        from repro.broker import MeasurementBroker, RequestState, TenantQuota

        broker = MeasurementBroker(system)
        broker.register_tenant("smoke", TenantQuota(credits_per_window=500))
        dc = system.topology.dc(0)
        pairs = [
            (a.device_id, b.device_id)
            for a, b in zip(dc.servers_in_pod(0)[:8], dc.servers_in_pod(16)[:8])
        ]
        channel = broker.submit("smoke", pairs=pairs, probes_per_pair=2)
        fleet.run_for(600.0)
        assert fleet.rounds_run >= 1
        assert fleet.probes_sent > 0
        assert len(fleet.shards) == 4
        assert channel.state is RequestState.COMPLETED
        assert channel.probes_completed == channel.probes_admitted
        assert fleet.broker_probes_sent == broker.probes_launched
        assert broker.accounts["smoke"].conserved()
        # The stream plane folded shard deltas, conserved.
        ledger = system.stream.conservation()
        assert ledger["probes_folded"] == (
            ledger["probes_emitted"] + ledger["probes_pending"]
        )

    def test_silent_spine_round_on_1k_discards_nothing(self):
        """Paper §4.1 — the data from the bad minutes must be there.  One
        silent-spine round hands a shard nearly as many per-probe rows as
        its uploader's backstop holds; on top of what an earlier, smaller
        incident left below the flush threshold that is more than it holds,
        so the shard flushes mid-round instead of after it."""
        from repro.netsim.scenarios import apply_scenario

        spec = TopologySpec(
            n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8
        )
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(spec,),
                agent=AgentConfig(round_mode="class", upload_period_s=600.0),
                generator=GeneratorConfig(max_peers_per_server=64),
                stream=StreamConfig(shard_aggregation=True),
                dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            )
        )
        fleet = ShardedFleet(system)
        fleet.run_for(60.0)  # pinglists fetched, plans compiled
        uploaders = [shard.probe_uploader for shard in fleet.shards.values()]
        blackhole = apply_scenario("tor-blackhole", system.fabric)
        fleet.run_for(120.0)
        blackhole.revert()
        held = [uploader.buffered_records for uploader in uploaders]
        assert 0 < max(held) < uploaders[0].flush_threshold_records
        added = [uploader.stats.records_added for uploader in uploaders]
        apply_scenario("silent-spine", system.fabric)
        fleet.run_for(60.0)
        for uploader in uploaders:
            stats = uploader.stats
            assert stats.records_discarded == 0
            assert stats.records_added == (
                stats.records_uploaded
                + uploader.buffered_records
                + uploader.spooled_records
            )
        assert any(
            rows + uploader.stats.records_added - before > uploader.max_buffer_records
            for uploader, rows, before in zip(uploaders, held, added)
        )
