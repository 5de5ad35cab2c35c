"""Tests for the Pingmesh Agent (§3.4)."""

import pytest

from repro.autopilot.shared_service import ResourceBudgetExceeded
from repro.core.agent.agent import BASE_MEMORY_MB, AgentConfig, PingmeshAgent
from repro.core.agent.uploader import ResultUploader
from repro.core.controller.generator import GeneratorConfig
from repro.core.controller.service import PingmeshControllerService
from repro.cosmos.store import CosmosStore
from repro.netsim.fabric import Fabric
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def world():
    fabric = Fabric.single_dc(TopologySpec(), seed=3)
    controller = PingmeshControllerService(fabric.topology, n_replicas=2)
    controller.regenerate()
    store = CosmosStore()
    return fabric, controller, store


def _agent(world, server_index=0, config=None, **uploader_kwargs):
    fabric, controller, store = world
    server_id = fabric.topology.dc(0).servers[server_index].device_id
    uploader = ResultUploader(store, server_id, **uploader_kwargs)
    agent = PingmeshAgent(server_id, fabric, controller, uploader, config=config)
    agent.start(now=0.0)
    return agent


class TestPinglistHandling:
    def test_refresh_downloads_pinglist(self, world):
        agent = _agent(world)
        assert agent.refresh_pinglist(t=0.0)
        assert agent.probing
        assert len(agent.pinglist) > 0

    def test_probe_interval_clamped(self, world):
        fabric, controller, store = world
        controller.generator.config = GeneratorConfig(probe_interval_s=1.0)
        controller.regenerate()
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        assert agent.probe_interval_s == 10.0  # hard floor

    def test_three_controller_failures_fall_closed(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        for replica in list(controller.replicas):
            controller.fail_replica(replica)
        for _ in range(3):
            assert agent.refresh_pinglist(t=0.0) is False
        assert agent.safety.fail_closed
        assert agent.pinglist is None  # peers removed
        assert not agent.probing

    def test_two_failures_keep_old_pinglist(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        for replica in list(controller.replicas):
            controller.fail_replica(replica)
        agent.refresh_pinglist(t=0.0)
        agent.refresh_pinglist(t=0.0)
        assert agent.probing  # still using the stale pinglist

    def test_kill_switch_stops_probing_immediately(self, world):
        """Removing the pinglist files stops the fleet (§3.4.2)."""
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        controller.remove_all_pinglists()
        agent.refresh_pinglist(t=0.0)
        assert agent.safety.fail_closed
        assert not agent.probing
        assert agent.run_probe_round(t=10.0) == 0

    def test_recovery_after_fail_closed(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        controller.remove_all_pinglists()
        agent.refresh_pinglist(t=0.0)
        controller.regenerate()
        assert agent.refresh_pinglist(t=100.0)
        assert agent.probing


class TestProbing:
    def test_round_probes_every_peer(self, world):
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        launched = agent.run_probe_round(t=10.0)
        assert launched == len(agent.pinglist)
        assert agent.probes_sent == launched
        assert agent.uploader.buffered_records == launched

    def test_records_carry_topology_coordinates(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        agent.uploader.flush(t=20.0)
        record = next(store.read("pingmesh/latency"))
        assert {"src_pod", "dst_pod", "src_podset", "purpose", "rtt_us"} <= set(record)

    def test_counters_track_probes(self, world):
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        snapshot = agent.counters.snapshot()
        assert snapshot["probes_total"] == agent.probes_sent
        assert snapshot["latency_p50_us"] > 0

    def test_no_round_without_pinglist(self, world):
        agent = _agent(world)
        assert agent.run_probe_round(t=0.0) == 0

    def test_vip_entries_skipped_without_resolver(self, world):
        fabric, controller, store = world
        controller.generator.config = GeneratorConfig(vip_targets=("search.vip",))
        controller.regenerate()
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        launched = agent.run_probe_round(t=10.0)
        assert launched == len(agent.pinglist) - 1

    def test_vip_entries_probed_with_resolver(self, world):
        fabric, controller, store = world
        controller.generator.config = GeneratorConfig(vip_targets=("search.vip",))
        controller.regenerate()
        dip = fabric.topology.dc(0).servers[10].device_id
        server_id = fabric.topology.dc(0).servers[0].device_id
        uploader = ResultUploader(store, server_id)
        agent = PingmeshAgent(
            server_id,
            fabric,
            controller,
            uploader,
            vip_resolver=lambda vip: dip,
        )
        agent.start(now=0.0)
        agent.refresh_pinglist(t=0.0)
        assert agent.run_probe_round(t=10.0) == len(agent.pinglist)


class TestUploadCycle:
    def test_timer_triggers_upload(self, world):
        fabric, controller, store = world
        agent = _agent(world, config=AgentConfig(upload_period_s=600.0))
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        assert agent.maybe_upload(t=10.0) is False  # timer not due
        assert agent.maybe_upload(t=700.0) is True
        assert store.stream("pingmesh/latency").record_count > 0

    def test_threshold_triggers_upload_early(self, world):
        agent = _agent(
            world,
            config=AgentConfig(upload_period_s=1e9),
            flush_threshold_records=5,
        )
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)  # >5 peers in the default topology
        assert agent.maybe_upload(t=10.0) is True

    def test_upload_resets_counter_window(self, world):
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        agent.maybe_upload(t=700.0)
        assert agent.counters.probes == 0


class TestResourceEnvelope:
    def test_cpu_and_memory_accounted(self, world):
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        assert agent.usage.cpu_seconds > 0
        assert agent.usage.memory_mb >= BASE_MEMORY_MB

    def test_memory_cap_kills_agent(self, world):
        agent = _agent(world, log_cap_bytes=50_000_000)
        agent.memory_cap_mb = BASE_MEMORY_MB + 0.01
        agent.refresh_pinglist(t=0.0)
        with pytest.raises(ResourceBudgetExceeded):
            for round_index in range(100):
                agent.run_probe_round(t=10.0 * round_index)
        assert not agent.running
        assert "memory cap exceeded" in agent.terminated_reason

    def test_perf_counters_include_pingmesh_metrics(self, world):
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        counters = agent.perf_counters(now=100.0)
        assert "packet_drop_rate" in counters
        assert "latency_p99_us" in counters
        assert counters["peer_count"] == len(agent.pinglist)
        assert counters["fail_closed"] == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(pinglist_refresh_s=0)
        with pytest.raises(ValueError):
            AgentConfig(upload_period_s=-1)


class TestConditionalRefresh:
    def test_304_keeps_pinglist_and_counts_success(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        first = agent.pinglist
        assert agent.refresh_pinglist(t=100.0)  # 304 path
        assert agent.pinglist is first  # same object: nothing re-parsed
        assert agent.safety.consecutive_failures == 0

    def test_regeneration_is_picked_up(self, world):
        fabric, controller, store = world
        agent = _agent(world)
        agent.refresh_pinglist(t=0.0)
        old_generation = agent.pinglist.generation
        controller.regenerate()
        agent.refresh_pinglist(t=100.0)
        assert agent.pinglist.generation == old_generation + 1


class TestUploadFailurePath:
    """maybe_upload must propagate the flush outcome, not assume success."""

    def test_failed_upload_reports_false_and_spools(self, world):
        fabric, controller, store = world
        agent = _agent(world, config=AgentConfig(upload_period_s=600.0))

        def refuse(records, t):
            raise ConnectionError("cosmos dark")

        agent.uploader.set_upload_fn(refuse)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        assert agent.maybe_upload(t=700.0) is False
        assert not store.has_stream("pingmesh/latency")
        # First failure spools (retry-over-time), nothing is discarded yet.
        assert agent.uploader.spooled_records > 0
        assert agent.uploader.stats.records_discarded == 0
        # The failure is published through the PA counter surface (§2.3).
        counters = agent.perf_counters(now=700.0)
        assert counters["upload_records_spooled"] > 0
        assert counters["upload_failures"] > 0

    def test_recovering_store_replays_without_duplicates(self, world):
        fabric, controller, store = world
        agent = _agent(world, config=AgentConfig(upload_period_s=600.0))

        def refuse(records, t):
            raise ConnectionError("cosmos dark")

        agent.uploader.set_upload_fn(refuse)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        first_round_records = agent.uploader.buffered_records
        assert agent.maybe_upload(t=700.0) is False

        # Cosmos comes back; the spooled round replays exactly once
        # alongside the new round's data — no loss, no duplicates.
        agent.uploader.set_upload_fn(None)
        agent.run_probe_round(t=710.0)
        assert agent.maybe_upload(t=1400.0) is True
        landed = store.stream("pingmesh/latency").record_count
        assert landed == agent.uploader.stats.records_uploaded
        assert landed == agent.uploader.stats.records_added
        assert agent.uploader.stats.records_replayed == first_round_records
        assert agent.uploader.spooled_records == 0
        assert agent.uploader.stats.records_discarded == 0

    def test_failed_upload_still_resets_the_window(self, world):
        agent = _agent(world, config=AgentConfig(upload_period_s=600.0))

        def refuse(records, t):
            raise ConnectionError("cosmos dark")

        agent.uploader.set_upload_fn(refuse)
        agent.refresh_pinglist(t=0.0)
        agent.run_probe_round(t=10.0)
        agent.maybe_upload(t=700.0)
        # The counters window rolled over even though the flush failed:
        # the next window's snapshot starts clean rather than replaying
        # the lost window into a later (recovered) upload.
        assert agent.counters.probes == 0
        assert agent.last_upload_t == 700.0
