"""Tests for the assembled StreamPlane (aggregators + VIP + detectors)."""

import pytest

from repro.core.dsa.alerts import AlertEngine
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.stream.plane import StreamConfig, StreamPlane


def _plane(**config_kwargs):
    topology = MultiDCTopology.single(
        TopologySpec(n_podsets=1, pods_per_podset=2, servers_per_pod=2)
    )
    config = StreamConfig(**config_kwargs)
    return StreamPlane(config, AlertEngine(), topology), topology


class TestConfig:
    def test_defaults_are_valid(self):
        config = StreamConfig()
        assert config.enabled
        assert config.window_s == 10.0
        assert config.relative_accuracy == 0.01

    def test_validation(self):
        for bad in (
            {"window_s": 0.0},
            {"relative_accuracy": 0.0},
            {"relative_accuracy": 1.0},
            {"retention_windows": 1},
            {"n_ingest_replicas": 0},
        ):
            with pytest.raises(ValueError):
                StreamConfig(**bad)


class TestAggregatorWiring:
    def test_aggregator_for_is_memoized_with_coordinates(self):
        plane, topology = _plane()
        server = topology.dc(0).servers[-1]
        aggregator = plane.pair_aggregator_for(server.device_id)
        assert aggregator is plane.pair_aggregator_for(server.device_id)
        assert aggregator.dc == server.dc_index
        assert aggregator.podset == server.podset_index
        assert aggregator.pod == server.pod_index


class TestDelivery:
    def _observe(self, plane, topology, t, n=25):
        server = topology.dc(0).servers[0]
        aggregator = plane.pair_aggregator_for(server.device_id)
        for _ in range(n):
            aggregator.observe(t, "tor-level", True, 250.0)

    def test_tick_delivers_and_conserves(self):
        plane, topology = _plane()
        self._observe(plane, topology, t=5.0)
        plane.tick(10.0)
        assert plane.deltas_delivered == 1
        assert plane.deltas_dropped == 0
        ledger = plane.conservation()
        assert ledger["probes_folded"] == 25
        assert (
            ledger["probes_folded"]
            == ledger["probes_emitted"] + ledger["probes_pending"]
        )
        assert ledger["probes_emitted"] == (
            ledger["probes_ingested"]
            + ledger["probes_dropped"]
            + ledger["probes_rejected"]
        )

    def test_dark_vip_fails_closed(self):
        plane, topology = _plane()
        plane.fail_ingest_replica()
        assert plane.vip_dark
        self._observe(plane, topology, t=5.0)
        plane.tick(10.0)
        assert plane.deltas_delivered == 0
        assert plane.deltas_dropped == 1
        assert plane.probes_dropped == 25
        # Dropped, not buffered: the ledger still balances exactly.
        ledger = plane.conservation()
        assert ledger["probes_emitted"] == 25
        assert ledger["probes_ingested"] == 0
        assert ledger["probes_dropped"] == 25

    def test_single_replica_failure_keeps_the_vip_up(self):
        plane, topology = _plane(n_ingest_replicas=2)
        plane.fail_ingest_replica("stream-ingest.vip/dip0")
        assert not plane.vip_dark
        self._observe(plane, topology, t=5.0)
        plane.tick(10.0)
        assert plane.deltas_delivered == 1

    def test_recovery_resumes_delivery(self):
        plane, topology = _plane()
        plane.fail_ingest_replica()
        self._observe(plane, topology, t=5.0)
        plane.tick(10.0)
        plane.recover_ingest_replica()
        assert not plane.vip_dark
        self._observe(plane, topology, t=15.0)
        plane.tick(20.0)
        assert plane.deltas_delivered == 1
        assert plane.deltas_dropped == 1

    def test_detectors_run_on_tick(self):
        plane, topology = _plane(eval_windows=1)
        server = topology.dc(0).servers[0]
        aggregator = plane.pair_aggregator_for(server.device_id)
        for _ in range(30):
            aggregator.observe(5.0, "tor-level", True, 250.0)
        for _ in range(5):
            aggregator.observe(5.0, "tor-level", False, 0.0)
        fired = plane.tick(10.0)
        assert [a.metric for a in fired] == ["failure_rate"]
        assert plane.alert_engine.active_episodes

    def test_memory_buckets_spans_agents_and_ingest(self):
        plane, topology = _plane()
        self._observe(plane, topology, t=5.0)
        open_side = plane.memory_buckets
        assert open_side > 0
        plane.tick(10.0)
        assert plane.ingest.memory_buckets > 0
        assert plane.memory_buckets > 0
