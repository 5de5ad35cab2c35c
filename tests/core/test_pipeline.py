"""Tests for the DSA pipeline cadences and wiring."""

from unittest import mock

import pytest

from repro.core.dsa.database import ResultsDatabase
from repro.core.dsa.pipeline import DsaConfig, DsaPipeline
from repro.core.dsa.records import LATENCY_STREAM
from repro.cosmos.columnar import ColumnBlock
from repro.cosmos.jobs import JobManager
from repro.cosmos.store import CosmosStore
from repro.netsim.simclock import EventQueue, SimClock
from repro.netsim.topology import MultiDCTopology, TopologySpec


def _record(t, src_pod=0, dst_pod=1, rtt_us=250.0, success=True):
    return {
        "t": t,
        "src": f"dc0/s{src_pod}",
        "dst": f"dc0/d{dst_pod}",
        "src_dc": 0,
        "dst_dc": 0,
        "src_podset": src_pod // 4,
        "dst_podset": dst_pod // 4,
        "src_pod": src_pod,
        "dst_pod": dst_pod,
        "success": success,
        "rtt_us": rtt_us,
        "syn_drops": 0,
        "purpose": "tor-level",
        "qos": "high",
    }


@pytest.fixture()
def world():
    clock = SimClock()
    queue = EventQueue(clock)
    store = CosmosStore()
    db = ResultsDatabase()
    topology = MultiDCTopology.single(TopologySpec())
    pipeline = DsaPipeline(
        store=store,
        database=db,
        job_manager=JobManager(queue),
        topology=topology,
        config=DsaConfig(ingestion_delay_s=0.0),
    )
    pipeline.register_jobs()
    return clock, queue, store, db, pipeline


def _seed_records(store, until_t, every=60.0):
    records = []
    t = 0.0
    while t < until_t:
        for src_pod in range(8):
            for dst_pod in range(8):
                records.append(_record(t, src_pod, dst_pod))
        t += every
    store.append(LATENCY_STREAM, records, t=until_t)


class TestCadences:
    def test_jobs_registered(self, world):
        _clock, _queue, _store, _db, pipeline = world
        assert pipeline.job_manager.jobs() == ["dsa-10min", "dsa-1day", "dsa-1hour"]

    def test_ten_minute_job_produces_podpair_rows(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 64
        assert db.row_count("patterns_10min") == 1

    def test_hourly_job_produces_slas(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        queue.run_for(3600.0)
        rows = db.query("sla_hourly")
        assert rows
        scopes = {row["scope"] for row in rows}
        assert "datacenter" in scopes and "server" in scopes

    def test_daily_job_produces_drop_table(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(86_400.0)
        rows = db.query("drop_daily")
        assert len(rows) == 1  # first daily window [0, 86400) has the data
        assert rows[0]["intra_pod_probes"] > 0
        assert db.query("blackhole_daily")  # the daily detector also ran

    def test_ingestion_delay_shifts_window(self):
        clock = SimClock()
        queue = EventQueue(clock)
        store = CosmosStore()
        db = ResultsDatabase()
        pipeline = DsaPipeline(
            store=store,
            database=db,
            job_manager=JobManager(queue),
            topology=MultiDCTopology.single(TopologySpec()),
            config=DsaConfig(ingestion_delay_s=600.0),
        )
        pipeline.register_jobs()
        # Records only exist in [0, 600); with a 600 s delay the job at
        # t=1200 processes exactly [0, 600).
        store.append(
            LATENCY_STREAM, [_record(float(t)) for t in range(0, 600, 10)], t=600.0
        )
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 0  # window [−600, 0) empty
        queue.run_for(600.0)
        assert db.row_count("podpair_10min") == 1

    def test_near_real_time_latency_about_20_minutes(self):
        """§3.5: generation → consumption ≈ 20 min for the 10-min jobs."""
        config = DsaConfig(ingestion_delay_s=600.0)
        # A record generated just after a window opens waits period+delay.
        worst_case = config.near_real_time_period_s + config.ingestion_delay_s
        assert worst_case == pytest.approx(1200.0)  # 20 minutes


class TestPatternsAndQueries:
    def test_normal_pattern_recorded(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        queue.run_for(600.0)
        pattern = db.latest("patterns_10min")
        assert pattern["pattern"] == "normal"

    def test_latest_heatmap_on_demand(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        clock.advance_to(600.0)
        heatmap = pipeline.latest_heatmap(0, t=600.0)
        assert heatmap.n_pods == 8


class TestSingleExtraction:
    def test_10min_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        before = store.read_count
        pipeline.run_10min_job(600.0)
        # One EXTRACT shared by podpair job, heatmaps, SLA and silent-drop.
        assert store.read_count == before + 1

    def test_hourly_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        before = store.read_count
        pipeline.run_hourly_job(3600.0)
        assert store.read_count == before + 1

    def test_daily_tick_scans_store_once(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        before = store.read_count
        pipeline.run_daily_job(86_400.0)
        assert store.read_count == before + 1

    def test_coinciding_ticks_share_no_window(self, world):
        # 10-min and hourly windows differ, but each is extracted once even
        # when both cadences fire back to back at the same t.
        clock, queue, store, db, pipeline = world
        _seed_records(store, 3600.0)
        before = store.read_count
        pipeline.run_10min_job(3600.0)
        pipeline.run_hourly_job(3600.0)
        assert store.read_count == before + 2
        # Re-running an identical window hits the cache: no extra scan.
        pipeline.run_10min_job(3600.0)
        assert store.read_count == before + 2

    def test_cache_keeps_the_newest_tick_only(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 1200.0)
        before = store.read_count
        pipeline.run_10min_job(600.0)
        pipeline.run_10min_job(1200.0)
        pipeline.run_10min_job(600.0)  # its window went with the newer tick
        assert store.read_count == before + 3

    def test_append_invalidates_window_cache(self, world):
        clock, queue, store, db, pipeline = world
        _seed_records(store, 600.0)
        pipeline.run_10min_job(600.0)
        before = store.read_count
        store.append(LATENCY_STREAM, [_record(599.0)], t=600.0)
        pipeline.run_10min_job(600.0)
        assert store.read_count == before + 1  # fresh data, fresh extract


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            DsaConfig(ingestion_delay_s=-1.0)
        with pytest.raises(ValueError):
            DsaConfig(hourly_period_s=0)


class TestJobsReadTheWindowInPlace:
    """Work meter: what the hourly and daily jobs turn into row dicts is
    their *results* — SLAs, DC drop rates, probed pairs — never the window.
    (Both used to ``output()`` the whole window, two dicts per probe.)"""

    SPEC = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)

    def _tick(self, rounds: int) -> dict:
        from repro.core.agent.agent import AgentConfig
        from repro.core.system import PingmeshSystem, PingmeshSystemConfig

        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(self.SPEC,),
                seed=3,
                agent=AgentConfig(round_mode="fast"),
                dsa=DsaConfig(ingestion_delay_s=0.0),
            )
        )
        system.start()
        system.run_for(rounds * 60.0 - 1.0)
        now = system.clock.now
        for agent in system.agents.values():
            agent.uploader.flush(now, force=True)

        materialized = []
        real = ColumnBlock.to_rows

        def metered(block):
            rows = real(block)
            materialized.append(len(rows))
            return rows

        with mock.patch.object(ColumnBlock, "to_rows", metered):
            sla_rows = system.dsa.run_hourly_job(now)
            system.dsa.run_daily_job(now)
        window = system.store.stream(LATENCY_STREAM)
        pairs = {
            (row["src"], row["dst"]) for row in system.store.read(LATENCY_STREAM)
        }
        return {
            "materialized": sum(materialized),
            "window_rows": window.record_count,
            "pairs": len(pairs),
            "sla_keys": len(sla_rows),
            "adopted": all(extent.adopted for extent in window.extents),
            "database": system.database,
        }

    def test_rows_materialized_are_the_aggregates_outputs(self):
        short, long = self._tick(rounds=5), self._tick(rounds=20)
        assert short["adopted"] and long["adopted"]
        assert long["window_rows"] > 3.9 * short["window_rows"] > 100_000
        # Four times the window, the same pairs and keys: the same rows made.
        assert (long["pairs"], long["sla_keys"]) == (short["pairs"], short["sla_keys"])
        assert long["materialized"] == short["materialized"]
        # Per SLA key: one row of counts, one of percentiles; per DC: an
        # intra-pod and an inter-pod drop rate; per probed pair: one row.
        n_dcs = 1
        assert long["materialized"] <= long["pairs"] + 2 * long["sla_keys"] + 2 * n_dcs
        assert long["materialized"] < long["window_rows"] / 10
        for tick in (short, long):
            for table in ("sla_hourly", "drop_daily", "blackhole_daily"):
                assert tick["database"].query(table), table
