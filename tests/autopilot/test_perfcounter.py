"""Tests for the Perfcounter Aggregator."""

import gc
import tracemalloc

import pytest

from repro.autopilot.perfcounter import PerfcounterAggregator
from repro.netsim.simclock import EventQueue, SimClock


@pytest.fixture()
def queue():
    return EventQueue(SimClock())


def _static_producer(values):
    return lambda t: dict(values)


class TestCollection:
    def test_collects_every_period(self, queue):
        pa = PerfcounterAggregator(queue, collection_period_s=300.0)
        pa.register_producer("srv0", _static_producer({"p99_us": 500.0}))
        pa.start()
        queue.run_for(1500.0)
        series = pa.series("srv0", "p99_us")
        assert [s.t for s in series] == [300.0, 600.0, 900.0, 1200.0, 1500.0]
        assert pa.collections_run == 5

    def test_five_minute_default_matches_paper(self, queue):
        assert PerfcounterAggregator(queue).collection_period_s == 300.0

    def test_latest(self, queue):
        pa = PerfcounterAggregator(queue, collection_period_s=100.0)
        ticker = {"n": 0}

        def producer(t):
            ticker["n"] += 1
            return {"count": float(ticker["n"])}

        pa.register_producer("srv0", producer)
        pa.start()
        queue.run_for(300.0)
        assert pa.latest("srv0", "count").value == 3.0
        assert pa.latest("srv0", "missing") is None

    def test_broken_producer_does_not_stop_collection(self, queue):
        pa = PerfcounterAggregator(queue, collection_period_s=100.0)

        def broken(t):
            raise RuntimeError("producer crashed")

        pa.register_producer("bad", broken)
        pa.register_producer("good", _static_producer({"x": 1.0}))
        pa.start()
        queue.run_for(200.0)
        assert len(pa.series("good", "x")) == 2
        assert pa.series("bad", "x") == []

    def test_double_start_rejected(self, queue):
        pa = PerfcounterAggregator(queue)
        pa.start()
        with pytest.raises(RuntimeError):
            pa.start()

    def test_invalid_period_rejected(self, queue):
        with pytest.raises(ValueError):
            PerfcounterAggregator(queue, collection_period_s=0)



class TestCollectionErrorAccounting:
    """A swallowed producer exception must leave a visible trace."""

    def test_broken_producer_increments_collection_errors(self, queue):
        pa = PerfcounterAggregator(queue, collection_period_s=100.0)

        def broken(t):
            raise RuntimeError("producer crashed")

        pa.register_producer("bad", broken)
        pa.register_producer("good", _static_producer({"x": 1.0}))
        pa.start()
        queue.run_for(300.0)
        assert pa.collections_run == 3
        assert pa.collection_errors == 3
        assert "bad" in pa.last_collection_error
        assert "producer crashed" in pa.last_collection_error

    def test_healthy_sweeps_record_no_errors(self, queue):
        pa = PerfcounterAggregator(queue, collection_period_s=100.0)
        pa.register_producer("good", _static_producer({"x": 1.0}))
        pa.start()
        queue.run_for(300.0)
        assert pa.collection_errors == 0
        assert pa.last_collection_error is None


class TestPackedRingParity:
    """The packed, bounded store answers every query as a dict-of-lists
    oracle over the retained sweeps does."""

    RETENTION = 3

    def _run_script(self, queue):
        """Seven sweeps over four producers that do everything awkward:
        change layout between sweeps and raise."""
        pa = PerfcounterAggregator(
            queue, collection_period_s=100.0, retention_sweeps=self.RETENTION
        )
        reported: list[tuple[float, str, dict]] = []  # what producers returned

        def producer(server_id, index):
            def produce(t):
                sweep = int(t // 100)
                if server_id == "flaky" and sweep % 3 == 0:
                    raise RuntimeError("counter source unavailable")
                counters = {"probes": float(sweep * 10 + index), "drop_rate": index / 8}
                if (sweep + index) % 2:  # empty window: no latency percentiles
                    counters["p99_us"] = 100.0 * sweep + index
                reported.append((t, server_id, counters))
                return counters

            return produce

        servers = ["srv0", "flaky", "srv2", "srv3"]
        for index, server_id in enumerate(servers):
            pa.register_producer(server_id, producer(server_id, index))
        pa.start()
        queue.run_for(700.0)
        assert pa.collections_run == 7
        return pa, servers, reported

    def _oracle(self, reported):
        kept = sorted({t for t, _sid, _counters in reported})[-self.RETENTION:]
        series: dict[tuple[str, str], list[tuple[float, float]]] = {}
        for t, server_id, counters in reported:
            if t in kept:
                for counter, value in counters.items():
                    series.setdefault((server_id, counter), []).append((t, value))
        return series

    def test_series_and_latest_match_oracle(self, queue):
        pa, servers, reported = self._run_script(queue)
        oracle = self._oracle(reported)
        for server_id in servers + ["never-registered"]:
            for counter in ("probes", "drop_rate", "p99_us", "missing"):
                expected = oracle.get((server_id, counter), [])
                got = pa.series(server_id, counter)
                assert [(s.t, s.value) for s in got] == expected
                assert all(
                    (s.server_id, s.counter) == (server_id, counter) for s in got
                )
                latest = pa.latest(server_id, counter)
                assert (latest and (latest.t, latest.value)) == (
                    expected[-1] if expected else None
                )

    def test_ring_evicts_oldest_sweep(self, queue):
        pa, _servers, _reported = self._run_script(queue)
        assert [s.t for s in pa.series("srv0", "probes")] == [500.0, 600.0, 700.0]

    def test_errors_are_accounted_per_failed_producer_call(self, queue):
        pa, _servers, _reported = self._run_script(queue)
        assert pa.collection_errors == 2  # sweeps 3 and 6
        assert "flaky" in pa.last_collection_error

    def test_invalid_retention_rejected(self, queue):
        with pytest.raises(ValueError):
            PerfcounterAggregator(queue, retention_sweeps=0)


def test_history_memory_is_flat_once_the_ring_is_full(queue):
    """50 sweeps x 512 producers x 25 counters: after the default ring of
    12 sweeps fills, further sweeps must not grow the heap (the unbounded
    per-sample lists this replaces grew ~1.3 MB per sweep here)."""
    pa = PerfcounterAggregator(queue, collection_period_s=100.0)
    names = [f"counter_{k}" for k in range(25)]
    for i in range(512):
        pa.register_producer(
            f"srv{i}", lambda t, i=i: {name: t + i + k for k, name in enumerate(names)}
        )
    pa.start()
    tracemalloc.start()
    try:
        queue.run_for(100.0 * 20)
        gc.collect()
        filled = tracemalloc.get_traced_memory()[0]
        queue.run_for(100.0 * 30)
        gc.collect()
        later = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert pa.collections_run == 50
    assert len(pa.series("srv7", names[3])) == 12
    one_sweep = 512 * 25 * 8
    assert later - filled < one_sweep // 4
