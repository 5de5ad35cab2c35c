"""Tests for the bounded-memory result uploader (spool-and-replay)."""

import pytest

from repro.core.agent.uploader import ResultUploader
from repro.cosmos.store import CosmosStore


@pytest.fixture()
def store():
    return CosmosStore()


def _record(i=0):
    return {"t": float(i), "src": "a", "dst": "b", "rtt_us": 250.0, "success": True}


def _fast_retry(store, **kwargs):
    """An uploader whose backoff windows are tiny relative to the test's
    flush spacing, so each spaced flush really attempts the transport."""
    kwargs.setdefault("retry_base_s", 1.0)
    kwargs.setdefault("retry_cap_s", 2.0)
    return ResultUploader(store, "srv0", **kwargs)


class TestBuffering:
    def test_add_and_flush_to_store(self, store):
        uploader = ResultUploader(store, "srv0")
        for i in range(5):
            uploader.add(_record(i))
        assert uploader.buffered_records == 5
        assert uploader.flush(t=100.0)
        assert uploader.buffered_records == 0
        assert store.stream("pingmesh/latency").record_count == 5
        assert uploader.stats.records_uploaded == 5

    def test_threshold_trigger(self, store):
        uploader = ResultUploader(store, "srv0", flush_threshold_records=3)
        uploader.add(_record())
        assert not uploader.should_flush
        uploader.add(_record())
        uploader.add(_record())
        assert uploader.should_flush

    def test_buffer_hard_cap_drops_oldest(self, store):
        uploader = ResultUploader(
            store, "srv0", flush_threshold_records=2, max_buffer_records=10
        )
        for i in range(15):
            uploader.add(_record(i))
        assert uploader.buffered_records == 10
        assert uploader.stats.records_discarded == 5

    def test_empty_flush_is_success(self, store):
        uploader = ResultUploader(store, "srv0")
        assert uploader.flush(t=0.0)

    def test_construction_validation(self, store):
        with pytest.raises(ValueError):
            ResultUploader(store, "srv0", flush_threshold_records=0)
        with pytest.raises(ValueError):
            ResultUploader(
                store, "srv0", flush_threshold_records=10, max_buffer_records=5
            )
        with pytest.raises(ValueError):
            ResultUploader(store, "srv0", log_cap_bytes=10)

    def test_an_uploader_that_never_failed_holds_no_retry_state(self, store):
        uploader = ResultUploader(store, "srv0")
        for t in (100.0, 200.0):
            uploader.add(_record())
            assert uploader.flush(t=t)
        assert "_rng" not in vars(uploader.retry)
        assert "draws" not in vars(uploader.retry)
        assert uploader.spool._batches is None


class TestRetryAndDiscard:
    def test_one_failed_attempt_per_flush_tick(self, store):
        """Regression pin: a failing transport consumes exactly ONE of the
        batch's attempts per flush call — never the whole ``max_retries``
        budget in one tick with zero elapsed time."""
        attempts = []

        def failing_upload(records, t):
            attempts.append(t)
            raise ConnectionError("cosmos VIP unreachable")

        uploader = _fast_retry(store, max_retries=3, upload_fn=failing_upload)
        uploader.add(_record(0))
        assert uploader.flush(t=0.0) is False
        assert attempts == [0.0]  # one attempt, not three
        assert uploader.stats.records_discarded == 0  # spooled, not dropped
        assert uploader.spooled_records == 1

    def test_backoff_gates_the_next_attempt(self, store):
        attempts = []

        def failing_upload(records, t):
            attempts.append(t)
            raise ConnectionError("down")

        uploader = ResultUploader(
            store, "srv0", retry_base_s=100.0, retry_cap_s=200.0,
            upload_fn=failing_upload,
        )
        uploader.add(_record(0))
        uploader.flush(t=0.0)
        # Inside the backoff window: no transport attempt is made.
        assert uploader.flush(t=1.0) is False
        assert attempts == [0.0]
        # force bypasses the gate.
        uploader.flush(t=2.0, force=True)
        assert attempts == [0.0, 2.0]

    def test_retry_then_discard(self, store):
        """'it will retry several times.  After that it will stop trying
        and discard the in-memory data' — with the retries spread over
        time, one per flush tick."""
        attempts = []

        def failing_upload(records, t):
            attempts.append(len(records))
            raise ConnectionError("cosmos VIP unreachable")

        uploader = _fast_retry(store, max_retries=3, upload_fn=failing_upload)
        for i in range(4):
            uploader.add(_record(i))
        assert uploader.flush(t=0.0) is False
        assert uploader.flush(t=10.0) is False
        assert uploader.flush(t=20.0) is False
        assert attempts == [4, 4, 4]
        assert uploader.buffered_records == 0
        assert uploader.spooled_records == 0  # discarded after the 3rd miss
        assert uploader.stats.records_discarded == 4
        assert uploader.stats.upload_failures == 3

    def test_transient_failure_recovers_within_retries(self, store):
        calls = {"n": 0}

        def flaky_upload(records, t):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("flaky")
            store.append("pingmesh/latency", records, t=t)

        uploader = _fast_retry(store, upload_fn=flaky_upload)
        uploader.add(_record())
        assert uploader.flush(t=0.0) is False  # attempt 1: spooled
        assert uploader.flush(t=10.0) is False  # attempt 2: still spooled
        assert uploader.flush(t=20.0) is True  # attempt 3: replayed
        assert store.stream("pingmesh/latency").record_count == 1
        assert uploader.stats.records_replayed == 1
        assert uploader.stats.records_discarded == 0

    def test_memory_stays_bounded_under_permanent_failure(self, store):
        def failing_upload(records, t):
            raise ConnectionError("down")

        uploader = _fast_retry(
            store,
            flush_threshold_records=10,
            max_buffer_records=20,
            spool_cap_records=50,
            upload_fn=failing_upload,
        )
        for i in range(500):
            uploader.add(_record(i))
            if uploader.should_flush:
                uploader.flush(t=float(i))
        assert uploader.buffered_records <= 20
        assert uploader.spooled_records <= 50


class TestSpoolReplay:
    def test_blackout_then_heal_replays_without_duplicates(self, store):
        uploader = _fast_retry(store)

        def refuse(records, t):
            raise ConnectionError("blackout")

        uploader.set_upload_fn(refuse)
        for i in range(6):
            uploader.add(_record(i))
        uploader.flush(t=0.0)
        uploader.add(_record(6))
        uploader.flush(t=10.0)
        assert uploader.spooled_records == 7
        assert not store.has_stream("pingmesh/latency")

        uploader.set_upload_fn(None)  # Cosmos heals
        uploader.add(_record(7))
        # One flush drains the whole backlog (successes chain), oldest first.
        assert uploader.flush(t=20.0) is True
        assert uploader.spooled_records == 0
        assert store.stream("pingmesh/latency").record_count == 8
        assert uploader.stats.records_replayed == 7
        assert uploader.stats.records_uploaded == 8
        # No duplicates: every stored record is distinct.
        rows = list(store.read("pingmesh/latency"))
        assert len({row["t"] for row in rows}) == 8

    def test_spool_evicts_oldest_on_overflow(self, store):
        def refuse(records, t):
            raise ConnectionError("down")

        uploader = _fast_retry(store, spool_cap_records=5, upload_fn=refuse)
        for i in range(3):
            uploader.add(_record(i))
        uploader.flush(t=0.0)
        for i in range(3, 7):
            uploader.add(_record(i))
        uploader.flush(t=10.0)
        # Cap 5: the first batch (3 records) was evicted for the newer 4.
        assert uploader.spooled_records == 4
        assert uploader.stats.records_discarded == 3

    def test_replay_due(self, store):
        def refuse(records, t):
            raise ConnectionError("down")

        uploader = ResultUploader(
            store, "srv0", retry_base_s=50.0, retry_cap_s=100.0, upload_fn=refuse
        )
        assert not uploader.replay_due(0.0)  # nothing spooled
        uploader.add(_record())
        uploader.flush(t=0.0)
        assert not uploader.replay_due(10.0)  # backoff window still open
        assert uploader.replay_due(200.0)  # past the cap: due


class TestLocalLog:
    def test_log_lines_written(self, store):
        uploader = ResultUploader(store, "srv0")
        uploader.add(_record(1))
        lines = uploader.local_log_lines()
        assert len(lines) == 1
        assert '"src":"a"' in lines[0]

    def test_log_rotates_at_cap(self, store):
        """'The size of log files is limited to a configurable size.'"""
        uploader = ResultUploader(store, "srv0", log_cap_bytes=1024)
        for i in range(200):
            uploader.add(_record(i))
        assert uploader.local_log_bytes <= 1024
        # Oldest entries rotated out; the newest survive.
        assert f'"t":{float(199)}' in uploader.local_log_lines()[-1]


class TestAccountingConservation:
    """added == uploaded + discarded + buffered + spooled, at every point."""

    def _balanced(self, uploader):
        s = uploader.stats
        return s.records_added == (
            s.records_uploaded
            + s.records_discarded
            + uploader.buffered_records
            + uploader.spooled_records
        )

    def test_conservation_through_success(self, store):
        uploader = ResultUploader(store, "srv0")
        for i in range(7):
            uploader.add(_record(i))
            assert self._balanced(uploader)
        uploader.flush(t=1.0)
        assert self._balanced(uploader)
        assert uploader.stats.records_added == 7

    def test_conservation_through_discard(self, store):
        def failing_upload(records, t):
            raise ConnectionError("down")

        uploader = _fast_retry(store, upload_fn=failing_upload)
        for i in range(4):
            uploader.add(_record(i))
        for t in (1.0, 10.0, 20.0):
            uploader.flush(t=t)
            assert self._balanced(uploader)
        assert uploader.stats.failed_flushes == 1
        assert uploader.stats.records_discarded == 4

    def test_conservation_through_overflow(self, store):
        uploader = ResultUploader(
            store, "srv0", flush_threshold_records=2, max_buffer_records=10
        )
        for i in range(25):
            uploader.add(_record(i))
            assert self._balanced(uploader)

    def test_conservation_through_spool_and_replay(self, store):
        uploader = _fast_retry(store, spool_cap_records=8)

        def refuse(records, t):
            raise ConnectionError("blackout")

        uploader.set_upload_fn(refuse)
        t = 0.0
        for i in range(30):
            uploader.add(_record(i))
            if i % 3 == 2:
                t += 10.0
                uploader.flush(t=t)
            assert self._balanced(uploader)
        uploader.set_upload_fn(None)
        uploader.flush(t=t + 10.0)
        assert self._balanced(uploader)
        assert uploader.spooled_records == 0


class TestUploadFnSwap:
    def test_set_upload_fn_blacks_out_and_restores(self, store):
        uploader = _fast_retry(store)

        def refuse(records, t):
            raise ConnectionError("blackout")

        uploader.set_upload_fn(refuse)
        uploader.add(_record(0))
        assert uploader.flush(t=1.0) is False
        assert not store.has_stream("pingmesh/latency")
        assert uploader.spooled_records == 1  # parked, not lost

        uploader.set_upload_fn(None)  # back to the default store append
        uploader.add(_record(1))
        assert uploader.flush(t=20.0) is True
        # Both the blacked-out record (replayed) and the new one land.
        assert store.stream("pingmesh/latency").record_count == 2
        assert uploader.stats.records_replayed == 1

    def test_failed_flushes_counts_discard_events_not_attempts(self, store):
        def failing_upload(records, t):
            raise ConnectionError("down")

        uploader = _fast_retry(store, max_retries=3, upload_fn=failing_upload)
        uploader.add(_record())
        for t in (1.0, 10.0, 20.0):
            uploader.flush(t=t)
        assert uploader.stats.upload_failures == 3  # one per spaced retry
        assert uploader.stats.failed_flushes == 1  # one per discarded batch
        assert uploader.stats.flushes == 3
