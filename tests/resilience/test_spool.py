"""Tests for the bounded upload spool (FIFO of failed batches)."""

import pytest

from repro.resilience import SpooledBatch, UploadSpool


def _batch(n, t=0.0, start=0):
    return SpooledBatch(
        records=[{"i": start + i} for i in range(n)], spooled_t=t
    )


class TestBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            UploadSpool(cap_records=-1)

    def test_empty_spool_is_falsy(self):
        spool = UploadSpool()
        assert not spool
        assert spool.records == 0
        assert spool.peek_oldest() is None

    def test_push_peek_pop_fifo(self):
        spool = UploadSpool(cap_records=100)
        spool.push(_batch(3, t=1.0))
        spool.push(_batch(2, t=2.0, start=3))
        assert spool
        assert spool.records == 5
        assert spool.batches == 2
        assert spool.peek_oldest().spooled_t == 1.0
        oldest = spool.pop_oldest()
        assert len(oldest.records) == 3
        assert spool.records == 2

    def test_holds_no_deque_while_empty(self):
        spool = UploadSpool(cap_records=100)
        assert spool._batches is None and spool.batches == 0
        spool.push(_batch(3))
        spool.pop_oldest()
        assert spool._batches is None and not spool


class TestEviction:
    def test_oldest_batches_evicted_first(self):
        spool = UploadSpool(cap_records=5)
        spool.push(_batch(3, t=1.0))
        evicted = spool.push(_batch(4, t=2.0, start=3))
        # The old 3-record batch made room for the newer 4.
        assert [r["i"] for r in evicted] == [0, 1, 2]
        assert spool.records == 4
        assert spool.records_evicted == 3
        assert spool.peek_oldest().spooled_t == 2.0

    def test_oversized_batch_keeps_its_newest_records(self):
        spool = UploadSpool(cap_records=3)
        evicted = spool.push(_batch(5, t=1.0))
        assert [r["i"] for r in evicted] == [0, 1]
        assert [r["i"] for r in spool.peek_oldest().records] == [2, 3, 4]

    def test_records_never_exceed_cap(self):
        spool = UploadSpool(cap_records=10)
        for i in range(20):
            spool.push(_batch(3, t=float(i), start=3 * i))
            assert spool.records <= 10

    def test_conservation_under_churn(self):
        spool = UploadSpool(cap_records=7)
        pushed = 0
        popped = 0
        for i in range(15):
            pushed += 3
            spool.push(_batch(3, t=float(i)))
            if i % 4 == 3 and spool:
                popped += len(spool.pop_oldest().records)
        assert pushed == spool.records + spool.records_evicted + popped
