"""Tests for the Cosmos append-only extent store."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cosmos.store import CosmosStore


@pytest.fixture()
def store():
    return CosmosStore(n_storage_nodes=5, replication=3, extent_max_records=4)


def _rows(n, offset=0):
    return [{"i": i + offset, "rtt_us": 100.0 + i} for i in range(n)]


class TestConstruction:
    def test_rejects_replication_above_nodes(self):
        with pytest.raises(ValueError):
            CosmosStore(n_storage_nodes=2, replication=3)

    def test_rejects_zero_replication(self):
        with pytest.raises(ValueError):
            CosmosStore(replication=0)

    def test_rejects_zero_extent_size(self):
        with pytest.raises(ValueError):
            CosmosStore(extent_max_records=0)


class TestAppendAndRead:
    def test_roundtrip(self, store):
        rows = _rows(3)
        store.append("s", rows)
        assert list(store.read("s")) == rows

    def test_append_creates_stream_implicitly(self, store):
        store.append("implicit", _rows(1))
        assert store.has_stream("implicit")

    def test_records_split_into_extents(self, store):
        written = store.append("s", _rows(10))  # extent_max_records=4
        assert written == 3
        assert len(store.stream("s").extents) == 3
        assert store.stream("s").record_count == 10

    def test_appends_accumulate_in_order(self, store):
        store.append("s", _rows(2))
        store.append("s", _rows(2, offset=2))
        assert [row["i"] for row in store.read("s")] == [0, 1, 2, 3]

    def test_empty_append_is_noop(self, store):
        assert store.append("s", []) == 0
        assert not store.has_stream("s")

    def test_stored_records_are_isolated_from_caller(self, store):
        rows = _rows(1)
        store.append("s", rows)
        rows[0]["i"] = 999
        assert next(store.read("s"))["i"] == 0

    def test_read_returns_copies(self, store):
        store.append("s", _rows(1))
        first = next(store.read("s"))
        first["i"] = 999
        assert next(store.read("s"))["i"] == 0

    def test_read_where_pushdown(self, store):
        store.append("s", _rows(8))
        rows = list(store.read_where("s", lambda r: r["i"] % 2 == 0))
        assert [row["i"] for row in rows] == [0, 2, 4, 6]

    def test_unknown_stream_raises(self, store):
        with pytest.raises(KeyError):
            list(store.read("missing"))

    def test_create_duplicate_stream_rejected(self, store):
        store.create_stream("s")
        with pytest.raises(ValueError):
            store.create_stream("s")


class TestReplication:
    def test_each_extent_has_distinct_replicas(self, store):
        store.append("s", _rows(12))
        for extent in store.stream("s").extents:
            assert len(set(extent.replicas)) == store.replication


class TestRetentionAndAccounting:

    def test_bytes_ingested_grows(self, store):
        store.append("s", _rows(4))
        assert store.bytes_ingested > 0
        assert store.stream("s").size_bytes == store.total_bytes()

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=60))
    def test_record_count_invariant(self, values):
        """Property: total records out equals total records in."""
        store = CosmosStore(extent_max_records=7)
        rows = [{"v": v} for v in values]
        store.append("s", rows)
        if rows:
            assert store.stream("s").record_count == len(rows)
            assert [row["v"] for row in store.read("s")] == values


class TestExtentPruning:
    def test_appended_since_skips_old_extents(self):
        store = CosmosStore(extent_max_records=2)
        store.append("s", _rows(2), t=100.0)
        store.append("s", _rows(2, offset=2), t=200.0)
        store.append("s", _rows(2, offset=4), t=300.0)
        rows = list(store.read_where("s", lambda r: True, appended_since=200.0))
        assert [row["i"] for row in rows] == [2, 3, 4, 5]

    def test_pruning_is_safe_for_time_window_queries(self):
        """A record generated at t can only land in an extent appended at
        >= t, so pruning by window start never loses in-window records."""
        store = CosmosStore(extent_max_records=3)
        # Records generated at t = 0, 10, ..., 80, all uploaded late at
        # t=150 — the extent postdates the window start, so pruning by the
        # window start must keep it.
        store.append("s", [{"t": float(i * 10)} for i in range(9)], t=150.0)
        rows = list(
            store.read_where(
                "s", lambda r: 50.0 <= r["t"] < 100.0, appended_since=50.0
            )
        )
        assert sorted(row["t"] for row in rows) == [50.0, 60.0, 70.0, 80.0]

    def test_pruning_none_reads_everything(self):
        store = CosmosStore()
        store.append("s", _rows(5), t=10.0)
        rows = list(store.read_where("s", lambda r: True, appended_since=None))
        assert len(rows) == 5
