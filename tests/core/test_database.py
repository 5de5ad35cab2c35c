"""Tests for the results database."""

import pytest

from repro.core.dsa.database import ResultsDatabase


@pytest.fixture()
def db():
    database = ResultsDatabase()
    database.insert(
        "sla",
        [
            {"t": 600.0, "key": "dc0", "p99_us": 900.0},
            {"t": 1200.0, "key": "dc0", "p99_us": 950.0},
            {"t": 1200.0, "key": "dc1", "p99_us": 700.0},
        ],
    )
    return database


class TestInsertAndQuery:
    def test_insert_counts(self, db):
        assert db.row_count("sla") == 3
        assert db.insert("sla", []) == 0

    def test_query_all(self, db):
        assert len(db.query("sla")) == 3

    def test_query_where(self, db):
        rows = db.query("sla", where=lambda r: r["key"] == "dc0")
        assert len(rows) == 2

    def test_query_order_and_limit(self, db):
        rows = db.query("sla", order_by="p99_us", desc=True, limit=1)
        assert rows[0]["p99_us"] == 950.0
        with pytest.raises(ValueError):
            db.query("sla", limit=-1)

    def test_unknown_table_reads_empty(self, db):
        assert db.query("missing") == []
        assert db.row_count("missing") == 0

    def test_query_returns_copies(self, db):
        db.query("sla")[0]["p99_us"] = -1
        assert all(row["p99_us"] > 0 for row in db.query("sla"))

    def test_insert_copies_rows(self, db):
        row = {"t": 1.0, "x": 1}
        db.insert("other", [row])
        row["x"] = 99
        assert db.query("other")[0]["x"] == 1

    def test_tables_listing(self, db):
        db.insert("alerts", [{"t": 0.0}])
        assert db.tables() == ["alerts", "sla"]


class TestLatestAndRetention:
    def test_latest_by_time(self, db):
        latest = db.latest("sla")
        assert latest["t"] == 1200.0

    def test_latest_of_empty_table(self, db):
        assert db.latest("missing") is None
