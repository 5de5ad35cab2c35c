"""Tests for the SCOPE rowset engine."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cosmos.scope import RowSet, agg, col, extract, lit
from repro.cosmos.store import CosmosStore


@pytest.fixture()
def rows():
    return RowSet(
        [
            {"pod": "p0", "rtt_us": 200.0, "ok": True},
            {"pod": "p0", "rtt_us": 300.0, "ok": True},
            {"pod": "p1", "rtt_us": 250.0, "ok": False},
            {"pod": "p1", "rtt_us": 3_000_150.0, "ok": True},
        ]
    )


class TestVerbs:
    def test_where(self, rows):
        assert len(rows.where(col("ok"))) == 3

    def test_select_projection(self, rows):
        out = rows.select("pod").output()
        assert out[0] == {"pod": "p0"}

    def test_select_computed_column(self, rows):
        out = rows.select("pod", rtt_ms=col("rtt_us") / 1000).output()
        assert out[0] == {"pod": "p0", "rtt_ms": 0.2}

    def test_select_noop(self, rows):
        assert rows.select().output() == rows.output()

    def test_order_by(self, rows):
        ordered = rows.order_by("rtt_us")
        values = ordered.column("rtt_us")
        assert values == sorted(values)

    def test_order_by_desc(self, rows):
        values = rows.order_by("rtt_us", desc=True).column("rtt_us")
        assert values == sorted(values, reverse=True)

    def test_rowsets_are_immutable_through_verbs(self, rows):
        rows.where(lit(False))
        rows.order_by("rtt_us")
        assert len(rows) == 4

    def test_output_returns_copies(self, rows):
        out = rows.output()
        out[0]["pod"] = "tampered"
        assert rows.output()[0]["pod"] == "p0"

    def test_bool_and_iter(self, rows):
        assert rows
        assert not RowSet([])
        assert sum(1 for _ in rows) == 4


class TestGroupingAndAggregates:
    def test_group_by_aggregate(self, rows):
        out = (
            rows.group_by("pod")
            .aggregate(n=agg.count(), max_rtt=agg.max("rtt_us"))
            .order_by("pod")
            .output()
        )
        assert out == [
            {"pod": "p0", "n": 2, "max_rtt": 300.0},
            {"pod": "p1", "n": 2, "max_rtt": 3_000_150.0},
        ]

    def test_group_by_requires_keys(self, rows):
        with pytest.raises(ValueError):
            rows.group_by()

    def test_aggregate_requires_columns(self, rows):
        with pytest.raises(ValueError):
            rows.group_by("pod").aggregate()

    def test_count_if(self, rows):
        out = rows.group_by("pod").aggregate(
            ok=agg.count_if(col("ok"))
        ).order_by("pod").output()
        assert [row["ok"] for row in out] == [2, 1]

    def test_sum_min(self, rows):
        out = (
            rows.where(col("pod") == "p0")
            .group_by("pod")
            .aggregate(
                total=agg.sum("rtt_us"),
                low=agg.min("rtt_us"),
            )
            .output()[0]
        )
        assert out["total"] == 500.0
        assert out["low"] == 200.0

    def test_percentile(self, rows):
        out = rows.group_by("pod").aggregate(
            p50=agg.percentile("rtt_us", 50)
        ).order_by("pod").output()
        assert out[0]["p50"] == 250.0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            agg.percentile("x", 101)

    def test_ratio_drop_rate_shape(self, rows):
        """The §4.2 heuristic expressed as an aggregate."""
        drop_rate = agg.ratio(
            numerator=col("rtt_us") > 2.5e6,  # ~3 s probes
            denominator=col("ok"),
        )
        out = rows.group_by("pod").aggregate(rate=drop_rate).order_by("pod").output()
        assert out[0]["rate"] == 0.0
        assert out[1]["rate"] == 1.0  # 1 three-second probe / 1 successful

    def test_ratio_empty_denominator_is_zero(self):
        rate = agg.ratio(lit(True), lit(False))
        assert RowSet([{"x": 1}]).group_by("x").aggregate(r=rate).output()[0]["r"] == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_percentile_bounded_by_min_max(self, values):
        rows = RowSet([{"v": v} for v in values])
        out = rows.group_by("v").aggregate(p=agg.percentile("v", 50))
        for row in out:
            assert min(values) <= row["p"] <= max(values)


class TestExtract:
    def test_extract_reads_stream(self):
        store = CosmosStore()
        store.append("s", [{"a": 1}, {"a": 2}])
        assert extract(store, "s").column("a") == [1, 2]

    def test_extract_with_predicate_pushdown(self):
        store = CosmosStore()
        store.append("s", [{"a": i} for i in range(10)])
        assert len(extract(store, "s", col("a") >= 5)) == 5
