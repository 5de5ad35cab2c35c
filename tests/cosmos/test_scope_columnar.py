"""Row-path vs columnar-path parity for the SCOPE engine.

Every verb and every aggregator must produce identical rows in identical
order through both execution paths; these tests hold that contract,
including the edge cases (empty rowsets, all-failure windows, q=0/100
percentiles, empty ratio denominators) and a randomized property test.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cosmos.scope import RowSet, agg, col, extract, lit
from repro.cosmos.store import CosmosStore


# Percentile columns of the queries below.  Both paths take the same order
# statistics through the same interpolation, so they agree to the bit; sums
# and means accumulate in different orders and get a tolerance.
_PERCENTILE_KEY = re.compile(r"p\d*$")


def _approx_equal(a, b, exact=False):
    if isinstance(a, float) and isinstance(b, float) and not exact:
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b and type(a) is type(b)


def assert_same_output(row_result, col_result):
    """Both paths: same rows, same order, same keys, same value types."""
    assert len(row_result) == len(col_result)
    for row_row, col_row in zip(row_result, col_result):
        assert list(row_row) == list(col_row)
        for key in row_row:
            exact = _PERCENTILE_KEY.match(key) is not None
            assert _approx_equal(row_row[key], col_row[key], exact), (
                key,
                row_row[key],
                col_row[key],
            )


RECORDS = [
    {
        "t": float(t),
        "src_dc": dc,
        "dst_dc": dc,
        "src_pod": pod,
        "dst_pod": (pod + shift) % 3,
        "success": (t + pod) % 7 != 0,
        "rtt_us": 100.0 + 17.3 * ((t * 31 + pod * 7) % 23) + (3.1e6 if (t + pod) % 11 == 0 else 0.0),
        "src": f"dc{dc}/p{pod}",
    }
    for t in range(0, 40)
    for dc in (0, 1)
    for pod in range(3)
    for shift in (0, 1)
]


def both_paths(records=RECORDS, extent_max_records=16):
    """The same data as a row-backed and a column-backed rowset."""
    row_set = RowSet(records)
    store = CosmosStore(extent_max_records=extent_max_records)
    store.append("s", records, t=0.0)
    col_set = extract(store, "s")
    assert col_set.is_columnar
    assert not row_set.is_columnar
    return row_set, col_set


ALL_AGGREGATES = dict(
    n=lambda: agg.count(),
    ok=lambda: agg.count_if(col("success")),
    total=lambda: agg.sum("rtt_us"),
    mean=lambda: agg.avg("rtt_us"),
    low=lambda: agg.min("rtt_us"),
    high=lambda: agg.max("rtt_us"),
    p0=lambda: agg.percentile("rtt_us", 0),
    p50=lambda: agg.percentile("rtt_us", 50),
    p99=lambda: agg.percentile("rtt_us", 99),
    p100=lambda: agg.percentile("rtt_us", 100),
    rate=lambda: agg.ratio(
        numerator=col("success") & (col("rtt_us") >= 2.5e6),
        denominator=col("success"),
    ),
)


class TestVerbParity:
    def test_where_expr(self):
        rows, cols = both_paths()
        expr = (col("success")) & (col("rtt_us") < 1e6) | (col("src_pod") == 2)
        assert_same_output(rows.where(expr).output(), cols.where(expr).output())

    def test_where_lambda_falls_back(self):
        rows, cols = both_paths()
        pred = lambda r: r["src_pod"] >= 1 and r["success"]  # noqa: E731
        filtered = cols.where(pred)
        assert not filtered.is_columnar
        assert_same_output(rows.where(pred).output(), filtered.output())

    def test_where_empty_result(self):
        rows, cols = both_paths()
        expr = col("rtt_us") < 0
        assert rows.where(expr).output() == cols.where(expr).output() == []

    def test_select_projection(self):
        rows, cols = both_paths()
        assert_same_output(
            rows.select("src_pod", "rtt_us").output(),
            cols.select("src_pod", "rtt_us").output(),
        )

    def test_select_computed_expr_and_lit(self):
        rows, cols = both_paths()
        kwargs = dict(rtt_ms=col("rtt_us") / 1000.0, window=lit(600.0))
        out_cols = cols.select("src_pod", **kwargs)
        assert out_cols.is_columnar
        assert_same_output(rows.select("src_pod", **kwargs).output(), out_cols.output())

    def test_select_lambda_falls_back(self):
        rows, cols = both_paths()
        fn = lambda r: r["rtt_us"] / 1000.0  # noqa: E731
        assert_same_output(
            rows.select("src_pod", rtt_ms=fn).output(),
            cols.select("src_pod", rtt_ms=fn).output(),
        )

    def test_order_by_multikey(self):
        rows, cols = both_paths()
        assert_same_output(
            rows.order_by("src_pod", "dst_pod", "t").output(),
            cols.order_by("src_pod", "dst_pod", "t").output(),
        )

    def test_order_by_desc_stability(self):
        # Ties on the sort keys must keep original order on both paths.
        rows, cols = both_paths()
        assert_same_output(
            rows.order_by("src_pod", desc=True).output(),
            cols.order_by("src_pod", desc=True).output(),
        )

    def test_order_by_string_key(self):
        rows, cols = both_paths()
        assert_same_output(
            rows.order_by("src", "t").output(), cols.order_by("src", "t").output()
        )

    def test_take(self):
        rows, cols = both_paths()
        assert_same_output(rows.take(7).output(), cols.take(7).output())
        assert_same_output(rows.take(0).output(), cols.take(0).output())

    def test_column(self):
        rows, cols = both_paths()
        assert rows.column("rtt_us") == cols.column("rtt_us")
        assert rows.column("src") == cols.column("src")

    def test_distinct(self):
        rows, cols = both_paths()
        assert_same_output(
            rows.distinct("src_pod", "dst_pod").output(),
            cols.distinct("src_pod", "dst_pod").output(),
        )

    def test_union(self):
        rows, cols = both_paths()
        assert_same_output(
            rows.union(rows).output(), cols.union(cols).output()
        )

    def test_join(self):
        rows, cols = both_paths()
        right_records = [{"src_pod": p, "label": f"pod-{p}"} for p in range(2)]
        right_rows = RowSet(right_records)
        assert_same_output(
            rows.join(right_rows, on=("src_pod",), how="left").output(),
            cols.join(right_rows, on=("src_pod",), how="left").output(),
        )

    def test_iteration_and_len(self):
        rows, cols = both_paths()
        assert len(rows) == len(cols)
        assert list(rows.output()) == list(cols.output())

    def test_output_returns_fresh_copies_on_both_paths(self):
        for rowset in both_paths():
            out = rowset.output()
            out[0]["src_pod"] = 999
            assert rowset.output()[0]["src_pod"] != 999


class TestAggregateParity:
    def test_every_aggregator(self):
        rows, cols = both_paths()
        row_out = rows.group_by("src_dc", "src_pod").aggregate(
            **{name: make() for name, make in ALL_AGGREGATES.items()}
        )
        col_out = cols.group_by("src_dc", "src_pod").aggregate(
            **{name: make() for name, make in ALL_AGGREGATES.items()}
        )
        assert col_out.is_columnar
        assert_same_output(row_out.output(), col_out.output())

    def test_group_order_matches_first_appearance(self):
        records = [
            {"k": key, "v": float(i)}
            for i, key in enumerate([3, 1, 3, 2, 1, 2, 0])
        ]
        rows, cols = both_paths(records)
        row_out = rows.group_by("k").aggregate(n=agg.count()).output()
        col_out = cols.group_by("k").aggregate(n=agg.count()).output()
        assert [r["k"] for r in row_out] == [3, 1, 2, 0]
        assert_same_output(row_out, col_out)

    def test_single_row_groups(self):
        records = [{"k": i, "v": float(i)} for i in range(5)]
        rows, cols = both_paths(records)
        assert_same_output(
            rows.group_by("k").aggregate(p=agg.percentile("v", 50)).output(),
            cols.group_by("k").aggregate(p=agg.percentile("v", 50)).output(),
        )

    def test_empty_rowset_grouping(self):
        rows, cols = both_paths()
        empty_expr = col("rtt_us") < 0
        row_empty = rows.where(empty_expr)
        col_empty = cols.where(empty_expr)
        assert (
            row_empty.group_by("src_pod").aggregate(n=agg.count()).output()
            == col_empty.group_by("src_pod").aggregate(n=agg.count()).output()
            == []
        )

    def test_all_failure_window_ratio_is_zero(self):
        records = [
            {"pod": p, "success": False, "rtt_us": 3.5e6}
            for p in (0, 1, 0, 1)
        ]
        rows, cols = both_paths(records)
        rate = lambda: agg.ratio(  # noqa: E731
            numerator=col("success") & (col("rtt_us") >= 2.5e6),
            denominator=col("success"),
        )
        row_out = rows.group_by("pod").aggregate(rate=rate()).output()
        col_out = cols.group_by("pod").aggregate(rate=rate()).output()
        assert [r["rate"] for r in row_out] == [0.0, 0.0]
        assert_same_output(row_out, col_out)

    def test_bool_sum_and_minmax(self):
        records = [{"k": i % 2, "flag": i % 3 == 0} for i in range(10)]
        rows, cols = both_paths(records)
        assert_same_output(
            rows.group_by("k")
            .aggregate(s=agg.sum("flag"), lo=agg.min("flag"), hi=agg.max("flag"))
            .output(),
            cols.group_by("k")
            .aggregate(s=agg.sum("flag"), lo=agg.min("flag"), hi=agg.max("flag"))
            .output(),
        )

    def test_int_column_aggregates_stay_int(self):
        records = [{"k": i % 2, "v": i} for i in range(9)]
        rows, cols = both_paths(records)
        row_out = rows.group_by("k").aggregate(
            s=agg.sum("v"), lo=agg.min("v"), hi=agg.max("v")
        ).output()
        col_out = cols.group_by("k").aggregate(
            s=agg.sum("v"), lo=agg.min("v"), hi=agg.max("v")
        ).output()
        assert_same_output(row_out, col_out)
        assert type(col_out[0]["s"]) is int

    def test_custom_callable_falls_back(self):
        rows, cols = both_paths()
        spread = lambda group: max(r["rtt_us"] for r in group) - min(  # noqa: E731
            r["rtt_us"] for r in group
        )
        assert_same_output(
            rows.group_by("src_pod").aggregate(spread=spread).output(),
            cols.group_by("src_pod").aggregate(spread=spread).output(),
        )

    def test_lambda_count_if_falls_back(self):
        rows, cols = both_paths()
        pred = lambda r: r["success"]  # noqa: E731
        assert_same_output(
            rows.group_by("src_pod").aggregate(ok=agg.count_if(pred)).output(),
            cols.group_by("src_pod").aggregate(ok=agg.count_if(pred)).output(),
        )

    def test_object_column_percentile_falls_back(self):
        # None in a numeric column -> object dtype -> row path, not a crash.
        records = [{"k": 0, "v": 1.0}, {"k": 0, "v": 2.0}, {"k": 1, "v": 3.0}]
        hetero = records + [{"k": 1, "v": 4.0}]
        store = CosmosStore()
        store.append("s", [dict(r, extra=None) for r in hetero], t=0.0)
        cols = extract(store, "s")
        assert cols.is_columnar  # None column packs as object
        out = cols.group_by("k").aggregate(p=agg.percentile("v", 50)).output()
        rows_out = (
            RowSet([dict(r, extra=None) for r in hetero])
            .group_by("k")
            .aggregate(p=agg.percentile("v", 50))
            .output()
        )
        assert_same_output(rows_out, out)

    @pytest.mark.parametrize("q", [0, 25, 50, 75, 99, 100])
    def test_percentile_edges(self, q):
        rows, cols = both_paths()
        assert_same_output(
            rows.group_by("src_pod").aggregate(p=agg.percentile("rtt_us", q)).output(),
            cols.group_by("src_pod").aggregate(p=agg.percentile("rtt_us", q)).output(),
        )


class TestOutputPinsNothing:
    def test_columnar_output_is_fresh_and_uncached(self):
        """``output()`` of a column-backed set builds its dicts from the
        columns each time and keeps none — a window shared through a cache
        must not grow a row twin because one consumer wanted rows."""
        rows, cols = both_paths()
        first, second = cols.output(), cols.output()
        assert_same_output(rows.output(), first)
        assert first == second and first[0] is not second[0]
        assert cols._rows is None
        first[0]["t"] = "mutated"
        assert cols.output()[0]["t"] == RECORDS[0]["t"]
        # Iteration is the explicit way to keep a row view.
        assert list(cols) == second and cols._rows is not None


class TestGroupByHoldsOneSortedKey:
    def test_wide_string_keys_are_not_all_held_sorted(self):
        """Grouping a window by its string columns (the black-hole job's
        ``src``, ``dst``) sorts one key at a time and keeps group values,
        not a sorted twin of every key: the transient is what decided how
        far the daily job pushed peak RSS from one run to the next."""
        n = 60_000
        names = np.array([f"dc0/ps0/pod{i % 16}/s{i % 251}" for i in range(n)])
        columns = {"a": names, "b": names[::-1].copy(), "c": names.copy(), "v": np.ones(n)}
        reference = RowSet(RowSet.from_columns(columns).output())
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            out = (
                RowSet.from_columns(columns)
                .group_by("a", "b", "c")
                .aggregate(n=agg.count(), total=agg.sum("v"))
                .output()
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_output(
            reference.group_by("a", "b", "c")
            .aggregate(n=agg.count(), total=agg.sum("v"))
            .output(),
            out,
        )
        # One sorted key plus its shifted comparison, never all three keys.
        assert peak - base < 2 * names.nbytes


class TestPercentileFarFromRowZero:
    """``np.percentile`` takes floor, ceiling and fraction of a position
    *within* the group.  Taking them after adding the group's first row
    rounds a six-digit offset into the fraction: on real windows most
    percentiles then miss ``np.percentile`` in the last digits."""

    def test_group_beyond_row_100_000_equals_numpy(self):
        rng = np.random.default_rng(19)
        sizes = {0: 100_003, 1: 977, 2: 30, 3: 1, 4: 64}
        keys = np.repeat(list(sizes), list(sizes.values()))
        values = rng.gamma(2.0, 130.0, size=keys.size)
        grouped = RowSet.from_columns({"k": keys, "v": values}).group_by("k")
        for q in (1, 50, 90, 99, 99.9):
            out = grouped.aggregate(p=agg.percentile("v", q)).output()
            assert [row["k"] for row in out] == list(sizes)
            for row in out:
                expected = float(np.percentile(values[keys == row["k"]], q))
                assert row["p"] == expected, (row["k"], q)


class TestRandomizedParity:
    @settings(deadline=None, max_examples=40)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # pod
                st.integers(min_value=0, max_value=2),  # dst pod
                st.booleans(),  # success
                st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
            ),
            min_size=0,
            max_size=120,
        ),
        q=st.integers(min_value=0, max_value=100),
    )
    def test_podpair_shaped_query(self, data, q):
        records = [
            {"src_pod": a, "dst_pod": b, "success": ok, "rtt_us": rtt}
            for a, b, ok, rtt in data
        ]
        row_set = RowSet(records)
        store = CosmosStore(extent_max_records=7)
        store.append("s", records, t=0.0)
        col_set = extract(store, "s") if records else RowSet([])

        def query(rows):
            filtered = rows.where((col("src_pod") >= 1) | col("success"))
            if not filtered:
                return []
            return (
                filtered.group_by("src_pod", "dst_pod")
                .aggregate(
                    n=agg.count(),
                    ok=agg.count_if(col("success")),
                    p=agg.percentile("rtt_us", q),
                    total=agg.sum("rtt_us"),
                    rate=agg.ratio(
                        numerator=col("success") & (col("rtt_us") >= 2.5e6),
                        denominator=col("success"),
                    ),
                )
                .order_by("src_pod", "dst_pod")
                .take(50)
                .output()
            )

        assert_same_output(query(row_set), query(col_set))


class TestExtractColumnar:
    def test_extract_is_columnar_for_homogeneous_stream(self):
        store = CosmosStore(extent_max_records=3)
        store.append("s", [{"a": i, "b": float(i)} for i in range(10)], t=0.0)
        rows = extract(store, "s")
        assert rows.is_columnar
        assert rows.column("a") == list(range(10))

    def test_extract_falls_back_on_schema_drift(self):
        store = CosmosStore(extent_max_records=2)
        store.append("s", [{"a": 1}, {"a": 2}], t=0.0)
        store.append("s", [{"b": 3}, {"b": 4}], t=0.0)
        rows = extract(store, "s")
        assert not rows.is_columnar
        assert len(rows) == 4

    def test_extract_single_scan(self):
        store = CosmosStore()
        store.append("s", [{"a": i} for i in range(10)], t=0.0)
        before = store.read_count
        extract(store, "s", col("a") >= 5)
        assert store.read_count == before + 1

    def test_extract_expr_predicate_prunes_and_filters(self):
        store = CosmosStore(extent_max_records=2)
        store.append("s", [{"t": 10.0}, {"t": 20.0}], t=20.0)
        store.append("s", [{"t": 30.0}, {"t": 40.0}], t=40.0)
        rows = extract(store, "s", (col("t") >= 25.0), appended_since=25.0)
        assert rows.column("t") == [30.0, 40.0]
