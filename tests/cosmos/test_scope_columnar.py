"""The SCOPE engine against reference values.

Every verb and every aggregator is held to the same query worked out in the
test — plain Python over the row dicts, ``np.percentile`` for percentiles —
including the edge cases (empty rowsets, all-failure windows, q=0/100
percentiles, empty ratio denominators), first-appearance group order,
``order_by`` stability under ``desc``, and a randomized pod-pair query.
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


# Percentiles and counts must match the reference to the bit; sums and
# means may accumulate in a different order and get a tolerance.
_EXACT_KEY = re.compile(r"(p\d*|n|ok)$")


def _approx_equal(a, b, exact=False):
    if isinstance(a, float) and isinstance(b, float) and not exact:
        if math.isnan(a) and math.isnan(b):
            return True
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    return a == b and type(a) is type(b)


def assert_same_output(expected, actual):
    """Same rows, same order, same keys, same value types."""
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert list(want) == list(got)
        for key in want:
            exact = _EXACT_KEY.match(key) is not None
            assert _approx_equal(want[key], got[key], exact), (key, want[key], got[key])


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


def extracted(records=RECORDS, extent_max_records=16):
    """``records`` as the jobs read them: appended, then extracted."""
    store = CosmosStore(extent_max_records=extent_max_records)
    store.append("s", records, t=0.0)
    return extract(store, "s")


def reference_groups(records, *keys):
    """``{key tuple -> rows}`` in first-appearance order."""
    groups = {}
    for row in records:
        groups.setdefault(tuple(row[key] for key in keys), []).append(row)
    return groups


def reference_aggregate(records, keys, **reducers):
    return [
        {**dict(zip(keys, group)), **{name: fn(rows) for name, fn in reducers.items()}}
        for group, rows in reference_groups(records, *keys).items()
    ]


def _ratio(rows, top, bottom):
    denominator = sum(1 for row in rows if bottom(row))
    return sum(1 for row in rows if top(row)) / denominator if denominator else 0.0


def _pct(q):
    return lambda rows: float(np.percentile([row["rtt_us"] for row in rows], q))


def _is_drop(row):
    return row["success"] and row["rtt_us"] >= 2.5e6


# name -> (the engine's aggregate, the reference reducer over a group's rows)
ALL_AGGREGATES = dict(
    n=(agg.count, len),
    ok=(lambda: agg.count_if(col("success")), lambda g: sum(r["success"] for r in g)),
    total=(lambda: agg.sum("rtt_us"), lambda g: sum(r["rtt_us"] for r in g)),
    low=(lambda: agg.min("rtt_us"), lambda g: min(r["rtt_us"] for r in g)),
    high=(lambda: agg.max("rtt_us"), lambda g: max(r["rtt_us"] for r in g)),
    p0=(lambda: agg.percentile("rtt_us", 0), _pct(0)),
    p50=(lambda: agg.percentile("rtt_us", 50), _pct(50)),
    p99=(lambda: agg.percentile("rtt_us", 99), _pct(99)),
    p100=(lambda: agg.percentile("rtt_us", 100), _pct(100)),
    rate=(
        lambda: agg.ratio(
            numerator=col("success") & (col("rtt_us") >= 2.5e6),
            denominator=col("success"),
        ),
        lambda g: _ratio(g, _is_drop, lambda r: r["success"]),
    ),
)


class TestVerbParity:
    """Each verb against the same rows worked out in plain Python."""

    def test_where_expr(self):
        expr = (col("success")) & (col("rtt_us") < 1e6) | (col("src_pod") == 2)
        expected = [
            r for r in RECORDS if (r["success"] and r["rtt_us"] < 1e6) or r["src_pod"] == 2
        ]
        assert_same_output(expected, extracted().where(expr).output())

    def test_where_lambda_is_a_type_error(self):
        with pytest.raises(TypeError, match="where takes a col/lit expression"):
            extracted().where(lambda r: r["success"])

    def test_where_empty_result(self):
        assert extracted().where(col("rtt_us") < 0).output() == []

    def test_select_projection(self):
        expected = [{"src_pod": r["src_pod"], "rtt_us": r["rtt_us"]} for r in RECORDS]
        assert_same_output(expected, extracted().select("src_pod", "rtt_us").output())

    def test_select_computed_expr_and_lit(self):
        out = extracted().select("src_pod", rtt_ms=col("rtt_us") / 1000.0, window=lit(600.0))
        expected = [
            {"src_pod": r["src_pod"], "rtt_ms": r["rtt_us"] / 1000.0, "window": 600.0}
            for r in RECORDS
        ]
        assert_same_output(expected, out.output())

    def test_select_lambda_is_a_type_error(self):
        with pytest.raises(TypeError, match="select takes a col/lit expression"):
            extracted().select("src_pod", rtt_ms=lambda r: r["rtt_us"] / 1000.0)

    def test_order_by_multikey(self):
        expected = sorted(RECORDS, key=lambda r: (r["src_pod"], r["dst_pod"], r["t"]))
        assert_same_output(expected, extracted().order_by("src_pod", "dst_pod", "t").output())

    def test_order_by_desc_stability(self):
        # Ties on the sort key keep their original order under ``desc`` too,
        # as Python's own sort does with ``reverse=True``.
        expected = sorted(RECORDS, key=lambda r: r["src_pod"], reverse=True)
        assert_same_output(expected, extracted().order_by("src_pod", desc=True).output())

    def test_order_by_string_key(self):
        expected = sorted(RECORDS, key=lambda r: (r["src"], r["t"]))
        assert_same_output(expected, extracted().order_by("src", "t").output())

    def test_column(self):
        assert extracted().column("rtt_us") == [r["rtt_us"] for r in RECORDS]
        assert extracted().column("src") == [r["src"] for r in RECORDS]

    def test_iteration_and_len(self):
        rows = extracted()
        assert len(rows) == len(RECORDS)
        assert list(rows) == RECORDS

    def test_output_returns_fresh_copies_on_both_paths(self):
        """Rows packed on entry and rows extracted from extents alike."""
        for rowset in (RowSet(RECORDS), extracted()):
            out = rowset.output()
            out[0]["src_pod"] = 999
            assert rowset.output()[0]["src_pod"] != 999


class TestAggregateParity:
    """Each aggregator against its reducer over hand-built groups."""

    def test_every_aggregator(self):
        out = extracted().group_by("src_dc", "src_pod").aggregate(
            **{name: make() for name, (make, _ref) in ALL_AGGREGATES.items()}
        )
        expected = reference_aggregate(
            RECORDS,
            ("src_dc", "src_pod"),
            **{name: ref for name, (_make, ref) in ALL_AGGREGATES.items()},
        )
        assert_same_output(expected, out.output())

    def test_group_order_matches_first_appearance(self):
        records = [
            {"k": key, "v": float(i)}
            for i, key in enumerate([3, 1, 3, 2, 1, 2, 0])
        ]
        out = extracted(records).group_by("k").aggregate(n=agg.count()).output()
        assert out == [{"k": 3, "n": 2}, {"k": 1, "n": 2}, {"k": 2, "n": 2}, {"k": 0, "n": 1}]

    def test_single_row_groups(self):
        records = [{"k": i, "v": float(i)} for i in range(5)]
        out = extracted(records).group_by("k").aggregate(p=agg.percentile("v", 50))
        assert out.output() == [{"k": i, "p": float(i)} for i in range(5)]

    def test_empty_rowset_grouping(self):
        empty = extracted().where(col("rtt_us") < 0)
        assert empty.group_by("src_pod").aggregate(n=agg.count()).output() == []

    def test_all_failure_window_ratio_is_zero(self):
        records = [
            {"pod": p, "success": False, "rtt_us": 3.5e6}
            for p in (0, 1, 0, 1)
        ]
        rate = agg.ratio(
            numerator=col("success") & (col("rtt_us") >= 2.5e6),
            denominator=col("success"),
        )
        out = extracted(records).group_by("pod").aggregate(rate=rate).output()
        assert out == [{"pod": 0, "rate": 0.0}, {"pod": 1, "rate": 0.0}]

    def test_bool_sum_and_minmax(self):
        records = [{"k": i % 2, "flag": i % 3 == 0} for i in range(10)]
        out = (
            extracted(records)
            .group_by("k")
            .aggregate(s=agg.sum("flag"), lo=agg.min("flag"), hi=agg.max("flag"))
            .output()
        )
        expected = reference_aggregate(
            records,
            ("k",),
            s=lambda g: sum(r["flag"] for r in g),
            lo=lambda g: min(r["flag"] for r in g),
            hi=lambda g: max(r["flag"] for r in g),
        )
        assert_same_output(expected, out)

    def test_int_column_aggregates_stay_int(self):
        records = [{"k": i % 2, "v": i} for i in range(9)]
        out = extracted(records).group_by("k").aggregate(
            s=agg.sum("v"), lo=agg.min("v"), hi=agg.max("v")
        ).output()
        assert out == [{"k": 0, "s": 20, "lo": 0, "hi": 8}, {"k": 1, "s": 16, "lo": 1, "hi": 7}]
        assert type(out[0]["s"]) is int

    def test_custom_callable_is_a_type_error(self):
        spread = lambda group: max(r["rtt_us"] for r in group)  # noqa: E731
        with pytest.raises(TypeError, match="'spread' is not an agg"):
            extracted().group_by("src_pod").aggregate(spread=spread)

    def test_lambda_count_if_is_a_type_error(self):
        with pytest.raises(TypeError, match="count_if takes a col/lit expression"):
            agg.count_if(lambda r: r["success"])

    def test_object_column_percentile_names_the_column(self):
        """An object column reduces when its values are of one kind (after
        a filter, say) and is a TypeError naming it when they are not."""
        store = CosmosStore()
        store.append("s", [{"k": 0, "v": 1.0}, {"k": 0, "v": 2.0}, {"k": 1}, {"k": 1, "v": 4.0}])
        rows = extract(store, "s")
        with pytest.raises(TypeError, match="cannot reduce column 'v' of dtype object"):
            rows.group_by("k").aggregate(p=agg.percentile("v", 50))
        answered = rows.where(col("k") == 0).group_by("k").aggregate(p=agg.percentile("v", 50))
        assert answered.output() == [{"k": 0, "p": 1.5}]
        with pytest.raises(TypeError, match="cannot group by column 'v'"):
            rows.group_by("v")

    @pytest.mark.parametrize("q", [0, 25, 50, 75, 99, 100])
    def test_percentile_edges(self, q):
        out = extracted().group_by("src_pod").aggregate(p=agg.percentile("rtt_us", q))
        assert_same_output(reference_aggregate(RECORDS, ("src_pod",), p=_pct(q)), out.output())


class TestOutputPinsNothing:
    def test_columnar_output_is_fresh_and_uncached(self):
        """``output()`` and iteration build their dicts from the columns
        each time and keep none — a window shared through a cache must not
        grow a row twin because one consumer wanted rows."""
        cols = extracted()
        first, second = cols.output(), cols.output()
        assert first == second == RECORDS and first[0] is not second[0]
        first[0]["t"] = "mutated"
        assert cols.output()[0]["t"] == RECORDS[0]["t"]
        assert next(iter(cols)) is not next(iter(cols))


class TestGroupByHoldsOneSortedKey:
    def test_wide_string_keys_are_not_all_held_sorted(self):
        """Grouping a window by its string columns (the black-hole job's
        ``src``, ``dst``) sorts one key at a time and keeps group values,
        not a sorted twin of every key: the transient is what decided how
        far the daily job pushed peak RSS from one run to the next."""
        n = 60_000
        names = np.array([f"dc0/ps0/pod{i % 16}/s{i % 251}" for i in range(n)])
        columns = {"a": names, "b": names[::-1].copy(), "c": names.copy(), "v": np.ones(n)}
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
        expected = reference_aggregate(
            RowSet.from_columns(columns).output(),
            ("a", "b", "c"),
            n=len,
            total=lambda g: sum(r["v"] for r in g),
        )
        assert_same_output(expected, out)
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
        store = CosmosStore(extent_max_records=7)
        store.append("s", records, t=0.0)
        window = extract(store, "s") if records else RowSet([])  # no stream, no columns
        filtered = window.where((col("src_pod") >= 1) | col("success"))
        out = (
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
            .output()
        )
        expected = reference_aggregate(
            [r for r in records if r["src_pod"] >= 1 or r["success"]],
            ("src_pod", "dst_pod"),
            n=len,
            ok=lambda g: sum(r["success"] for r in g),
            p=_pct(q),
            total=lambda g: sum(r["rtt_us"] for r in g),
            rate=lambda g: _ratio(g, _is_drop, lambda r: r["success"]),
        )
        expected.sort(key=lambda r: (r["src_pod"], r["dst_pod"]))
        assert_same_output(expected, out)


class TestExtractColumnar:
    def test_extract_is_columnar_for_homogeneous_stream(self):
        store = CosmosStore(extent_max_records=3)
        store.append("s", [{"a": i, "b": float(i)} for i in range(10)], t=0.0)
        rows = extract(store, "s")
        assert rows.column("a") == list(range(10))
        assert rows.group_by("a").aggregate(s=agg.sum("b")).column("s") == [float(i) for i in range(10)]

    def test_extract_null_fills_schema_drift(self):
        store = CosmosStore(extent_max_records=2)
        store.append("s", [{"a": 1}, {"a": 2}], t=0.0)
        store.append("s", [{"b": 3}, {"b": 4}], t=0.0)
        rows = extract(store, "s")
        assert rows.output() == [
            {"a": 1, "b": None}, {"a": 2, "b": None}, {"a": None, "b": 3}, {"a": None, "b": 4}
        ]
        assert rows.where(col("a", default=0) > 1).column("a") == [2]

    def test_extract_stale_extent_beside_a_fresh_one(self):
        """A round probed from an unconfirmed pinglist carries
        ``pinglist_stale``; its extent beside a fresh one reads as one
        window, the tag null on the fresh rows."""
        fresh = [{"t": 60.0, "src": "s0", "rtt_us": 200.0 + i, "success": True} for i in range(3)]
        stale = [dict(row, t=120.0, pinglist_stale=True) for row in fresh]
        store = CosmosStore()
        store.append("s", fresh, t=60.0)
        store.append("s", stale, t=120.0)
        store.append("s", fresh, t=180.0)
        rows = extract(store, "s")
        assert rows.column("pinglist_stale") == [None] * 3 + [True] * 3 + [None] * 3
        tagged = rows.where(col("pinglist_stale", default=False))
        assert tagged.column("t") == [120.0] * 3
        assert rows.group_by("src").aggregate(p=agg.percentile("rtt_us", 50)).column("p") == [201.0]

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
