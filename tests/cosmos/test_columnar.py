"""Tests for the columnar extent packing and the col/lit expression DSL."""

import numpy as np
import pytest

from repro.cosmos.columnar import ColumnBlock, _column_value_bytes, col, concat_blocks, lit
from repro.cosmos.store import CosmosStore


def _records(n, offset=0):
    return [
        {
            "i": i + offset,
            "rtt_us": 100.0 + i,
            "ok": i % 2 == 0,
            "name": f"s{i}",
        }
        for i in range(n)
    ]


class TestColumnBlockPacking:
    def test_from_records_types(self):
        block = ColumnBlock.from_records(_records(4))
        assert block.n == 4
        assert block.columns["i"].dtype == np.int64
        assert block.columns["rtt_us"].dtype == np.float64
        assert block.columns["ok"].dtype == np.bool_
        assert block.columns["name"].dtype.kind == "U"

    def test_int_float_mix_promotes_to_float(self):
        block = ColumnBlock.from_records([{"v": 1}, {"v": 2.5}])
        assert block.columns["v"].dtype == np.float64

    def test_none_makes_object_column(self):
        block = ColumnBlock.from_records([{"v": 1.0}, {"v": None}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [1.0, None]

    def test_mixed_kinds_never_coerced(self):
        # numpy would silently stringify np.asarray([1, "a"]); we must not.
        block = ColumnBlock.from_records([{"v": 1}, {"v": "a"}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [1, "a"]

    def test_bool_int_mix_stays_object(self):
        block = ColumnBlock.from_records([{"v": True}, {"v": 2}])
        assert block.columns["v"].dtype == object
        assert block.columns["v"].tolist() == [True, 2]

    def test_heterogeneous_schema_packs_the_union(self):
        block = ColumnBlock.from_records([{"a": 1, "c": "x"}, {"b": 2.5, "a": 3}])
        assert list(block.columns) == ["a", "c", "b"]
        assert block.columns["a"].dtype == np.int64
        assert block.columns["c"].tolist() == ["x", None]
        assert block.columns["b"].tolist() == [None, 2.5]

    def test_empty_packs_no_columns(self):
        block = ColumnBlock.from_records([])
        assert block.columns == {} and block.n == 0 and block.to_rows() == []

    def test_to_rows_roundtrip_python_scalars(self):
        records = _records(3)
        rows = ColumnBlock.from_records(records).to_rows()
        assert rows == records
        assert all(type(row["i"]) is int for row in rows)
        assert all(type(row["ok"]) is bool for row in rows)

    def test_size_bytes_tracks_json_order_of_magnitude(self):
        import json

        records = _records(50)
        block = ColumnBlock.from_records(records)
        exact = sum(
            len(json.dumps(r, default=str, separators=(",", ":"))) for r in records
        )
        assert exact * 0.5 <= block.size_bytes() <= exact * 2.0

    def test_float_sizes_are_worked_out_not_written(self):
        """Short decimals to the character; a full-precision value is taken
        at 17 significant digits, at most one over its repr."""
        short = np.array([0.0, 3.0, 60.5, 600.0, 123.456, -0.25, 0.001, 7.125])
        assert _column_value_bytes(short) == sum(len(repr(v)) for v in short.tolist())
        rtts = np.random.default_rng(3).lognormal(5, 1, 500)
        exact = sum(len(repr(v)) for v in rtts.tolist())
        assert exact <= _column_value_bytes(rtts) <= exact + len(rtts)

    def test_concat_blocks(self):
        a = ColumnBlock.from_records(_records(3))
        b = ColumnBlock.from_records(_records(2, offset=3))
        merged = concat_blocks([a, b])
        assert merged.n == 5
        assert merged.columns["i"].tolist() == [0, 1, 2, 3, 4]

    def test_concat_schema_drift_fills_nulls(self):
        a = ColumnBlock.from_records([{"a": 1}, {"a": 2}])
        b = ColumnBlock.from_records([{"b": 1.5}])
        merged = concat_blocks([a, b])
        assert merged.n == 3
        assert merged.columns["a"].tolist() == [1, 2, None]
        assert merged.columns["b"].tolist() == [None, None, 1.5]
        assert concat_blocks([]).columns == {} and concat_blocks([]).n == 0


class TestStorePacksBlocks:
    def test_append_packs_columns_per_extent(self):
        store = CosmosStore(extent_max_records=4)
        store.append("s", _records(10))
        blocks = [extent.columns for extent in store.stream("s").extents]
        assert len(blocks) == 3
        assert all(block is not None for block in blocks)
        assert [block.n for block in blocks] == [4, 4, 2]

    def test_heterogeneous_chunk_packs_with_nulls(self):
        store = CosmosStore()
        store.append("s", [{"a": 1}, {"b": 2}])
        (extent,) = store.stream("s").extents
        assert extent.columns.to_rows() == [{"a": 1, "b": None}, {"a": None, "b": 2}]
        assert extent.records == ({"a": 1}, {"b": 2})  # the rows as appended
        # '{"a":1,"b":null}' twice: a missing key is sized as a null.
        assert extent.size_bytes == store.bytes_ingested == 32

    def test_version_bumps_on_mutations(self):
        store = CosmosStore()
        v0 = store.version
        store.append("s", _records(1), t=1.0)
        assert store.version > v0

    def test_read_count_counts_scans(self):
        store = CosmosStore()
        store.append("s", _records(4))
        assert store.read_count == 0
        list(store.read("s"))
        list(store.read_where("s", lambda r: True))
        list(store.extents("s"))
        assert store.read_count == 3

    def test_read_copy_false_skips_defensive_copies(self):
        store = CosmosStore()
        store.append("s", _records(1))
        stored = store.stream("s").extents[0].records[0]
        assert next(store.read("s", copy=False)) is stored
        assert next(store.read("s")) is not stored

    def test_read_where_copy_false(self):
        store = CosmosStore()
        store.append("s", _records(2))
        rows = list(store.read_where("s", lambda r: r["i"] == 0, copy=False))
        assert rows[0] is store.stream("s").extents[0].records[0]


class TestStoreAdoptsBlocks:
    """A block handed to ``append`` becomes the extent: no row twin, no
    second packing — and everything a reader could do before still works."""

    def _adopted(self, n=10, extent_max_records=4):
        store = CosmosStore(extent_max_records=extent_max_records)
        block = ColumnBlock.from_records(_records(n))
        assert store.append("s", block, t=5.0) == -(-n // extent_max_records)
        return store, block

    def test_extents_are_row_ranges_of_the_block(self):
        store, block = self._adopted()
        extents = store.stream("s").extents
        assert [len(extent.records) for extent in extents] == [4, 4, 2]
        assert all(extent.adopted and extent.records is extent.columns for extent in extents)
        assert all(
            np.shares_memory(extent.columns.columns["rtt_us"], block.columns["rtt_us"])
            for extent in extents
        )
        assert store.stream("s").record_count == store.records_ingested == 10

    def test_same_extents_as_the_rows_would_make(self):
        store, _block = self._adopted()
        by_rows = CosmosStore(extent_max_records=4)
        by_rows.append("s", _records(10), t=5.0)
        assert store.bytes_ingested == by_rows.bytes_ingested
        for mine, theirs in zip(store.stream("s").extents, by_rows.stream("s").extents):
            assert (mine.size_bytes, mine.appended_at, mine.replicas) == (
                theirs.size_bytes, theirs.appended_at, theirs.replicas
            )
            assert mine.columns.to_rows() == theirs.columns.to_rows()
        assert list(store.read("s")) == list(by_rows.read("s")) == _records(10)

    def test_rows_are_fresh_on_every_read(self):
        store, _block = self._adopted(n=3)
        for copy in (True, False):
            first, second = list(store.read("s", copy=copy)), list(store.read("s", copy=copy))
            assert first == second == _records(3)
            assert first[0] is not second[0]
        hits = list(store.read_where("s", lambda r: r["i"] != 1))
        assert [row["i"] for row in hits] == [0, 2]

    def test_row_appends_are_not_adopted(self):
        store = CosmosStore()
        store.append("s", _records(2))
        (extent,) = store.stream("s").extents
        assert not extent.adopted and isinstance(extent.records, tuple)

    def test_empty_block_is_a_noop(self):
        store = CosmosStore()
        block = ColumnBlock.from_records(_records(3))
        assert store.append("s", block[:0]) == 0
        assert not store.has_stream("s")


class TestBlockAsRowView:
    def test_len_slice_and_iteration(self):
        block = ColumnBlock.from_records(_records(5))
        assert len(block) == 5
        tail = block[3:]
        assert isinstance(tail, ColumnBlock) and len(tail) == tail.n == 2
        assert list(tail) == _records(5)[3:]
        assert len(block[:100]) == 5 and len(block[5:]) == 0
        assert np.shares_memory(tail.columns["i"], block.columns["i"])


class TestExpressions:
    ROWS = [
        {"a": 1, "b": 10.0, "ok": True, "name": "x"},
        {"a": 2, "b": 20.0, "ok": False, "name": "y"},
        {"a": 3, "b": 5.0, "ok": True, "name": "x"},
    ]

    @pytest.fixture()
    def columns(self):
        return ColumnBlock.from_records(self.ROWS).columns

    # Each expression with its value on each of ROWS, worked out by hand.
    @pytest.mark.parametrize(
        "expr",
        [
            (col("a") == 2, [False, True, False]),
            (col("a") != 2, [True, False, True]),
            (col("a") < 2, [True, False, False]),
            (col("a") <= 2, [True, True, False]),
            (col("a") > 2, [False, False, True]),
            (col("a") >= 2, [False, True, True]),
            (col("ok"), [True, False, True]),
            (~col("ok"), [False, True, False]),
            (col("ok") & (col("b") > 8.0), [True, False, False]),
            (col("ok") | (col("a") == 2), [True, True, True]),
            (col("a") + col("b") > 12, [False, True, False]),
            (col("b") - col("a") < 10, [True, False, True]),
            (col("a") * 2 >= 4, [False, True, True]),
            (col("b") / 2 > 5, [False, True, False]),
            (col("name") == "x", [True, False, True]),
            (col("a").isin([1, 3]), [True, False, True]),
            (lit(True), [True, True, True]),
            (lit(False), [False, False, False]),
        ],
    )
    def test_row_and_column_evaluation_agree(self, expr, columns):
        expr, per_row = expr
        vector = np.broadcast_to(
            np.asarray(expr.eval_columns(columns), dtype=bool), (len(self.ROWS),)
        )
        assert vector.tolist() == per_row

    def test_optional_column_reads_its_default(self, columns):
        for name, default, expected in (
            ("a", col("b"), [1, 2, 3]),  # present: the column
            ("zz", col("b"), [10.0, 20.0, 5.0]),  # absent: another column
            ("zz", -1, [-1, -1, -1]),  # absent: a constant
        ):
            vector = np.broadcast_to(col(name, default=default).eval_columns(columns), (3,))
            assert vector.tolist() == expected
        # Rows that lacked the key hold None there: the default fills those
        # in, and the result is typed as packing would type it.
        sometimes = ColumnBlock.from_records([{"a": 1}, {"a": 2, "zz": 9}]).columns
        filled = col("zz", default=col("a")).eval_columns(sometimes)
        assert filled.dtype == np.int64 and filled.tolist() == [1, 9]
        # Only the default's columns are *required* of a column set.
        assert col("zz", default=col("a")).columns == {"a"}
        assert col("zz", default=0).columns == frozenset()

    def test_expr_tracks_referenced_columns(self):
        expr = col("ok") & (col("b") > 8.0)
        assert expr.columns == {"ok", "b"}
        assert lit(1).columns == frozenset()

    def test_arithmetic_values_agree(self, columns):
        expr = (col("a") + 1) * col("b")
        assert expr.eval_columns(columns).tolist() == [20.0, 60.0, 20.0]
