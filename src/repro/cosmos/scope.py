"""A SCOPE-flavoured rowset query engine (§2.3).

SCOPE "is a declarative and extensible scripting language ... similar to SQL"
whose users "focus on their data instead of the underlying storage".  The DSA
jobs in :mod:`repro.core.dsa.scope_jobs` are written against this engine and
read like their SCOPE originals:

    rows = (
        extract(store, "pingmesh/latency")
        .where(col("success"))
        .group_by("src_pod", "dst_pod")
        .aggregate(
            count=agg.count(),
            p50_us=agg.percentile("rtt_us", 50),
            p99_us=agg.percentile("rtt_us", 99),
        )
        .order_by("p99_us", "src_pod", desc=True)
        .output()
    )

Rowsets are immutable: every verb returns a new :class:`RowSet`.
Aggregators are small factory functions under :class:`agg`.

One engine, over columns
------------------------
A rowset is one :class:`~repro.cosmos.columnar.ColumnBlock` — a dict of
equal-length numpy arrays.  :func:`extract` masks each of a stream's
extents and concatenates what they keep, one copy; rows handed in as dicts
(``RowSet(rows)``) are packed once, on entry.  ``where`` turns a column
:class:`Expr` into a boolean mask, ``group_by(...).aggregate(...)`` is a
stable lexsort plus segmented reductions, ``select`` and ``order_by``
are array operations.  Predicates and computed columns are ``col``/``lit``
expressions: a verb handed a Python callable, or asked to sort or reduce a
column whose values are not of one scalar type, raises :class:`TypeError`.
Coded columns stay codes through the verbs (``group_by`` keys on them);
sorts and expressions read their values, and rows exist only on the way
out — iteration, :meth:`RowSet.column`, :meth:`RowSet.output` — built
fresh, and decoded, from the columns every time.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.cosmos.columnar import (
    ColumnBlock, Expr, LazyColumns, col, concat_blocks, lit, pack_values,
)

__all__ = [
    "Aggregator",
    "RowSet",
    "GroupedRowSet",
    "agg",
    "col",
    "extract",
    "lit",
    "sorted_percentile",
]

Row = dict[str, Any]

# dtype kinds a sort key may have (bool/int/uint/float/str), and the ones a
# reduction may have.
_KEY_KINDS = "biufU"
_NUMERIC_KINDS = "biuf"


def sorted_percentile(values: np.ndarray, q, counts, starts=0) -> np.ndarray:
    """``np.percentile(segment, q)``, bit for bit, of the ascending segments
    ``values[starts:starts + counts]``; ``q``, ``counts`` and ``starts``
    broadcast (several percentiles of one segment, or one of many)."""
    # Floor, ceiling and fraction of the offset *within* the segment, as
    # np.percentile takes them of the segment alone: adding the segment
    # start first would round it into the fraction.
    offset = (np.asarray(q) / 100.0) * (counts - 1)
    low = np.floor(offset)
    t = offset - low
    a = values[starts + low.astype(np.intp)]
    b = values[starts + np.ceil(offset).astype(np.intp)]
    span = b - a
    # numpy's _lerp: blend from whichever side is nearer, for symmetry.
    return np.where(t >= 0.5, b - span * (1.0 - t), a + span * t)


def _typed(values: np.ndarray, name: str, kinds: str, verb: str) -> np.ndarray:
    """``values`` as packing types them — an ``object`` column of one scalar
    kind re-types — or a TypeError naming the column if ``verb`` cannot run
    on its kind."""
    if values.dtype.kind == "O":
        values = pack_values(values.tolist())
    if values.dtype.kind not in kinds:
        raise TypeError(f"cannot {verb} column {name!r} of dtype {values.dtype}")
    return values


def _require_expr(value: Any, verb: str) -> None:
    if not isinstance(value, Expr):
        raise TypeError(f"{verb} takes a col/lit expression, not {value!r}")


class Aggregator:
    """One value per group: a segmented reduction over the grouped columns,
    in first-appearance group order.  Built by the :class:`agg` factories."""

    __slots__ = ("reduce",)

    def __init__(self, reduce: Callable[["_SegmentedColumns"], np.ndarray]) -> None:
        self.reduce = reduce


class agg:
    """Aggregate factories for :meth:`GroupedRowSet.aggregate`.

    ``count_if`` and ``ratio`` take column :class:`Expr` predicates, e.g.
    ``col("success")``.
    """

    @staticmethod
    def count() -> Aggregator:
        return Aggregator(lambda ctx: ctx.group_counts())

    @staticmethod
    def count_if(predicate: Expr) -> Aggregator:
        _require_expr(predicate, "count_if")
        return Aggregator(lambda ctx: ctx.segment_count_if(predicate))

    @staticmethod
    def sum(column: str) -> Aggregator:
        return Aggregator(lambda ctx: ctx.segment_sum(column))

    @staticmethod
    def min(column: str) -> Aggregator:
        return Aggregator(lambda ctx: ctx.segment_reduce(column, np.minimum))

    @staticmethod
    def max(column: str) -> Aggregator:
        return Aggregator(lambda ctx: ctx.segment_reduce(column, np.maximum))

    @staticmethod
    def percentile(column: str, q: float) -> Aggregator:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        return Aggregator(lambda ctx: ctx.segment_percentile(column, q))

    @staticmethod
    def ratio(numerator: Expr, denominator: Expr) -> Aggregator:
        """count(numerator) / count(denominator); 0.0 for an empty bottom.

        The §4.2 drop-rate heuristic is exactly this shape:
        (3 s probes + 9 s probes) / successful probes.
        """
        _require_expr(numerator, "ratio")
        _require_expr(denominator, "ratio")

        def reduce(ctx: "_SegmentedColumns") -> np.ndarray:
            top = ctx.segment_count_if(numerator)
            bottom = ctx.segment_count_if(denominator)
            out = np.zeros(len(bottom), dtype=np.float64)
            np.divide(top, bottom, out=out, where=bottom > 0)
            return out

        return Aggregator(reduce)


class _SegmentedColumns:
    """Group-by state: one stable lexsort, then segment bounds.

    Rows are permuted so each group occupies a contiguous segment; every
    aggregate is then a segmented reduction (``np.*.reduceat``) over the
    shared permutation.  Groups come out in first-appearance order (the
    lexsort is stable, so the first element of each segment carries the
    group's earliest original index).
    """

    def __init__(self, keys: tuple[str, ...], block: ColumnBlock) -> None:
        self.columns = columns = block.columns
        self.vocab = block.vocab  # a coded key groups on its codes
        self.n = n = block.n
        self.key_arrays = [
            _typed(columns[key], key, _KEY_KINDS, "group by") for key in keys
        ]
        if n == 0:
            self.order = np.empty(0, dtype=np.intp)
            self.starts = np.empty(0, dtype=np.intp)
            self.counts = np.empty(0, dtype=np.int64)
            self.n_groups = 0
            self.group_order = np.empty(0, dtype=np.intp)
        else:
            self.order = np.lexsort(tuple(self.key_arrays[::-1]))
            change = np.zeros(n, dtype=bool)
            change[0] = True
            # One key's sorted copy at a time: a window's string keys are
            # its widest columns, and only the group values are kept.
            for arr in self.key_arrays:
                sorted_key = arr[self.order]
                change[1:] |= sorted_key[1:] != sorted_key[:-1]
                del sorted_key  # before the next key's copy is made
            self.starts = np.flatnonzero(change)
            self.counts = np.diff(np.append(self.starts, n))
            self.n_groups = len(self.starts)
            # Present groups in first-appearance order.
            self.group_order = np.argsort(self.order[self.starts], kind="stable")
        self._sorted_cache: dict[str, np.ndarray] = {}
        self._value_sorted_cache: dict[str, np.ndarray] = {}

    # -- data access -------------------------------------------------------

    def group_counts(self) -> np.ndarray:
        """Per-group sizes, in first-appearance group order."""
        return self.counts[self.group_order]

    def key_values(self) -> list[np.ndarray]:
        """Per-key unique group values, in first-appearance order."""
        firsts = self.order[self.starts][self.group_order]  # each group's first row
        return [arr[firsts] for arr in self.key_arrays]

    def sorted_column(self, name: str) -> np.ndarray:
        """A column in segment order, as reductions and expressions read it."""
        cached = self._sorted_cache.get(name)
        if cached is None:
            values, vocab = self.columns[name][self.order], self.vocab.get(name)
            cached = self._sorted_cache[name] = values if vocab is None else vocab.decode(values)
        return cached

    def _numeric(self, name: str) -> np.ndarray:
        return _typed(self.sorted_column(name), name, _NUMERIC_KINDS, "reduce")

    # -- segmented reductions (all in first-appearance group order) --------

    def segment_sum(self, name: str) -> np.ndarray:
        values = self._numeric(name)
        if values.dtype.kind == "b":
            values = values.astype(np.int64)
        if self.n_groups == 0:
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values, self.starts)[self.group_order]

    def segment_reduce(self, name: str, ufunc: np.ufunc) -> np.ndarray:
        values = self._numeric(name)
        if self.n_groups == 0:
            return np.empty(0, dtype=values.dtype)
        return ufunc.reduceat(values, self.starts)[self.group_order]

    def segment_count_if(self, predicate: Expr) -> np.ndarray:
        if self.n_groups == 0:
            return np.empty(0, dtype=np.int64)
        # A view per read: one kept on self would be a cycle through its bound
        # method, holding the order and sorted copies until a full collection.
        view = LazyColumns(self.sorted_column)
        mask = np.broadcast_to(
            np.asarray(predicate.eval_columns(view), dtype=bool), (self.n,)
        ).astype(np.int64)
        return np.add.reduceat(mask, self.starts)[self.group_order]

    def segment_percentile(self, name: str, q: float) -> np.ndarray:
        """Per-group linear-interpolation percentile, ``np.percentile``-style."""
        if self.n_groups == 0:
            return np.empty(0, dtype=np.float64)
        values = self._value_sorted(name)
        return sorted_percentile(values, q, self.counts, self.starts)[self.group_order]

    def _value_sorted(self, name: str) -> np.ndarray:
        """Column values ascending *within* each group segment."""
        cached = self._value_sorted_cache.get(name)
        if cached is None:
            values = self._numeric(name).astype(np.float64, copy=False)
            group_ids = np.repeat(np.arange(self.n_groups), self.counts)
            within = np.lexsort((values, group_ids))
            cached = self._value_sorted_cache[name] = values[within]
        return cached


class RowSet:
    """An immutable sequence of rows with SCOPE-style verbs, held as one
    :class:`~repro.cosmos.columnar.ColumnBlock` (see the module docstring).

    Iteration, :meth:`column` and :meth:`output` are the mutation
    boundary: they build fresh Python values from the columns each time and
    keep none, so a window shared through a cache pins arrays, not rows.
    A set with no rows may have no columns at all (``RowSet([])``, or a
    window read before its stream exists); every verb returns it as is.
    """

    __slots__ = ("_block",)

    def __init__(self, rows: Iterable[Row] = ()) -> None:
        self._block = ColumnBlock.from_records(list(rows))

    @classmethod
    def of(cls, rows: "RowSet | Iterable[Row]") -> "RowSet":
        """``rows`` as a rowset: itself if it is one, else packed — for
        consumers that accept either a window or plain dicts."""
        return rows if isinstance(rows, RowSet) else cls(rows)

    @classmethod
    def from_columns(
        cls, columns: Mapping[str, np.ndarray], vocab: Mapping | None = None
    ) -> "RowSet":
        """A rowset over ``{name -> array}`` (shared), coded where ``vocab`` says."""
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        out = cls.__new__(cls)
        out._block = ColumnBlock(dict(columns), lengths.pop() if lengths else 0, vocab or {})
        return out

    def __len__(self) -> int:
        return self._block.n

    def __iter__(self):
        return iter(self.output())

    def __bool__(self) -> bool:
        return self._block.n > 0

    # -- verbs -------------------------------------------------------------

    def where(self, predicate: Expr) -> "RowSet":
        """The rows for which the column expression ``predicate`` holds."""
        _require_expr(predicate, "where")
        columns = self._block.columns
        if not columns:
            return self
        readable = LazyColumns(self._block.decoded)  # an expression reads values
        mask = np.broadcast_to(
            np.asarray(predicate.eval_columns(readable), dtype=bool), (len(self),)
        )
        if mask.all():
            return self
        return RowSet.from_columns({k: a[mask] for k, a in columns.items()}, self._block.vocab)

    def select(self, *columns: str, **computed: Expr) -> "RowSet":
        """Project columns and/or compute new ones.

        ``select("a", "b", c=col("a") + 1)`` keeps a and b and adds c; a
        computed :func:`lit` constant is repeated down the column.  With no
        arguments, it is the identity projection.
        """
        for expr in computed.values():
            _require_expr(expr, "select")
        source = self._block.columns
        if not source or not (columns or computed):
            return self
        n = len(self)
        out: dict[str, np.ndarray] = {name: source[name] for name in columns}
        readable = LazyColumns(self._block.decoded)
        for name, expr in computed.items():
            value = expr.eval_columns(readable)
            arr = np.asarray(value)
            if arr.shape != (n,):
                try:
                    arr = np.full(n, value)
                except (ValueError, TypeError):
                    arr = np.empty(n, dtype=object)
                    arr[:] = [value] * n
            out[name] = arr
        vocab = {k: v for k, v in self._block.vocab.items() if k in columns and k not in computed}
        return RowSet.from_columns(out, vocab)

    def group_by(self, *keys: str) -> "GroupedRowSet":
        if not keys:
            raise ValueError("group_by needs at least one key column")
        block = self._block
        return GroupedRowSet(keys, _SegmentedColumns(keys, block) if block.columns else None)

    def order_by(self, *keys: str, desc: bool = False) -> "RowSet":
        """Stable multi-key sort by value (a coded key's too); ``desc`` applies to all keys.

        Ties on every key keep their current order (also under ``desc``),
        so adding tie-breaking keys makes job output deterministic.
        """
        if not keys:
            raise ValueError("order_by needs at least one key column")
        columns, vocab = self._block.columns, self._block.vocab
        if not columns:
            return self
        key_arrays = [_typed(self._block.decoded(k), k, _KEY_KINDS, "order by") for k in keys]
        if desc:
            # Ascending with an index-descending final tie-break, then
            # reversed: stable descending, original order on full ties.
            order = np.lexsort((-np.arange(len(self)),) + tuple(key_arrays[::-1]))[::-1]
        else:
            order = np.lexsort(tuple(key_arrays[::-1]))
        return RowSet.from_columns({k: a[order] for k, a in columns.items()}, vocab)

    def column(self, name: str) -> list[Any]:
        return self._block.decoded(name).tolist() if self._block.columns else []

    def output(self) -> list[Row]:
        """Materialize as plain dicts (SCOPE's OUTPUT statement): fresh
        copies every call — the only rows a caller may mutate."""
        return self._block.to_rows()


class GroupedRowSet:
    """The result of :meth:`RowSet.group_by`, awaiting aggregation."""

    def __init__(self, keys: tuple[str, ...], ctx: _SegmentedColumns | None) -> None:
        self._keys = tuple(keys)
        self._ctx = ctx  # None for a set with no rows and no columns

    def __len__(self) -> int:
        return self._ctx.n_groups if self._ctx is not None else 0

    def aggregate(self, **aggregates: Aggregator) -> RowSet:
        """One row per group, in first-appearance order: the key columns,
        then each :class:`agg` aggregate, reduced segment-wise without
        materializing any group."""
        if not aggregates:
            raise ValueError("aggregate needs at least one aggregate column")
        for name, fn in aggregates.items():
            if not isinstance(fn, Aggregator):
                raise TypeError(f"aggregate {name!r} is not an agg.* aggregate: {fn!r}")
        if self._ctx is None:
            return RowSet()
        out_columns = dict(zip(self._keys, self._ctx.key_values()))
        for name, fn in aggregates.items():
            out_columns[name] = np.asarray(fn.reduce(self._ctx))
        vocab = self._ctx.vocab
        kept = {key: vocab[key] for key in self._keys if key in vocab and key not in aggregates}
        return RowSet.from_columns(out_columns, kept)


def extract(
    store,
    stream: str,
    predicate: Expr | None = None,
    appended_since: float | None = None,
) -> RowSet:
    """SCOPE's EXTRACT: read a Cosmos stream into a rowset.

    Reads whole extents in one store scan (``appended_since`` prunes
    extents older than the window, see
    :meth:`repro.cosmos.store.CosmosStore.extents`), masks each extent's
    block with ``predicate`` (a column :class:`Expr`) — an extent it keeps
    whole is not copied — and concatenates what is kept: the window is
    copied once.  Extents that disagree on schema give the union of their
    columns, ``None`` where an extent lacked one.
    """
    blocks = [extent.columns for extent in store.extents(stream, appended_since)]
    if predicate is not None:
        blocks = [RowSet.from_columns(b.columns, b.vocab).where(predicate)._block for b in blocks]
    window = concat_blocks(blocks)
    return RowSet.from_columns(window.columns, window.vocab)
