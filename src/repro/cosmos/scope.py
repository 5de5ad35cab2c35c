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

Two execution paths, one semantics
----------------------------------
A rowset holds either a tuple of row dicts (the *row path*) or a dict of
numpy arrays (the *columnar path*, fed by the store's per-extent
:class:`~repro.cosmos.columnar.ColumnBlock` packing).  Verbs stay columnar
whenever their inputs allow it — ``where`` on a column :class:`Expr`
becomes a boolean mask, ``group_by(...).aggregate(...)`` a lexsort plus
segmented reductions, ``order_by``/``select``/``take`` array operations —
and silently fall back to the per-dict implementation otherwise
(heterogeneous rows, object-typed columns, opaque lambdas, custom
aggregate callables).  Both paths produce identical rows in identical
order; ``tests/cosmos/test_scope_columnar.py`` holds that contract.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.cosmos.columnar import ColumnBlock, Expr, col, concat_blocks, lit

__all__ = [
    "Aggregator",
    "RowSet",
    "GroupedRowSet",
    "agg",
    "col",
    "extract",
    "lit",
]

Row = dict[str, Any]

# dtype kinds vector aggregation can reduce over (bool/int/uint/float).
_NUMERIC_KINDS = frozenset("biuf")


class Aggregator:
    """An aggregate with a per-group row implementation and, optionally, a
    vectorized segmented-reduction implementation.

    Calling it with a list of rows runs the row path, so any Aggregator is
    also a plain ``rows -> value`` callable (the engine's historical
    aggregate contract; custom callables are still accepted and simply pin
    the whole aggregation to the row path).
    """

    __slots__ = ("_row_fn", "_vector_fn", "_needs", "_numeric")

    def __init__(
        self,
        row_fn: Callable[[list[Row]], Any],
        vector_fn: Callable[["_SegmentedColumns"], np.ndarray] | None = None,
        needs: frozenset[str] = frozenset(),
        numeric: frozenset[str] = frozenset(),
    ) -> None:
        self._row_fn = row_fn
        self._vector_fn = vector_fn
        self._needs = needs  # columns that must exist
        self._numeric = numeric  # columns that must be numerically typed

    def __call__(self, rows: list[Row]) -> Any:
        return self._row_fn(rows)

    def supports(self, ctx: "_SegmentedColumns") -> bool:
        if self._vector_fn is None:
            return False
        return all(ctx.has_column(name) for name in self._needs) and all(
            ctx.has_numeric(name) for name in self._numeric
        )

    def vector(self, ctx: "_SegmentedColumns") -> np.ndarray:
        assert self._vector_fn is not None
        return self._vector_fn(ctx)


def _expr_needs(fn: Callable) -> frozenset[str] | None:
    """Referenced columns when ``fn`` is an Expr, else None (opaque)."""
    return fn.columns if isinstance(fn, Expr) else None


class agg:
    """Aggregate factories for :meth:`GroupedRowSet.aggregate`.

    Each factory returns an :class:`Aggregator` — callable as ``rows ->
    value`` on the row path, segment-reducible on the columnar path.
    ``count_if`` and ``ratio`` vectorize only when given column
    :class:`Expr` predicates (e.g. ``col("success")``); plain lambdas work
    but keep the group on the row path.
    """

    @staticmethod
    def count() -> Aggregator:
        return Aggregator(len, lambda ctx: ctx.group_counts())

    @staticmethod
    def count_if(predicate: Callable[[Row], bool]) -> Aggregator:
        def _count(rows: list[Row]) -> int:
            return sum(1 for row in rows if predicate(row))

        needs = _expr_needs(predicate)
        if needs is None:
            return Aggregator(_count)
        return Aggregator(
            _count,
            lambda ctx: ctx.segment_count_if(predicate),
            needs=needs,
        )

    @staticmethod
    def sum(column: str) -> Aggregator:
        def _sum(rows: list[Row]) -> float:
            return sum(row[column] for row in rows)

        return Aggregator(
            _sum,
            lambda ctx: ctx.segment_sum(column),
            needs=frozenset((column,)),
            numeric=frozenset((column,)),
        )

    @staticmethod
    def avg(column: str) -> Aggregator:
        def _avg(rows: list[Row]) -> float:
            if not rows:
                raise ValueError("avg over empty group")
            return sum(row[column] for row in rows) / len(rows)

        return Aggregator(
            _avg,
            lambda ctx: ctx.segment_sum(column) / ctx.group_counts(),
            needs=frozenset((column,)),
            numeric=frozenset((column,)),
        )

    @staticmethod
    def min(column: str) -> Aggregator:
        def _min(rows: list[Row]) -> Any:
            return min(row[column] for row in rows)

        return Aggregator(
            _min,
            lambda ctx: ctx.segment_reduce(column, np.minimum),
            needs=frozenset((column,)),
            numeric=frozenset((column,)),
        )

    @staticmethod
    def max(column: str) -> Aggregator:
        def _max(rows: list[Row]) -> Any:
            return max(row[column] for row in rows)

        return Aggregator(
            _max,
            lambda ctx: ctx.segment_reduce(column, np.maximum),
            needs=frozenset((column,)),
            numeric=frozenset((column,)),
        )

    @staticmethod
    def percentile(column: str, q: float) -> Aggregator:
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")

        def _pct(rows: list[Row]) -> float:
            if not rows:
                raise ValueError("percentile over empty group")
            return float(np.percentile([row[column] for row in rows], q))

        return Aggregator(
            _pct,
            lambda ctx: ctx.segment_percentile(column, q),
            needs=frozenset((column,)),
            numeric=frozenset((column,)),
        )

    @staticmethod
    def ratio(
        numerator: Callable[[Row], bool], denominator: Callable[[Row], bool]
    ) -> Aggregator:
        """count(numerator) / count(denominator); 0.0 for an empty bottom.

        The §4.2 drop-rate heuristic is exactly this shape:
        (3 s probes + 9 s probes) / successful probes.
        """

        def _ratio(rows: list[Row]) -> float:
            bottom = sum(1 for row in rows if denominator(row))
            if bottom == 0:
                return 0.0
            top = sum(1 for row in rows if numerator(row))
            return top / bottom

        top_needs = _expr_needs(numerator)
        bottom_needs = _expr_needs(denominator)
        if top_needs is None or bottom_needs is None:
            return Aggregator(_ratio)

        def _vector(ctx: "_SegmentedColumns") -> np.ndarray:
            top = ctx.segment_count_if(numerator)
            bottom = ctx.segment_count_if(denominator)
            out = np.zeros(len(bottom), dtype=np.float64)
            np.divide(top, bottom, out=out, where=bottom > 0)
            return out

        return Aggregator(_ratio, _vector, needs=top_needs | bottom_needs)


class _SortedColumnView(Mapping):
    """Lazy ``{name -> segment-ordered array}`` view for Expr evaluation."""

    def __init__(self, ctx: "_SegmentedColumns") -> None:
        self._ctx = ctx

    def __getitem__(self, name: str) -> np.ndarray:
        return self._ctx.sorted_column(name)

    def __iter__(self):
        return iter(self._ctx.columns)

    def __len__(self) -> int:
        return len(self._ctx.columns)


class _SegmentedColumns:
    """Columnar group-by state: one stable lexsort, then segment bounds.

    Rows are permuted so each group occupies a contiguous segment; every
    aggregate is then a segmented reduction (``np.*.reduceat``) over the
    shared permutation.  Group output order matches the row path's
    first-appearance order exactly (the lexsort is stable, so the first
    element of each segment carries the group's earliest original index).
    """

    def __init__(self, keys: tuple[str, ...], columns: dict[str, np.ndarray], n: int) -> None:
        self.keys = keys
        self.columns = columns
        self.n = n
        key_arrays = [columns[key] for key in keys]
        if n == 0:
            self.order = np.empty(0, dtype=np.intp)
            self.starts = np.empty(0, dtype=np.intp)
            self.counts = np.empty(0, dtype=np.int64)
            self.n_groups = 0
            self.group_order = np.empty(0, dtype=np.intp)
        else:
            self.order = np.lexsort(tuple(key_arrays[::-1]))
            change = np.zeros(n, dtype=bool)
            change[0] = True
            # One key's sorted copy at a time: a window's string keys are
            # its widest columns, and only the group values are kept.
            for arr in key_arrays:
                sorted_key = arr[self.order]
                change[1:] |= sorted_key[1:] != sorted_key[:-1]
                del sorted_key  # before the next key's copy is made
            self.starts = np.flatnonzero(change)
            self.counts = np.diff(np.append(self.starts, n))
            self.n_groups = len(self.starts)
            # Present groups in first-appearance order, like the row path.
            self.group_order = np.argsort(self.order[self.starts], kind="stable")
        self._sorted_cache: dict[str, np.ndarray] = {}
        self._value_sorted_cache: dict[str, np.ndarray] = {}
        self._view = _SortedColumnView(self)

    # -- capability checks -------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name in self.columns

    def has_numeric(self, name: str) -> bool:
        return (
            name in self.columns
            and self.columns[name].dtype.kind in _NUMERIC_KINDS
        )

    # -- data access -------------------------------------------------------

    def group_counts(self) -> np.ndarray:
        """Per-group sizes, in first-appearance group order."""
        return self.counts[self.group_order]

    def key_values(self) -> list[np.ndarray]:
        """Per-key unique group values, in first-appearance order."""
        firsts = self.order[self.starts][self.group_order]  # each group's first row
        return [self.columns[key][firsts] for key in self.keys]

    def sorted_column(self, name: str) -> np.ndarray:
        cached = self._sorted_cache.get(name)
        if cached is None:
            cached = self._sorted_cache[name] = self.columns[name][self.order]
        return cached

    # -- segmented reductions (all in first-appearance group order) --------

    def segment_sum(self, name: str) -> np.ndarray:
        values = self.sorted_column(name)
        if values.dtype.kind == "b":
            values = values.astype(np.int64)
        if self.n_groups == 0:
            return np.empty(0, dtype=values.dtype)
        return np.add.reduceat(values, self.starts)[self.group_order]

    def segment_reduce(self, name: str, ufunc: np.ufunc) -> np.ndarray:
        values = self.sorted_column(name)
        if self.n_groups == 0:
            return np.empty(0, dtype=values.dtype)
        return ufunc.reduceat(values, self.starts)[self.group_order]

    def segment_count_if(self, predicate: Expr) -> np.ndarray:
        if self.n_groups == 0:
            return np.empty(0, dtype=np.int64)
        mask = np.broadcast_to(
            np.asarray(predicate.eval_columns(self._view), dtype=bool), (self.n,)
        ).astype(np.int64)
        return np.add.reduceat(mask, self.starts)[self.group_order]

    def segment_percentile(self, name: str, q: float) -> np.ndarray:
        """Per-group linear-interpolation percentile, ``np.percentile``-style."""
        if self.n_groups == 0:
            return np.empty(0, dtype=np.float64)
        values = self._value_sorted(name)
        # Floor, ceiling and fraction of the offset *within* the segment,
        # as np.percentile takes them of the group alone: adding the
        # segment start first would round it into the fraction.
        offset = (q / 100.0) * (self.counts - 1)
        low = np.floor(offset)
        t = offset - low
        a = values[self.starts + low.astype(np.intp)]
        b = values[self.starts + np.ceil(offset).astype(np.intp)]
        span = b - a
        # numpy's _lerp: blend from whichever side is nearer, for symmetry.
        result = np.where(t >= 0.5, b - span * (1.0 - t), a + span * t)
        return result[self.group_order]

    def _value_sorted(self, name: str) -> np.ndarray:
        """Column values ascending *within* each group segment."""
        cached = self._value_sorted_cache.get(name)
        if cached is None:
            values = self.sorted_column(name).astype(np.float64, copy=False)
            group_ids = np.repeat(np.arange(self.n_groups), self.counts)
            within = np.lexsort((values, group_ids))
            cached = self._value_sorted_cache[name] = values[within]
        return cached

    # -- row-path fallback -------------------------------------------------

    def row_groups(self) -> dict[tuple, list[Row]]:
        """Materialize ``{key_tuple -> rows}`` in first-appearance order."""
        rows = _rows_from_columns(self.columns)
        groups: dict[tuple, list[Row]] = {}
        for row in rows:
            groups.setdefault(tuple(row[key] for key in self.keys), []).append(row)
        return groups


def _rows_from_columns(columns: dict[str, np.ndarray]) -> list[Row]:
    """Materialize fresh python-scalar row dicts from a column dict."""
    names = list(columns)
    lists = [columns[name].tolist() for name in names]
    return [dict(zip(names, values)) for values in zip(*lists)]


class RowSet:
    """An immutable sequence of rows with SCOPE-style verbs.

    Internally either row-backed (a tuple of dicts) or column-backed (a
    dict of equal-length numpy arrays); see the module docstring.  The
    representation is an execution detail — equality-relevant behaviour is
    identical on both paths.

    Rows yielded by iteration (and the dicts inside a row-backed set) may
    be shared with the store's immutable extents: treat them as frozen.
    :meth:`output` is the mutation boundary — it always returns fresh
    copies.
    """

    def __init__(self, rows: Iterable[Row]) -> None:
        self._rows: tuple[Row, ...] | None = tuple(rows)
        self._columns: dict[str, np.ndarray] | None = None
        self._n = len(self._rows)

    @classmethod
    def of(cls, rows: "RowSet | Iterable[Row]") -> "RowSet":
        """``rows`` as a rowset: itself if it is one, else a row-backed set
        over it — for consumers that accept either a window or plain dicts."""
        return rows if isinstance(rows, RowSet) else cls(rows)

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "RowSet":
        """Build a column-backed rowset from ``{name -> array}``."""
        if not columns:
            return cls([])
        lengths = {len(arr) for arr in columns.values()}
        if len(lengths) != 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        out = cls.__new__(cls)
        out._rows = None
        out._columns = dict(columns)
        out._n = lengths.pop()
        return out

    @property
    def is_columnar(self) -> bool:
        """True when the set currently carries a columnar representation."""
        return self._columns is not None

    def _materialized(self) -> tuple[Row, ...]:
        if self._rows is None:
            assert self._columns is not None
            self._rows = tuple(_rows_from_columns(self._columns))
        return self._rows

    def _columnar_ok(self, *needed: str) -> bool:
        return self._columns is not None and all(
            name in self._columns for name in needed
        )

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._materialized())

    def __bool__(self) -> bool:
        return self._n > 0

    # -- verbs -------------------------------------------------------------

    def where(self, predicate: Callable[[Row], bool]) -> "RowSet":
        """Filter rows.  Column :class:`Expr` predicates run vectorized."""
        if (
            self._columns is not None
            and isinstance(predicate, Expr)
            and predicate.columns <= self._columns.keys()
        ):
            mask = np.broadcast_to(
                np.asarray(predicate.eval_columns(self._columns), dtype=bool),
                (self._n,),
            )
            if mask.all():
                return self
            return RowSet.from_columns(
                {name: arr[mask] for name, arr in self._columns.items()}
            )
        return RowSet(row for row in self._materialized() if predicate(row))

    def select(self, *columns: str, **computed: Callable[[Row], Any]) -> "RowSet":
        """Project columns and/or compute new ones.

        ``select("a", "b", c=lambda r: r["a"] + 1)`` keeps a and b and adds
        c.  With no arguments, it is the identity projection.  Computed
        columns given as :class:`Expr` (including :func:`lit` constants)
        keep the columnar representation.
        """
        if not columns and not computed:
            return self
        if self._columnar_ok(*columns) and all(
            isinstance(fn, Expr) and fn.columns <= self._columns.keys()
            for fn in computed.values()
        ):
            out: dict[str, np.ndarray] = {
                name: self._columns[name] for name in columns
            }
            for name, expr in computed.items():
                value = expr.eval_columns(self._columns)
                arr = np.asarray(value)
                if arr.shape != (self._n,):
                    try:
                        arr = np.full(self._n, value)
                    except (ValueError, TypeError):
                        arr = np.empty(self._n, dtype=object)
                        arr[:] = [value] * self._n
                out[name] = arr
            return RowSet.from_columns(out)

        def project(row: Row) -> Row:
            out_row = {name: row[name] for name in columns}
            for name, fn in computed.items():
                out_row[name] = fn(row)
            return out_row

        return RowSet(project(row) for row in self._materialized())

    def group_by(self, *keys: str) -> "GroupedRowSet":
        if not keys:
            raise ValueError("group_by needs at least one key column")
        if self._columns is not None and all(
            key in self._columns and self._columns[key].dtype.kind != "O"
            for key in keys
        ):
            return GroupedRowSet._columnar(
                keys, _SegmentedColumns(keys, self._columns, self._n)
            )
        groups: dict[tuple, list[Row]] = {}
        for row in self._materialized():
            groups.setdefault(tuple(row[key] for key in keys), []).append(row)
        return GroupedRowSet(keys, groups)

    def order_by(self, *keys: str, desc: bool = False) -> "RowSet":
        """Stable multi-key sort; ``desc`` applies to all keys.

        Ties on every key keep their current order (also under ``desc``),
        so adding tie-breaking keys makes job output deterministic.
        """
        if not keys:
            raise ValueError("order_by needs at least one key column")
        if self._columns is not None and all(
            key in self._columns and self._columns[key].dtype.kind != "O"
            for key in keys
        ):
            key_arrays = [self._columns[key] for key in keys]
            if desc:
                # Ascending with an index-descending final tie-break, then
                # reversed: stable descending, original order on full ties.
                order = np.lexsort(
                    (-np.arange(self._n),) + tuple(key_arrays[::-1])
                )[::-1]
            else:
                order = np.lexsort(tuple(key_arrays[::-1]))
            return RowSet.from_columns(
                {name: arr[order] for name, arr in self._columns.items()}
            )
        return RowSet(
            sorted(
                self._materialized(),
                key=lambda row: tuple(row[key] for key in keys),
                reverse=desc,
            )
        )

    def take(self, n: int) -> "RowSet":
        if n < 0:
            raise ValueError(f"take needs n >= 0: {n}")
        if self._columns is not None:
            return RowSet.from_columns(
                {name: arr[:n] for name, arr in self._columns.items()}
            )
        return RowSet(self._materialized()[:n])

    def union(self, other: "RowSet") -> "RowSet":
        return RowSet(list(self._materialized()) + list(other._materialized()))

    def distinct(self, *columns: str) -> "RowSet":
        """Rows with unique values of ``columns`` (first occurrence wins)."""
        if not columns:
            raise ValueError("distinct needs at least one column")
        seen: set[tuple] = set()
        rows = []
        for row in self._materialized():
            key = tuple(row[column] for column in columns)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return RowSet(rows)

    def join(
        self,
        other: "RowSet",
        on: tuple[str, ...] | list[str],
        how: str = "inner",
        suffix: str = "_right",
    ) -> "RowSet":
        """Hash join on equal values of the ``on`` columns.

        ``how`` is ``inner`` or ``left`` (left rows with no match keep their
        columns, missing right columns become ``None``).  Right-side columns
        that collide with left-side names get ``suffix`` appended, SCOPE's
        duplicate-column behaviour.
        """
        if not on:
            raise ValueError("join needs at least one key column")
        if how not in ("inner", "left"):
            raise ValueError(f"unsupported join type: {how!r}")
        keys = tuple(on)
        other_rows = other._materialized()
        index: dict[tuple, list[Row]] = {}
        for row in other_rows:
            index.setdefault(tuple(row[key] for key in keys), []).append(row)
        right_columns: set[str] = set()
        for row in other_rows:
            right_columns.update(row)
        right_extra = sorted(right_columns - set(keys))

        joined: list[Row] = []
        for left in self._materialized():
            matches = index.get(tuple(left[key] for key in keys), [])
            if not matches:
                if how == "left":
                    out = dict(left)
                    for name in right_extra:
                        out[name if name not in left else name + suffix] = None
                    joined.append(out)
                continue
            for right in matches:
                out = dict(left)
                for name in right_extra:
                    target = name if name not in left else name + suffix
                    out[target] = right.get(name)
                joined.append(out)
        return RowSet(joined)

    def column(self, name: str) -> list[Any]:
        if self._columns is not None:
            return self._columns[name].tolist()
        return [row[name] for row in self._materialized()]

    def output(self) -> list[Row]:
        """Materialize as plain dicts (SCOPE's OUTPUT statement).

        Always fresh copies — the only rows a caller may mutate.  A
        column-backed set builds them straight from its columns, once, and
        keeps none: a window shared through a cache pins arrays, not rows.
        """
        if self._rows is None:
            return _rows_from_columns(self._columns)
        return [dict(row) for row in self._rows]


class GroupedRowSet:
    """The result of :meth:`RowSet.group_by`, awaiting aggregation."""

    def __init__(self, keys: tuple[str, ...], groups: dict[tuple, list[Row]]) -> None:
        self._keys = tuple(keys)
        self._groups: dict[tuple, list[Row]] | None = groups
        self._ctx: _SegmentedColumns | None = None

    @classmethod
    def _columnar(
        cls, keys: tuple[str, ...], ctx: _SegmentedColumns
    ) -> "GroupedRowSet":
        out = cls.__new__(cls)
        out._keys = tuple(keys)
        out._groups = None
        out._ctx = ctx
        return out

    def __len__(self) -> int:
        if self._ctx is not None:
            return self._ctx.n_groups
        return len(self._groups)

    def aggregate(self, **aggregates: Callable[[list[Row]], Any]) -> RowSet:
        """Compute one row per group: key columns plus each aggregate.

        All-:class:`Aggregator` requests over vectorizable columns reduce
        segment-wise without materializing any group; otherwise groups are
        materialized and each aggregate runs as a ``rows -> value``
        callable (the historical contract, still honoured for custom
        functions).
        """
        if not aggregates:
            raise ValueError("aggregate needs at least one aggregate column")
        if self._ctx is not None and all(
            isinstance(fn, Aggregator) and fn.supports(self._ctx)
            for fn in aggregates.values()
        ):
            out_columns = dict(zip(self._keys, self._ctx.key_values()))
            for name, fn in aggregates.items():
                out_columns[name] = np.asarray(fn.vector(self._ctx))
            return RowSet.from_columns(out_columns)

        groups = self._groups if self._groups is not None else self._ctx.row_groups()
        rows = []
        for key_values, group_rows in groups.items():
            row: Row = dict(zip(self._keys, key_values))
            for name, fn in aggregates.items():
                row[name] = fn(group_rows)
            rows.append(row)
        return RowSet(rows)


def extract(
    store,
    stream: str,
    predicate: Callable[[Row], bool] | None = None,
    appended_since: float | None = None,
) -> RowSet:
    """SCOPE's EXTRACT: read a Cosmos stream into a rowset.

    Reads whole extents in one store scan (``appended_since`` prunes
    extents older than the window, see
    :meth:`repro.cosmos.store.CosmosStore.extents`).  When every live
    extent carries a :class:`~repro.cosmos.columnar.ColumnBlock` of one
    shared schema, the result is column-backed and ``predicate`` — ideally
    a column :class:`Expr` — is applied as a vectorized mask; otherwise
    rows are referenced straight from the immutable extents (no defensive
    copies: the SCOPE layer never mutates extracted rows, and
    :meth:`RowSet.output` copies on the way out).
    """
    extents = list(store.extents(stream, appended_since))
    blocks = [extent.columns for extent in extents]
    if blocks and all(block is not None for block in blocks):
        merged = concat_blocks(blocks)
        if merged is not None:
            rows = RowSet.from_columns(merged.columns)
            return rows if predicate is None else rows.where(predicate)
    out: list[Row] = []
    for extent in extents:
        if predicate is None:
            out.extend(extent.records)
        else:
            out.extend(row for row in extent.records if predicate(row))
    return RowSet(out)
