"""Columnar extents and the expression language of the SCOPE engine.

The paper's DSA layer digests "more than 200 billion probes" and "24
terabytes" per day (§2.3, §3.5); per-record Python processing cannot keep
that shape even at simulator scale.  This module provides the two pieces
the analytics half runs on:

* :class:`ColumnBlock` — an extent's records, column-major: a dict of numpy
  arrays (one per record field), packed once at append time or adopted from
  a producer that already holds columns.  The SCOPE engine concatenates
  blocks into a :class:`~repro.cosmos.scope.RowSet` and runs filters and
  aggregations as array operations.
* :class:`Vocabulary` — an append-only intern table: a *coded* text column
  holds int32 codes into one, and reads (rows, expressions) as its values.
* :func:`col` / :func:`lit` — a tiny expression language for predicates and
  computed columns, evaluated against a ``{name -> ndarray}`` mapping.

Packing is type-strict: a column becomes a typed array only when every
value is of one homogeneous scalar type (bool / int / float / str —
int+float mixes promote to float).  Anything else (``None``, lists, mixed
types) becomes an ``object`` array.  Rows need not share a schema: the
block's columns are the union of their keys in first-appearance order, and
a row without a key holds ``None`` there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = ["ColumnBlock", "Expr", "Vocabulary", "col", "concat_blocks", "lit", "pack_values"]

Record = dict[str, Any]

# Scalar types allowed in typed (non-object) columns.  Exact-type checks:
# bool is an int subclass, so set membership (not isinstance) is deliberate.
_BOOL_TYPES = (bool, np.bool_)
_INT_TYPES = (int, np.integer)
_FLOAT_TYPES = (float, np.floating)
_STR_TYPES = (str, np.str_)


def pack_values(values: list[Any]) -> np.ndarray:
    """One column as the narrowest safe numpy array.

    Never lets numpy coerce across kinds (``np.asarray([1, "a"])`` would
    silently stringify the int): mixed-kind columns become object arrays.
    """
    saw_bool = saw_int = saw_float = saw_str = saw_other = False
    for value in values:
        if isinstance(value, _BOOL_TYPES):
            saw_bool = True
        elif isinstance(value, _INT_TYPES):
            saw_int = True
        elif isinstance(value, _FLOAT_TYPES):
            saw_float = True
        elif isinstance(value, _STR_TYPES):
            saw_str = True
        else:
            saw_other = True
            break
    if saw_other or (saw_bool and (saw_int or saw_float or saw_str)) or (
        saw_str and (saw_int or saw_float)
    ):
        arr = np.empty(len(values), dtype=object)
        arr[:] = values
        return arr
    if saw_bool:
        return np.array(values, dtype=bool)
    if saw_float:
        return np.array(values, dtype=np.float64)
    if saw_int:
        return np.array(values, dtype=np.int64)
    if saw_str:
        return np.array(values)  # fixed-width unicode
    # Empty column (no values): typed as float, nothing to aggregate anyway.
    return np.array(values, dtype=np.float64)


class Vocabulary(dict):
    """``{value -> code}``, append-only: a new value's code is the next one
    (the order it was first seen), so a code never changes."""

    def __missing__(self, value: str) -> int:
        code = self[value] = len(self)
        return code

    def encode(self, values: Iterable[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, values), dtype=np.int32)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        if len(self._by_code) != len(self):
            self._by_code = np.array(list(self), dtype=str)
        return self._by_code[codes]

    _by_code = np.empty(0, dtype=str)  # the values, indexed by code


@dataclass(frozen=True)
class ColumnBlock:
    """Column-major view of one extent: ``{column -> array of length n}``.

    Immutable by convention (arrays are shared, never written); the store
    and the SCOPE engine both treat blocks as read-only.

    A block is also a read-only *lazy row view* of itself — ``len`` and
    slicing never leave the arrays, iteration materializes fresh row dicts
    that the block does not retain — which is what lets the store adopt an
    uploader's block as an extent's ``records`` without a row twin.
    ``vocab`` maps each coded column to its :class:`Vocabulary`.
    """

    columns: dict[str, np.ndarray]
    n: int
    vocab: Mapping[str, Vocabulary] = field(default_factory=dict)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.to_rows())

    def __getitem__(self, rows: slice) -> "ColumnBlock":
        """A row range of the block, as views of its arrays."""
        return ColumnBlock(
            columns={name: arr[rows] for name, arr in self.columns.items()},
            n=len(range(*rows.indices(self.n))),
            vocab=self.vocab,
        )

    def decoded(self, name: str) -> np.ndarray:
        """One column's values: a coded column decoded, any other as it is."""
        vocab = self.vocab.get(name)
        return self.columns[name] if vocab is None else vocab.decode(self.columns[name])

    @classmethod
    def from_records(cls, records: Sequence[Record]) -> "ColumnBlock":
        """Pack row dicts: one column per key any of them has, in
        first-appearance order, ``None`` where a row lacks the key."""
        names = dict.fromkeys(records[0]) if records else {}
        for record in records:
            if record.keys() != names.keys():
                names.update(dict.fromkeys(record))
        columns = {
            name: pack_values([record.get(name) for record in records])
            for name in names
        }
        return cls(columns=columns, n=len(records))

    # -- size accounting ---------------------------------------------------

    def size_bytes(self) -> int:
        """Approximate JSON-serialized size, computed per column.

        Typed columns are measured with array arithmetic (a coded one as
        its values), object columns with a single ``json.dumps`` of the
        column — a row that lacked a key counts it as ``null``.  Approximate
        is fine — the store's contract has always been "approximate
        serialized size".
        """
        if self.n == 0:
            return 0
        # Per record: braces + (ncols - 1) commas; per column: '"key":'.
        total = self.n * (2 + max(len(self.columns) - 1, 0))
        for name in self.columns:
            total += self.n * (len(name) + 3)
            total += _column_value_bytes(self.decoded(name))
        return total

    # -- row materialization ------------------------------------------------

    def to_rows(self) -> list[Record]:
        """Materialize python-scalar row dicts (tolist denumpyfies)."""
        names = list(self.columns)
        lists = [self.decoded(name).tolist() for name in names]
        return [dict(zip(names, values)) for values in zip(*lists)]


class LazyColumns(dict):
    """``{name -> array}`` whose arrays ``get(name)`` makes when first read
    (a KeyError from it: no such column)."""

    def __init__(self, get: Callable[[str], np.ndarray]) -> None:
        self._get = get

    def __missing__(self, name: str) -> np.ndarray:
        column = self[name] = self._get(name)
        return column


def _column_value_bytes(arr: np.ndarray) -> int:
    """Vectorized serialized-size estimate of one column's values."""
    kind = arr.dtype.kind
    if kind == "b":
        # "true" / "false"
        return int(np.where(arr, 4, 5).sum())
    if kind in ("i", "u"):
        vals = arr.astype(np.int64, copy=False)
        magnitude = np.maximum(np.abs(vals), 1)
        digits = np.floor(np.log10(magnitude)).astype(np.int64) + 1
        return int((digits + (vals < 0)).sum())
    if kind == "f":
        # repr's length, not repr: integer digits, a point and the fewest
        # decimals (up to six) that give the value back, else 17 digits.
        size = np.nan_to_num(np.abs(arr), nan=0.0, posinf=0.0, neginf=0.0)
        exponent = np.floor(np.log10(np.maximum(size, 1e-300)))
        length = 18 + np.maximum(-exponent, 0)
        for decimals in range(6, -1, -1):
            short = np.round(size, decimals) == size
            length[short] = np.maximum(exponent[short], 0) + 2 + max(decimals, 1)
        return int(length.sum()) + int(np.count_nonzero(arr < 0))
    if kind == "U":
        return int((np.char.str_len(arr) + 2).sum())
    # Object column: one dumps for the whole column, minus list syntax.
    payload = json.dumps(arr.tolist(), default=str, separators=(",", ":"))
    return len(payload) - 2 - max(len(arr) - 1, 0)


def concat_blocks(blocks: Sequence[ColumnBlock]) -> ColumnBlock:
    """Concatenate blocks, rows in order, with the union of their columns.

    A column every block codes against one vocabulary stays coded;
    otherwise coded parts are decoded.  A block without one of the columns
    holds ``None`` there (an ``object`` part).  Columns whose dtypes
    disagree across blocks degrade to object arrays only when numpy cannot
    promote them safely (bool/str vs numeric, or a ``None`` part); int/float
    mixes promote to float as in packing.
    """
    if len(blocks) == 1:
        return blocks[0]
    names = dict.fromkeys(name for block in blocks for name in block.columns)
    columns: dict[str, np.ndarray] = {}
    vocab: dict[str, Vocabulary] = {}
    for name in names:
        shared = blocks[0].vocab.get(name)
        if shared is not None and all(block.vocab.get(name) is shared for block in blocks):
            vocab[name] = shared  # its codes concatenate as the integers they are
        parts = [
            (block.columns[name] if name in vocab else block.decoded(name))
            if name in block.columns
            else np.full(block.n, None, dtype=object)
            for block in blocks
        ]
        kinds = {part.dtype.kind for part in parts}
        if not (len(kinds) == 1 or kinds <= {"i", "u", "f"}):
            parts = [part.astype(object) for part in parts]
        columns[name] = np.concatenate(parts)
    return ColumnBlock(columns=columns, n=sum(block.n for block in blocks), vocab=vocab)


# -- the expression language -------------------------------------------------


class Expr:
    """A column expression, evaluated vectorized by :meth:`eval_columns`
    against a ``{name -> ndarray}`` mapping.

    Combine with ``== != < <= > >= + - * / & | ~`` and :meth:`isin`.  Use
    ``&``/``|``/``~``: Python cannot overload ``and``/``or``/``not``.
    """

    __slots__ = ("_fn", "columns")

    def __init__(
        self, fn: Callable[[Mapping[str, np.ndarray]], Any], columns: frozenset[str]
    ) -> None:
        self._fn = fn
        self.columns = columns  # what a column set must hold to evaluate it

    def eval_columns(self, columns: Mapping[str, np.ndarray]) -> Any:
        return self._fn(columns)

    # -- combinators -------------------------------------------------------

    def _binary(self, other: Any, op: Callable[[Any, Any], Any]) -> "Expr":
        other = _as_expr(other)
        return Expr(
            lambda cols, a=self._fn, b=other._fn: op(a(cols), b(cols)),
            self.columns | other.columns,
        )

    def __eq__(self, other: Any) -> "Expr":  # type: ignore[override]
        return self._binary(other, lambda a, b: a == b)

    def __ne__(self, other: Any) -> "Expr":  # type: ignore[override]
        return self._binary(other, lambda a, b: a != b)

    def __lt__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a < b)

    def __le__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a <= b)

    def __gt__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a > b)

    def __ge__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a >= b)

    def __add__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a * b)

    def __truediv__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: a / b)

    def __and__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: np.logical_and(a, b))

    def __or__(self, other: Any) -> "Expr":
        return self._binary(other, lambda a, b: np.logical_or(a, b))

    def __invert__(self) -> "Expr":
        return Expr(lambda cols, f=self._fn: np.logical_not(f(cols)), self.columns)

    def isin(self, values: Iterable[Any]) -> "Expr":
        allowed = np.array(sorted(set(values), key=repr), dtype=object)
        return Expr(lambda cols, f=self._fn: np.isin(f(cols), allowed), self.columns)

    def __hash__(self) -> int:  # __eq__ is overloaded, keep Exprs usable in sets
        return id(self)

    def __repr__(self) -> str:
        return f"Expr(columns={sorted(self.columns)})"


def _as_expr(value: Any) -> Expr:
    return value if isinstance(value, Expr) else lit(value)


def col(name: str, default: Any = None) -> Expr:
    """Reference a column: ``col("rtt_us") >= 2.5e6``.

    With ``default`` (a value or an :class:`Expr`) the column is optional,
    ``col("dst_dc", default=col("src_dc"))``: a column set without it reads
    the default, and where it holds ``None`` — the rows that lacked the key
    when they were packed — the default fills in, the result typed as
    packing would type it.
    """
    if default is None:
        return Expr(lambda cols: cols[name], frozenset((name,)))
    fallback = _as_expr(default)

    def read(cols: Mapping[str, np.ndarray]) -> Any:
        try:
            values = cols[name]
        except KeyError:
            return fallback.eval_columns(cols)
        if values.dtype.kind != "O":
            return values
        fill = np.broadcast_to(fallback.eval_columns(cols), values.shape).tolist()
        return pack_values(
            [dflt if value is None else value for value, dflt in zip(values.tolist(), fill)]
        )

    return Expr(read, fallback.columns)


def lit(value: Any) -> Expr:
    """A constant expression (e.g. ``select(t=lit(window_end))``)."""
    return Expr(lambda cols: value, frozenset())
