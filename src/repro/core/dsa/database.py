"""The results database behind visualization, reports and alerts (§3.2).

"The analyzed results are then stored in an SQL database.  Visualization,
reports and alerts are generated based on the data in this database."

A small relational-style store: named tables of rows, insert + filtered
query.  Deliberately simple — the heavy lifting happens in the
SCOPE jobs; this is just their sink.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["ResultsDatabase"]

Row = dict[str, Any]


class ResultsDatabase:
    """Named tables of result rows."""

    def __init__(self) -> None:
        self._tables: dict[str, list[Row]] = {}

    def insert(self, table: str, rows: list[Row]) -> int:
        """Append rows to a table (created on first insert)."""
        if not rows:
            return 0
        self._tables.setdefault(table, []).extend(dict(row) for row in rows)
        return len(rows)

    def tables(self) -> list[str]:
        return sorted(self._tables)

    def row_count(self, table: str) -> int:
        return len(self._tables.get(table, []))

    def query(
        self,
        table: str,
        where: Callable[[Row], bool] | None = None,
        order_by: str | None = None,
        desc: bool = False,
        limit: int | None = None,
    ) -> list[Row]:
        """Read rows; unknown tables read as empty (reports tolerate gaps)."""
        rows = [dict(row) for row in self._tables.get(table, [])]
        if where is not None:
            rows = [row for row in rows if where(row)]
        if order_by is not None:
            rows.sort(key=lambda row: row[order_by], reverse=desc)
        if limit is not None:
            if limit < 0:
                raise ValueError(f"limit must be >= 0: {limit}")
            rows = rows[:limit]
        return rows

    def latest(self, table: str, time_column: str = "t") -> Row | None:
        """The newest row of a table by its time column."""
        rows = self._tables.get(table)
        if not rows:
            return None
        return dict(max(rows, key=lambda row: row[time_column]))
