"""Cosmos/SCOPE substrate: Microsoft's BigData stack, miniaturized.

Pingmesh stores latency data in Cosmos, an append-only distributed file
system, and analyzes it with SCOPE, a declarative SQL-like language (§2.3).
This package provides both:

* :mod:`repro.cosmos.store` — append-only streams split into replicated
  extents, with ingestion accounting,
* :mod:`repro.cosmos.scope` — a rowset query engine with SCOPE's verbs
  (``extract``, ``where``, ``select``, ``group_by``/``aggregate``,
  ``order_by``, ``output``), one vectorized engine over columns,
* :mod:`repro.cosmos.columnar` — the column-major extent packing
  (:class:`~repro.cosmos.columnar.ColumnBlock`) and the ``col``/``lit``
  expression language the engine evaluates,
* :mod:`repro.cosmos.jobs` — the Job Manager that submits recurring SCOPE
  jobs "automatically and periodically ... without user intervention".
"""

from repro.cosmos.columnar import ColumnBlock, Expr, col, lit
from repro.cosmos.jobs import JobManager, JobStatus, ScopeJob
from repro.cosmos.scope import RowSet, extract
from repro.cosmos.store import CosmosStore

__all__ = [
    "ColumnBlock",
    "CosmosStore",
    "Expr",
    "JobManager",
    "JobStatus",
    "RowSet",
    "ScopeJob",
    "col",
    "extract",
    "lit",
]
