"""The latency record schema: what every agent uploads, what every job reads.

One row per probe.  The agent enriches each
:class:`~repro.netsim.fabric.ProbeResult` with the topological coordinates
of both endpoints so the DSA jobs can aggregate at server, pod, podset, DC
and service scopes (§4.2: "we can calculate and track network SLAs at
server, pod, podset, and data center levels") without re-joining against a
topology snapshot.

A probe round's records are *born columnar*: :func:`make_records` turns one
engine call's results into one :class:`RecordBatch` — a list per column,
in :data:`RECORD_COLUMNS` order — and the record stays a column entry from
there to the jobs (uploader buffer, extent, window).  The producer knows
every column's type (:data:`RECORD_DTYPES`), so :meth:`RecordBatch.pack`
builds the arrays without looking at a value to find out.  Row dicts are
made on demand (:meth:`RecordBatch.rows`), and by :func:`make_record` for
the one probe at a time of the VIP path.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence

import numpy as np

from repro.cosmos.columnar import ColumnBlock
from repro.netsim.fabric import ClassOutcome, ProbeResult
from repro.netsim.topology import MultiDCTopology

__all__ = [
    "LATENCY_STREAM",
    "CLASS_STREAM",
    "RECORD_COLUMNS",
    "RECORD_DTYPES",
    "CLASS_RECORD_COLUMNS",
    "RecordBatch",
    "make_record",
    "make_records",
    "make_class_record",
]

# The Cosmos stream agents upload to.
LATENCY_STREAM = "pingmesh/latency"
# Class-round summaries go to their own stream: one row per (agent, class,
# round), a different schema from the per-probe rows — DSA jobs scanning
# ``pingmesh/latency`` must never see a wrong-shape record.
CLASS_STREAM = "pingmesh/latency-class"

CLASS_RECORD_COLUMNS = (
    "t",
    "src",
    "src_dc",
    "src_podset",
    "src_pod",
    "dst_dc",
    "purpose",
    "qos",
    "scope",
    "probes",
    "success",
    "failed",
    "one_drop",
    "two_drops",
    "p50_us",
    "p99_us",
)

# Every column of a per-probe record, in order, with what its producer
# declares about it: the array type it packs to.  ``pinglist_stale`` is the
# one optional column (present on every row of a round probed from an
# unconfirmed pinglist, absent otherwise).
RECORD_DTYPES: dict[str, type] = {
    "t": np.float64,
    "src": np.str_,
    "dst": np.str_,
    "src_dc": np.int64,
    "dst_dc": np.int64,
    "src_podset": np.int64,
    "dst_podset": np.int64,
    "src_pod": np.int64,
    "dst_pod": np.int64,
    "purpose": np.str_,
    "qos": np.str_,
    "success": np.bool_,
    "rtt_us": np.float64,
    "syn_drops": np.int64,
    "payload_rtt_us": np.float64,
    "error": np.str_,
    "pinglist_stale": np.bool_,
}
RECORD_COLUMNS = tuple(RECORD_DTYPES)[:-1]
# Columns in which ``None`` is a value (no payload echo; no error).  One
# ``None`` makes the packed column an object array, as the store's own
# packing of row dicts does.
NULLABLE_COLUMNS = frozenset(("payload_rtt_us", "error"))


class RecordBatch:
    """One engine call's probe records, column-major: ``{column -> list}``.

    Columns are in :data:`RECORD_COLUMNS` order (then ``pinglist_stale``)
    and equally long; the lists are shared, never written after birth.
    """

    __slots__ = ("columns", "n")

    def __init__(self, columns: dict[str, list], n: int) -> None:
        self.columns = columns
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> "RecordBatch":
        """A row range of the batch (fresh lists)."""
        return RecordBatch(
            {name: values[rows] for name, values in self.columns.items()},
            len(range(*rows.indices(self.n))),
        )

    def rows(self) -> list[dict[str, Any]]:
        """The batch as fresh row dicts, keys in column order."""
        names = list(self.columns)
        return [dict(zip(names, values)) for values in zip(*self.columns.values())]

    @staticmethod
    def pack(batches: Sequence["RecordBatch"]) -> ColumnBlock | None:
        """Batches sharing one schema as one typed block, rows in order;
        ``None`` when their column names disagree (stale-tagged rounds
        beside fresh ones) — the rule the store applies to row dicts."""
        names = list(batches[0].columns)
        for batch in batches:
            if list(batch.columns) != names:
                return None
        columns: dict[str, np.ndarray] = {}
        for name in names:
            values = list(chain.from_iterable(batch.columns[name] for batch in batches))
            if name in NULLABLE_COLUMNS and None in values:
                column = np.empty(len(values), dtype=object)
                column[:] = values
            else:
                column = np.array(values, dtype=RECORD_DTYPES[name])
            columns[name] = column
        return ColumnBlock(columns=columns, n=sum(batch.n for batch in batches))


def make_record(
    topology: MultiDCTopology,
    result: ProbeResult,
    purpose: str = "tor-level",
    qos: str = "high",
) -> dict[str, Any]:
    """Build one upload row from a probe result (the VIP path's one probe
    at a time; rounds go through :func:`make_records`).

    RTTs are stored in microseconds (floats); a failed probe keeps its
    cumulative wait in ``rtt_us`` but analysis must key on ``success``.
    """
    return make_records(topology, [result], [(purpose, qos)]).rows()[0]


def make_class_record(
    outcome: ClassOutcome,
    t: float,
    src_id: str,
    dc: int,
    podset: int,
    pod: int,
) -> dict[str, Any]:
    """Build one class-summary row from a closed-form round outcome.

    ``src_id`` is the emitting agent (or a synthetic ``shard:`` id under
    sharded execution, with ``pod=-1``).  Percentiles are ``None`` when the
    round had no successful probe, mirroring the counters' no-sentinel rule.
    ``dst_dc`` comes from the outcome's group (the source DC for intra-DC
    classes), giving the class stream per-DC-pair resolution.
    """
    if outcome.rtt_s.size:
        rtt_us = outcome.rtt_s * 1e6
        p50 = float(np.percentile(rtt_us, 50))
        p99 = float(np.percentile(rtt_us, 99))
    else:
        p50 = p99 = None
    return {
        "t": t,
        "src": src_id,
        "src_dc": dc,
        "src_podset": podset,
        "src_pod": pod,
        "dst_dc": outcome.dst_dc if outcome.dst_dc >= 0 else dc,
        "purpose": outcome.purpose,
        "qos": outcome.qos,
        "scope": outcome.scope.name,
        "probes": outcome.n,
        "success": outcome.success,
        "failed": outcome.failed,
        "one_drop": outcome.one_drop,
        "two_drops": outcome.two_drops,
        "p50_us": p50,
        "p99_us": p99,
    }


def make_records(
    topology: MultiDCTopology,
    results: Sequence[ProbeResult],
    tags: Sequence[tuple[str, str]],
    server_cache: dict[str, Any] | None = None,
) -> RecordBatch:
    """Build the upload records of one engine call, as one batch.

    ``tags`` holds each result's ``(purpose, qos)``; every result is read
    once.  Endpoint lookups are memoized; pass a ``server_cache`` dict to
    keep that memo across calls (safe: servers are append-only and
    identity-stable).
    """
    servers: dict[str, Any] = {} if server_cache is None else server_cache
    rows = []
    for result, (purpose, qos) in zip(results, tags):
        src = servers.get(result.src)
        if src is None:
            src = servers[result.src] = topology.server(result.src)
        dst = servers.get(result.dst)
        if dst is None:
            dst = servers[result.dst] = topology.server(result.dst)
        payload = result.payload_rtt_s
        rows.append(
            (  # in RECORD_COLUMNS order
                result.t,
                result.src,
                result.dst,
                src.dc_index,
                dst.dc_index,
                src.podset_index,
                dst.podset_index,
                src.pod_index,
                dst.pod_index,
                purpose,
                qos,
                result.success,
                result.rtt_s * 1e6,
                result.syn_drops,
                payload * 1e6 if payload is not None else None,
                result.error,
            )
        )
    columns = zip(*rows) if rows else [()] * len(RECORD_COLUMNS)
    return RecordBatch(dict(zip(RECORD_COLUMNS, map(list, columns))), len(rows))
