"""The latency record schema: what every agent uploads, what every job reads.

One row per probe.  The agent enriches each
:class:`~repro.netsim.fabric.ProbeResult` with the topological coordinates
of both endpoints so the DSA jobs can aggregate at server, pod, podset, DC
and service scopes (§4.2: "we can calculate and track network SLAs at
server, pod, podset, and data center levels") without re-joining against a
topology snapshot.

A probe round's records are *born columnar*: :func:`make_records` turns one
engine call's :class:`~repro.netsim.fabric.ProbeBatch` into one
:class:`RecordBatch`, and the record stays a column entry from there to the
jobs (uploader buffer, extent, window).  Ten of the sixteen columns — both
endpoints, their six coordinates, ``purpose``, ``qos`` — are fixed by the
pinglist, so they are built once per round plan and tags
(:class:`StaticColumns`: the lists, their arrays, their log-line sizes,
each peer class's rows) and shared by every round of that pinglist; a batch
owns only what a round draws.  Identities are integers in storage: the
arrays of ``src``, ``dst``, ``purpose`` and ``qos`` are int32 codes into one
append-only intern table every block shares, so growing the topology never
renumbers a stored record, and the SCOPE engine decodes them on the way
out.  Row dicts are made on demand (:meth:`RecordBatch.rows`), and by
:func:`make_record` for the one probe at a time of the VIP path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Sequence

import numpy as np

from repro.cosmos.columnar import ColumnBlock, Vocabulary
from repro.cosmos.scope import sorted_percentile
from repro.netsim.fabric import ClassOutcome, ProbeBatch, ProbeResult
from repro.netsim.topology import MultiDCTopology

__all__ = [
    "LATENCY_STREAM",
    "CLASS_STREAM",
    "RECORD_COLUMNS",
    "RECORD_DTYPES",
    "CLASS_RECORD_COLUMNS",
    "StaticColumns",
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
NULLABLE_COLUMNS = ("payload_rtt_us", "error")


# The columns a pinglist fixes: the same every round of one round plan.
STATIC_COLUMNS = RECORD_COLUMNS[1:11]
# The text columns a block holds as codes into one table, bounded by the fleet.
CODED_COLUMNS = ("src", "dst", "purpose", "qos")
_TEXT_CODES = Vocabulary()
_BLOCK_VOCAB = dict.fromkeys(CODED_COLUMNS, _TEXT_CODES)


class StaticColumns:
    """``src`` .. ``qos`` of one round plan's records, under one tags object.

    Built once and shared by every batch of that plan: ``lists`` (rows and
    log lines), ``arrays`` (what :meth:`RecordBatch.pack` concatenates, the
    text columns coded), ``line_bytes`` (what they add to each row's log
    line — the uploader's, worked out on first use) and ``classes``, each
    ``purpose`` with its row positions in order of first appearance, for
    the stream plane.
    """

    __slots__ = ("lists", "arrays", "classes", "line_bytes")

    def __init__(self, lists: dict[str, list]) -> None:
        self.lists = lists
        self.arrays = {
            name: _TEXT_CODES.encode(values) if name in CODED_COLUMNS
            else np.array(values, dtype=RECORD_DTYPES[name])
            for name, values in lists.items()
        }
        places: dict[str, list[int]] = {}
        for row, purpose in enumerate(lists["purpose"]):
            places.setdefault(purpose, []).append(row)
        self.classes = {
            purpose: slice(None) if len(rows) == len(lists["purpose"])
            else np.array(rows, dtype=np.intp)
            for purpose, rows in places.items()
        }
        self.line_bytes: list[int] | None = None

    def __getitem__(self, rows: slice) -> "StaticColumns":
        return StaticColumns(
            {name: values[rows] for name, values in self.lists.items()}
        )


@dataclass(slots=True, eq=False)
class RecordBatch:
    """One engine call's probe records, column-major.

    ``static`` holds the ten shared columns; the batch owns ``t`` (one
    instant), ``success`` / ``rtt_us`` / ``syn_drops`` (arrays), and
    ``payload_rtt_us`` / ``error`` (lists, or ``None`` when no row has
    one).  ``stale`` adds an all-true ``pinglist_stale`` column.  Nothing is
    written after birth but ``stale``.
    """

    static: StaticColumns
    t: float
    success: np.ndarray
    rtt_us: np.ndarray
    syn_drops: np.ndarray
    payload_rtt_us: list | None
    error: list | None
    stale: bool = False

    def __len__(self) -> int:
        return len(self.success)

    n = property(__len__)

    def __getitem__(self, rows: slice) -> "RecordBatch":
        """A row range of the batch."""
        return RecordBatch(
            self.static[rows], self.t, self.success[rows], self.rtt_us[rows],
            self.syn_drops[rows],
            self.payload_rtt_us and self.payload_rtt_us[rows],
            self.error and self.error[rows],
            self.stale,
        )

    @property
    def columns(self) -> dict[str, list]:
        """Every column as a list, in :data:`RECORD_COLUMNS` order (then
        ``pinglist_stale``) — a fresh dict; the static lists are shared."""
        nones = [None] * self.n
        columns = {
            "t": [self.t] * self.n,
            **self.static.lists,
            "success": self.success.tolist(),
            "rtt_us": self.rtt_us.tolist(),
            "syn_drops": self.syn_drops.tolist(),
            "payload_rtt_us": self.payload_rtt_us or nones,
            "error": self.error or nones,
        }
        if self.stale:
            columns["pinglist_stale"] = [True] * self.n
        return columns

    def rows(self) -> list[dict[str, Any]]:
        """The batch as fresh row dicts, keys in column order."""
        columns = self.columns
        return [dict(zip(columns, values)) for values in zip(*columns.values())]

    @staticmethod
    def pack(batches: Sequence["RecordBatch"]) -> ColumnBlock | None:
        """Batches sharing one schema as one typed block, rows in order;
        ``None`` when their column names disagree (stale-tagged rounds
        beside fresh ones) — the rule the store applies to row dicts.  Static
        columns are concatenated as their plans built them."""
        stale = batches[0].stale
        if any(batch.stale != stale for batch in batches):
            return None
        sizes = [batch.n for batch in batches]
        times = np.array([batch.t for batch in batches], dtype=np.float64)
        columns = {"t": np.repeat(times, sizes)}
        for name in STATIC_COLUMNS:
            columns[name] = np.concatenate([batch.static.arrays[name] for batch in batches])
        for name in ("success", "rtt_us", "syn_drops"):
            columns[name] = np.concatenate([getattr(batch, name) for batch in batches])
        for name in NULLABLE_COLUMNS:
            values = list(chain.from_iterable(getattr(b, name) or [None] * b.n for b in batches))
            dtype = object if None in values else RECORD_DTYPES[name]
            columns[name] = np.array(values, dtype=dtype)
        if stale:
            columns["pinglist_stale"] = np.ones(sum(sizes), dtype=np.bool_)
        return ColumnBlock(columns=columns, n=sum(sizes), vocab=_BLOCK_VOCAB)


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
    return make_records(
        topology, ProbeBatch.from_results([result]), [(purpose, qos)]
    ).rows()[0]


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
        rtt_us.sort()
        p50, p99 = sorted_percentile(rtt_us, (50, 99), rtt_us.size).tolist()
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
    probes: ProbeBatch,
    tags: Sequence[tuple[str, str]],
    server_cache: dict[str, Any] | None = None,
) -> RecordBatch:
    """Build the upload records of one engine call, as one batch.

    ``tags`` holds each probe's ``(purpose, qos)``.  The static columns are
    built on the first round of a plan and found on it afterwards, for as
    long as the caller hands over the very same ``tags`` tuple; the rest
    is the probe batch's own columns, in microseconds.  Endpoint lookups
    are memoized; pass a ``server_cache`` dict to keep that memo across
    calls (safe: servers are append-only and identity-stable).
    """
    if len(tags) != len(probes):
        raise ValueError(f"{len(tags)} tags for {len(probes)} probes")
    plan = probes.plan
    if plan.static is not None and plan.static[0] is tags:
        static = plan.static[1]
    else:
        servers: dict[str, Any] = {} if server_cache is None else server_cache
        endpoints = []
        for server_id in (plan.src_id, *plan.dst_ids):
            server = servers.get(server_id)
            if server is None:
                server = servers[server_id] = topology.server(server_id)
            endpoints.append(server)
        src, dsts = endpoints[0], endpoints[1:]
        n = len(dsts)
        static = StaticColumns(
            {
                "src": [plan.src_id] * n,
                "dst": list(plan.dst_ids),
                "src_dc": [src.dc_index] * n,
                "dst_dc": [dst.dc_index for dst in dsts],
                "src_podset": [src.podset_index] * n,
                "dst_podset": [dst.podset_index for dst in dsts],
                "src_pod": [src.pod_index] * n,
                "dst_pod": [dst.pod_index for dst in dsts],
                "purpose": [purpose for purpose, _qos in tags],
                "qos": [qos for _purpose, qos in tags],
            }
        )
        if type(tags) is tuple:
            plan.static = (tags, static)
    payload = probes.payload_rtt_s
    return RecordBatch(
        static,
        probes.t,
        probes.success,
        probes.rtt_s * 1e6,
        probes.syn_drops,
        payload and [p * 1e6 if p is not None else None for p in payload],
        probes.error,
    )
