"""Bounded-memory result upload with spool-and-replay fallback (§3.4.2).

"Once a timer times out or the size of the measurement results exceeds a
threshold, the Pingmesh Agent uploads the results to Cosmos. ... If a server
cannot upload its latency data, it will retry several times.  After that it
will stop trying and discard the in-memory data.  This is to ensure the
Pingmesh Agent uses bounded memory resource.  The Pingmesh Agent also writes
the latency data to local disk as log files.  The size of log files is
limited to a configurable size."

"Retry several times" here means retries *over time*: a failed transport
attempt consumes one attempt per flush tick, with the batch parked in a
bounded on-"disk" :class:`~repro.resilience.UploadSpool` between ticks and
the next attempt gated by a seeded backoff
:class:`~repro.resilience.RetryPolicy`.  A batch is only discarded once it
has failed ``max_retries`` spaced attempts; when Cosmos heals, the spool
replays oldest-first with no duplicates.

What is held, and as what.  A probe round arrives as one column-major
:class:`~repro.core.dsa.records.RecordBatch` (:meth:`ResultUploader.add_many`),
a single record — a VIP probe, a class summary — as a dict
(:meth:`ResultUploader.add`).  The buffer keeps them as handed over and
counts *rows*: the backstop drops the oldest rows, whole batches first.  A
flush packs a buffer of same-schema batches into one typed
:class:`~repro.cosmos.columnar.ColumnBlock` — the form the store adopts as
an extent, and the form a failed batch waits in the spool — and hands
anything else (dicts, or batches whose schemas disagree) to the store as
row dicts.  The local log keeps references, not text: every line's size
is worked out when it is logged — what a batch's shared
:class:`~repro.core.dsa.records.StaticColumns` add to each line once per
pinglist, not once per round — which is all the byte cap and its
oldest-first rotation need, and lines are rendered only for a reader
(:meth:`ResultUploader.local_log_lines`).
"""

from __future__ import annotations

import json
from array import array
from functools import partial, reduce
from math import isfinite
from operator import add
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.agent.safety import MAX_UPLOAD_RETRIES
from repro.core.dsa.records import (
    LATENCY_STREAM,
    RECORD_COLUMNS,
    RECORD_DTYPES,
    RecordBatch,
)
from repro.cosmos.columnar import ColumnBlock
from repro.resilience import RetryPolicy, SpooledBatch, UploadSpool, derive_seed

__all__ = ["ResultUploader", "UploadStats"]

# An agent uploads on its timer or once this many records are buffered.
FLUSH_THRESHOLD_RECORDS = 2000

Record = dict[str, Any]
# What a flush ships, spools and replays.
Payload = ColumnBlock | list[Record]

# One shared encoder: json.dumps() with non-default options builds a fresh
# JSONEncoder per call.  The log's line format, and the reference every size
# below is exact against.
_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode


class _JsonLen(dict):
    """``len(json(value))`` of strings, ints and ``None``, encoded once per
    distinct value.  (Never floats or bools: ``1``, ``1.0`` and ``True`` are
    one dict key and three JSON texts.)"""

    def __missing__(self, value: Any) -> int:
        size = self[value] = len(_encode(value))
        return size


# Shared by every uploader: the vocabulary is server ids, column names,
# purposes, error names and small coordinates — bounded by the fleet.
_TEXT_LEN = _JsonLen()


def _record_line_bytes(record: Record) -> int:
    """``len(_encode(record)) + 1`` without rendering the record."""
    total = 2 + max(len(record), 1)  # braces, commas between members, newline
    for key, value in record.items():
        if type(key) is not str:  # json coerces other keys: render to know
            return len(_encode(record)) + 1
        kind = type(value)
        if kind is str or value is None:
            size = _TEXT_LEN[value]
        elif kind is int or kind is bool or (kind is float and isfinite(value)):
            size = len(repr(value))  # json writes these as repr does
        else:
            size = len(_encode(value))
        total += _TEXT_LEN[key] + 1 + size
    return total


def _batch_line_bytes(batch: RecordBatch) -> array:
    """The same size for every row of a batch, a column at a time.  (What
    is not text here is an int, a bool, ``None`` or a finite float — the
    engine's times and RTTs — whose ``repr`` has its JSON text's length.)

    Braces, commas, newline, every key and the static columns' values are
    sized once per :class:`~repro.core.dsa.records.StaticColumns`; ``t``
    once per batch; a column of one value (all ``true``, all ``0``, all
    ``null`` — a healthy round's) once too, which leaves the RTTs.
    """
    static = batch.static
    text_len = _TEXT_LEN.__getitem__
    if static.line_bytes is None:
        fixed = 2 + len(RECORD_COLUMNS)
        fixed += sum(_TEXT_LEN[name] + 1 for name in RECORD_COLUMNS)
        lens = [
            map(text_len, values)
            if RECORD_DTYPES[name] is np.str_
            else map(len, map(repr, values))
            for name, values in static.lists.items()
        ]
        static.line_bytes = list(map(fixed.__add__, map(sum, zip(*lens))))
    shared = len(repr(batch.t))
    if batch.stale:
        shared += _TEXT_LEN["pinglist_stale"] + 6  # comma, colon, ``true``
    lens = [static.line_bytes, map(len, map(repr, batch.rtt_us.tolist()))]
    if np.count_nonzero(batch.success) == batch.n:
        shared += 4  # ``true``
    else:
        lens.append((5 - batch.success).tolist())
    if batch.syn_drops.any():
        lens.append(map(len, map(repr, batch.syn_drops.tolist())))
    else:
        shared += 1
    if batch.payload_rtt_us is None:
        shared += 4  # ``null``
    else:
        lens.append(map(len, map(repr, batch.payload_rtt_us)))
    if batch.error is None:
        shared += 4
    else:
        lens.append(map(text_len, batch.error))
    return array("I", map(shared.__add__, reduce(partial(map, add), lens)))


def _rows_of(item: RecordBatch | Record) -> list[Record]:
    return item.rows() if isinstance(item, RecordBatch) else [item]


class _LogSegment:
    """One ``add`` / ``add_many`` worth of log lines, oldest rows first."""

    __slots__ = ("item", "sizes", "start")

    def __init__(self, item: RecordBatch | Record, sizes: Sequence[int]) -> None:
        self.item = item
        self.sizes = sizes  # bytes per line, newline included
        self.start = 0  # rows before this one have rotated out


class UploadStats:
    """Counters describing the uploader's history.

    Conservation law (checked by the chaos invariant catalogue): every
    record ever added is uploaded, discarded, buffered, or spooled —
    ``records_added == records_uploaded + records_discarded + buffered +
    spooled occupancy``.  ``records_spooled`` / ``records_replayed`` are
    cumulative flow counters (entered the spool / uploaded from the
    spool), not occupancy, so they sit outside the balance equation.
    """

    def __init__(self) -> None:
        self.records_added = 0
        self.records_uploaded = 0
        self.records_discarded = 0
        self.records_spooled = 0
        self.records_replayed = 0
        self.upload_attempts = 0
        self.upload_failures = 0
        self.flushes = 0
        self.failed_flushes = 0


class ResultUploader:
    """Buffers records and ships them to Cosmos, with hard memory bounds.

    ``upload_fn(records, t)`` defaults to appending to the given store; it
    is injectable so tests and failure drills can make uploads fail.  What
    it receives has a ``len`` and is accepted by ``CosmosStore.append``: a
    :class:`~repro.cosmos.columnar.ColumnBlock` or a list of row dicts.
    """

    def __init__(
        self,
        store,
        server_id: str,
        stream: str = LATENCY_STREAM,
        flush_threshold_records: int = FLUSH_THRESHOLD_RECORDS,
        max_buffer_records: int = 10_000,
        max_retries: int = MAX_UPLOAD_RETRIES,
        log_cap_bytes: int = 256 * 1024,
        upload_fn: Callable[[Payload, float], None] | None = None,
        retry_base_s: float = 60.0,
        retry_cap_s: float = 600.0,
        spool_cap_records: int = 20_000,
    ) -> None:
        if flush_threshold_records < 1:
            raise ValueError(
                f"flush threshold must be >= 1: {flush_threshold_records}"
            )
        if max_buffer_records < flush_threshold_records:
            raise ValueError("buffer cap must be >= flush threshold")
        if log_cap_bytes < 1024:
            raise ValueError(f"log cap too small: {log_cap_bytes}")
        self.store = store
        self.server_id = server_id
        self.stream = stream
        self.flush_threshold_records = flush_threshold_records
        self.max_buffer_records = max_buffer_records
        self.max_retries = max_retries
        self.log_cap_bytes = log_cap_bytes
        self._upload_fn = upload_fn or self._default_upload
        self._buffer: list[RecordBatch | Record] = []  # oldest first
        self._buffered = 0  # rows in the buffer
        self._log: list[_LogSegment] = []  # oldest first
        self._log_bytes = 0
        self.stats = UploadStats()
        self.spool = UploadSpool(cap_records=spool_cap_records)
        self.retry = RetryPolicy(
            retry_base_s,
            retry_cap_s,
            seed=derive_seed(server_id, stream, "upload-retry"),
        )
        self._next_attempt_t = 0.0

    def _default_upload(self, records: Payload, t: float) -> None:
        self.store.append(self.stream, records, t=t)

    def set_upload_fn(
        self, upload_fn: Callable[[Payload, float], None] | None
    ) -> None:
        """Swap the upload transport (``None`` restores the default store
        append).  Failure drills use this to black out Cosmos mid-run."""
        self._upload_fn = upload_fn or self._default_upload

    # -- buffering --------------------------------------------------------

    def add(self, record: Record) -> None:
        """Buffer one record (and append it to the size-capped local log).

        The record is kept by reference until it is uploaded and its log
        line has rotated out: it must not be changed after this call."""
        self._hold(record, 1, (_record_line_bytes(record),))

    def add_many(self, batch: RecordBatch) -> None:
        """Buffer a whole round of records in one call.

        Equivalent to :meth:`add` per row (same log lines, same stats, same
        oldest-first overflow policy): the log rotates and the buffer is
        trimmed once, at the end, to the suffixes row-by-row adds leave.
        """
        if batch.n:
            self._hold(batch, batch.n, _batch_line_bytes(batch))

    def _hold(
        self, item: RecordBatch | Record, rows: int, line_bytes: Sequence[int]
    ) -> None:
        self.stats.records_added += rows
        self._buffer.append(item)
        self._buffered += rows
        self._log.append(_LogSegment(item, line_bytes))
        self._log_bytes += sum(line_bytes)
        if self._log_bytes > self.log_cap_bytes:
            self._rotate_log()
        overflow = self._buffered - self.max_buffer_records
        if overflow > 0:
            # Absolute backstop: drop oldest rather than grow unbounded.
            self._drop_oldest(overflow)
            self.stats.records_discarded += overflow

    def _drop_oldest(self, rows: int) -> None:
        """Take ``rows`` rows off the front of the buffer: whole items
        while they fit, then the head of the batch the cut falls in."""
        self._buffered -= rows
        buffer = self._buffer
        whole = 0
        while rows:
            head = buffer[whole]
            held = head.n if isinstance(head, RecordBatch) else 1
            if held > rows:
                buffer[whole] = head[rows:]
                break
            rows -= held
            whole += 1
        del buffer[:whole]

    def _rotate_log(self) -> None:
        """Drop oldest lines until the log is back under its byte cap."""
        excess = self._log_bytes - self.log_cap_bytes
        emptied = 0
        for segment in self._log:
            sizes = segment.sizes
            row = segment.start
            while excess > 0 and row < len(sizes):
                excess -= sizes[row]
                row += 1
            if row < len(sizes):
                segment.start = row
                break
            emptied += 1
        del self._log[:emptied]
        self._log_bytes = self.log_cap_bytes + excess

    @property
    def buffered_records(self) -> int:
        return self._buffered

    @property
    def spooled_records(self) -> int:
        """Records parked on "disk" awaiting replay."""
        return self.spool.records

    @property
    def should_flush(self) -> bool:
        return self._buffered >= self.flush_threshold_records

    def replay_due(self, t: float) -> bool:
        """Is there spooled backlog whose backoff window has elapsed?"""
        return bool(self.spool) and t >= self._next_attempt_t

    # -- upload -------------------------------------------------------------

    def _take_buffer(self) -> Payload:
        """Empty the buffer into the form it ships in: one typed block when
        it holds nothing but batches of one schema, row dicts otherwise."""
        items, self._buffer = self._buffer, []
        self._buffered = 0
        if all(isinstance(item, RecordBatch) for item in items):
            block = RecordBatch.pack(items)
            if block is not None:
                return block
        return [row for item in items for row in _rows_of(item)]

    def _stage_buffer(self, t: float) -> None:
        """Park the in-memory buffer in the spool (bounded, oldest evicted)."""
        if not self._buffer:
            return
        batch = self._take_buffer()
        self.stats.records_spooled += len(batch)
        evicted = self.spool.push(SpooledBatch(records=batch, spooled_t=t))
        self.stats.records_discarded += len(evicted)

    def _attempt(self, records: Payload, t: float) -> bool:
        """One transport attempt; True on success."""
        self.stats.upload_attempts += 1
        try:
            self._upload_fn(records, t)
        except Exception:  # noqa: BLE001 - any failure counts as a miss
            self.stats.upload_failures += 1
            return False
        return True

    def flush(self, t: float, *, force: bool = False) -> bool:
        """Upload spooled backlog (oldest first), then the buffer.

        A *failed* transport attempt consumes exactly one of the failing
        batch's ``max_retries`` attempts and ends this flush — the batch
        waits in the spool until the backoff delay elapses, so "retry
        several times" means retries over time, not a burst in one tick.
        Successful attempts chain within one call, which is how a healed
        store drains the whole backlog in a single flush.  A batch is
        discarded only after ``max_retries`` spaced failures.

        Returns True when everything (spool + buffer) reached the store;
        False when data remains spooled or was discarded.  ``force``
        bypasses the backoff gate (tests / explicit shutdown flushes).
        """
        self.stats.flushes += 1
        if not self._buffer and not self.spool:
            return True
        if not force and t < self._next_attempt_t:
            # Backoff window still open: stage new data and wait.
            self._stage_buffer(t)
            return False
        while self.spool or self._buffer:
            batch = self.spool.peek_oldest()
            if batch is not None:
                if self._attempt(batch.records, t):
                    self.spool.pop_oldest()
                    self.stats.records_uploaded += len(batch.records)
                    self.stats.records_replayed += len(batch.records)
                    continue
                batch.attempts += 1
                if batch.attempts >= self.max_retries:
                    self.spool.pop_oldest()
                    self.stats.records_discarded += len(batch.records)
                    self.stats.failed_flushes += 1
                self._next_attempt_t = t + self.retry.next_delay()
                self._stage_buffer(t)
                return False
            records = self._take_buffer()
            if self._attempt(records, t):
                self.stats.records_uploaded += len(records)
                continue
            if self.max_retries <= 1:
                self.stats.records_discarded += len(records)
                self.stats.failed_flushes += 1
            else:
                self.stats.records_spooled += len(records)
                evicted = self.spool.push(
                    SpooledBatch(records=records, spooled_t=t, attempts=1)
                )
                self.stats.records_discarded += len(evicted)
            self._next_attempt_t = t + self.retry.next_delay()
            return False
        self.retry.reset()
        self._next_attempt_t = 0.0
        return True

    # -- local log ------------------------------------------------------------

    def local_log_lines(self) -> list[str]:
        """The log's lines, oldest first — rendered here, for the reader."""
        lines: list[str] = []
        for segment in self._log:
            lines.extend(map(_encode, _rows_of(segment.item)[segment.start :]))
        return lines

    @property
    def local_log_bytes(self) -> int:
        return self._log_bytes
