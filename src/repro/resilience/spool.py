"""Bounded on-"disk" spool backing the uploader's retry-over-time path.

When a flush to Cosmos fails, the batch is not discarded on the spot —
it is parked here, attempt count attached, and replayed on later flush
ticks once backoff allows.  The spool is bounded in *records* (it models
a local disk quota, the same spirit as the uploader's log cap): when a
new batch would overflow it, the oldest spooled batches are evicted
first, because newer data is worth more to the §4 analyses than stale
data whose SLA windows have already closed.

A batch's ``records`` is whatever the uploader ships — a list of row dicts
or a column block — and the spool only ever counts it (``len``) and cuts
it (a slice): rows come into being here only if they are evicted, for the
caller to count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any


@dataclass
class SpooledBatch:
    """One failed upload batch awaiting replay."""

    records: Any  # sized and sliceable by row: list[dict] | ColumnBlock
    spooled_t: float
    attempts: int = 0

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.records)


@dataclass
class UploadSpool:
    """FIFO of failed batches with a record-count bound.

    Every agent owns one and most never spool anything, so the FIFO exists
    only while it holds a batch: an empty spool keeps no deque.
    """

    cap_records: int = 20_000
    _batches: deque[SpooledBatch] | None = None
    _records: int = 0
    records_evicted: int = 0

    def __post_init__(self) -> None:
        if self.cap_records < 0:
            raise ValueError("cap_records must be >= 0")

    @property
    def records(self) -> int:
        """Records currently spooled."""
        return self._records

    @property
    def batches(self) -> int:
        return len(self._batches) if self._batches else 0

    def __bool__(self) -> bool:
        return bool(self._batches)

    def push(self, batch: SpooledBatch) -> list[dict]:
        """Spool a failed batch, evicting oldest records to stay bounded.

        Returns the list of records that had to be evicted (possibly from
        the pushed batch itself when it alone exceeds the cap), so the
        caller can account them as discarded.
        """
        evicted: list[dict] = []
        if len(batch.records) > self.cap_records:
            # The batch alone busts the quota: keep the newest records.
            keep_from = len(batch.records) - self.cap_records
            evicted.extend(batch.records[:keep_from])
            batch.records = batch.records[keep_from:]
        self._batches = self._batches or deque()
        while self._batches and self._records + len(batch.records) > self.cap_records:
            oldest = self._batches.popleft()
            self._records -= len(oldest.records)
            evicted.extend(oldest.records)
        self._batches.append(batch)
        self._records += len(batch.records)
        self.records_evicted += len(evicted)
        return evicted

    def peek_oldest(self) -> SpooledBatch | None:
        return self._batches[0] if self._batches else None

    def pop_oldest(self) -> SpooledBatch:
        batch = self._batches.popleft()
        self._records -= len(batch.records)
        if not self._batches:
            self._batches = None
        return batch
