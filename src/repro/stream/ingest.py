"""The ingest side of the streaming plane: deltas -> windowed merge tree.

:class:`StreamIngestService` is the logical service behind the stream
ingest VIP.  Each :class:`~repro.stream.aggregator.StreamDelta` is merged
into a **merge tree**: windows (keyed by window start) hold per-
``(dc, podset, pod, class)`` :class:`~repro.stream.sketch.ClassStats`, and
any rollup (a whole DC over the last K windows, one pod over one window) is
just a sketch merge — associativity means the answer is identical no matter
how the deltas arrived or in what order the tree is folded.

Retention is a ring: only the newest ``retention_windows`` windows are
kept, older ones are evicted (counted, never silently).  Memory is
therefore constant in probe volume *and* in runtime.

A conservation ledger mirrors the aggregator's: every delta offered to the
service is either merged (``deltas_ingested`` / ``probes_ingested``) or
rejected-and-counted (``deltas_rejected``), never dropped on the floor.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from types import MappingProxyType

from repro.stream.aggregator import StreamDelta
from repro.stream.sketch import ClassStats

__all__ = ["StreamIngestService"]

# What a rollup groups the tree's (dc, podset, pod, cls) keys by.
_DC, _POD, _CLASS = itemgetter(0), itemgetter(0, 1, 2), itemgetter(3)
# Distinct rollups memoised between two tree changes; tenants choose the
# windows and classes of a stream read, so past this the memo starts over.
_ROLLUP_MEMO_CAP = 64
RETENTION_WINDOWS = 360  # the ring: 1 h of the default 10 s windows


class StreamIngestService:
    """Merges agent deltas into a bounded windowed merge tree."""

    def __init__(
        self,
        window_s: float = 10.0,
        retention_windows: int = RETENTION_WINDOWS,
        max_buckets: int = 2048,
    ) -> None:
        if retention_windows < 2:
            raise ValueError(f"retention too small: {retention_windows}")
        self.window_s = window_s
        self.retention_windows = retention_windows
        self.max_buckets = max_buckets
        # window_start -> {(dc, podset, pod, cls) -> ClassStats}
        self._windows: "OrderedDict[float, dict]" = OrderedDict()
        self._rollups: dict = {}  # rollup memo; holds nothing across a change
        self.deltas_ingested = 0
        self.deltas_rejected = 0
        self.probes_ingested = 0
        self.probes_rejected = 0
        self.windows_evicted = 0
        self.probes_evicted = 0

    # -- ingestion ---------------------------------------------------------

    def ingest(self, delta: StreamDelta) -> bool:
        """Merge one delta into the tree; returns False when rejected.

        A delta is rejected only when its window predates the retention
        ring (a straggler older than everything we keep) — merging it
        would silently resurrect an evicted window.
        """
        if self._windows:
            oldest = next(iter(self._windows))
            horizon = oldest - (
                (self.retention_windows - len(self._windows)) * self.window_s
            )
            if delta.window_start < min(oldest, horizon):
                self.deltas_rejected += 1
                self.probes_rejected += delta.probes
                return False
        self._rollups.clear()
        window = self._windows.get(delta.window_start)
        if window is None:
            window = {}
            self._windows[delta.window_start] = window
            # Keep windows ordered by start so eviction drops the oldest.
            self._windows = OrderedDict(sorted(self._windows.items()))
        for cls, payload in delta.classes.items():
            key = (delta.dc, delta.podset, delta.pod, cls)
            stats = window.get(key)
            if stats is None:
                window[key] = ClassStats.from_payload(payload, self.max_buckets)
            else:
                stats.merge_payload(payload)
        self.deltas_ingested += 1
        self.probes_ingested += delta.probes
        self._evict()
        return True

    def _evict(self) -> None:
        while len(self._windows) > self.retention_windows:
            _, window = self._windows.popitem(last=False)
            self.windows_evicted += 1
            self.probes_evicted += sum(s.probes for s in window.values())

    # -- queries -----------------------------------------------------------

    def window_starts(self) -> list:
        """Retained window start times, oldest first."""
        return list(self._windows)

    def window(self, window_start: float) -> dict:
        """The raw per-key stats of one window (empty dict if unknown)."""
        return self._windows.get(window_start, {})

    def latest_windows(self, k: int) -> list:
        """The newest ``k`` retained window start times, oldest first."""
        starts = list(self._windows)
        return starts[-k:] if k > 0 else []

    def _rollup(self, window_starts, key_of, cls=None, exclude_cls=None):
        """The one fold every rollup is: merge the given windows' stats into
        one :class:`ClassStats` per ``key_of((dc, podset, pod, cls))``.

        ``cls`` keeps only one class; ``exclude_cls`` drops one.  The result
        is memoised until the tree next changes and handed to every caller
        as the same **read-only** objects: detectors, the broker and the CLI
        only read them, and nothing may merge into or observe through one.
        """
        starts = tuple(window_starts)
        memo_key = (starts, key_of, cls, exclude_cls)
        rolled = self._rollups.get(memo_key)
        if rolled is not None:
            return rolled
        merged: dict = {}
        for start in starts:
            for key, stats in self._windows.get(start, {}).items():
                if key[3] == exclude_cls or (cls is not None and key[3] != cls):
                    continue
                group = key_of(key)
                into = merged.get(group)
                if into is None:
                    merged[group] = stats.copy()
                else:
                    into.merge(stats)
        if len(self._rollups) >= _ROLLUP_MEMO_CAP:
            self._rollups.clear()
        rolled = self._rollups[memo_key] = MappingProxyType(merged)
        return rolled

    def merged_by_dc(self, window_starts, cls=None, exclude_cls=None):
        """Roll the given windows up to per-DC :class:`ClassStats`.

        By default all classes and all pods of a DC merge into one stats
        object.  ``cls`` keeps only one peer class; ``exclude_cls`` drops
        one — the intra-DC detectors exclude ``"inter-dc"`` (whose healthy
        RTT is WAN-sized), mirroring the batch tracker's scope routing,
        while the inter-DC detector keeps only it.
        """
        return self._rollup(window_starts, _DC, cls=cls, exclude_cls=exclude_cls)

    def merged_by_pod(self, window_starts):
        """Roll the given windows up to ``(dc, podset, pod)`` stats."""
        return self._rollup(window_starts, _POD)

    def merged_by_class(self, window_starts):
        """Roll the given windows up to per-peer-class stats."""
        return self._rollup(window_starts, _CLASS)

    @property
    def memory_buckets(self) -> int:
        """Occupied sketch buckets across all retained windows."""
        return sum(
            stats.sketch.memory_buckets
            for window in self._windows.values()
            for stats in window.values()
        )
