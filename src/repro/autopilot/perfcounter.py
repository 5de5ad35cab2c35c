"""The Perfcounter Aggregator (PA) pipeline (§2.3, §3.5).

"a Perfcounter Collector is a shared service that collects the local perf
counters and then uploads the counters to Autopilot" — and for Pingmesh,
"The PA counter collection latency is 5 minutes, which is faster than our
Cosmos/SCOPE pipeline.  ...  By using both of them, we provide higher
availability for Pingmesh than either of them."

Services register a counter-producing callable per server; every
``collection_period_s`` the PA sweeps all servers and stores the sweep as
packed rows: producers that reported the same counter names share one
layout and one ``array('d')`` of values, so a sweep costs ~200 bytes per
producer instead of one object per counter.  A bounded ring keeps the last
``retention_sweeps`` sweeps; :class:`CounterSample` objects are built only
when a query asks for them.  Cross-server aggregation (mean / max /
percentile at an instant) supports dashboards and alerts.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.netsim.simclock import EventQueue

__all__ = ["CounterSample", "PerfcounterAggregator", "PA_COLLECTION_PERIOD_S"]

PA_COLLECTION_PERIOD_S = 300.0  # "The PA counter collection latency is 5 minutes"
PA_RETENTION_SWEEPS = 12  # one hour of history at the paper's cadence

# One sweep's rows: counter-name layout -> ({server_id: row number}, values),
# row r of a layout of width w occupying values[r * w:(r + 1) * w].
_Blocks = dict[tuple[str, ...], tuple[dict[str, int], array]]


@dataclass(frozen=True)
class CounterSample:
    """One collected counter value."""

    t: float
    server_id: str
    counter: str
    value: float


class PerfcounterAggregator:
    """Collects perf counters from every registered producer, periodically."""

    def __init__(
        self,
        queue: EventQueue,
        collection_period_s: float = PA_COLLECTION_PERIOD_S,
        retention_sweeps: int = PA_RETENTION_SWEEPS,
    ) -> None:
        if collection_period_s <= 0:
            raise ValueError(f"period must be positive: {collection_period_s}")
        if retention_sweeps < 1:
            raise ValueError(f"retention must be >= 1 sweep: {retention_sweeps}")
        self.queue = queue
        self.collection_period_s = collection_period_s
        self._producers: dict[str, Callable[[float], dict[str, float]]] = {}
        self._ring: deque[tuple[float, _Blocks]] = deque(maxlen=retention_sweeps)
        self.collections_run = 0
        self.collection_errors = 0
        self.last_collection_error: str | None = None
        self._started = False

    def register_producer(
        self, server_id: str, producer: Callable[[float], dict[str, float]]
    ) -> None:
        """Register the counter callable of one server's service instance."""
        self._producers[server_id] = producer

    def start(self) -> None:
        """Begin the periodic collection sweeps."""
        if self._started:
            raise RuntimeError("PA already started")
        self._started = True
        self.queue.schedule_after(
            self.collection_period_s, self._collect, name="pa-collect"
        )

    def _collect(self) -> None:
        t = self.queue.clock.now
        blocks: _Blocks = {}
        for server_id, producer in list(self._producers.items()):
            try:
                counters = producer(t)
                row = array("d", counters.values())
            except Exception as exc:  # noqa: BLE001 - one bad producer must not stop PA
                # ... but a swallowed exception with no trace is a silent
                # stall: account it so watchdogs and drills can see it.
                self.collection_errors += 1
                self.last_collection_error = f"{server_id}: {exc!r}"
                continue
            block = blocks.get(layout := tuple(counters))
            if block is None:
                block = blocks[layout] = ({}, array("d"))
            block[0][server_id] = len(block[0])
            block[1].extend(row)
        self._ring.append((t, blocks))
        self.collections_run += 1
        self.queue.schedule_after(
            self.collection_period_s, self._collect, name="pa-collect"
        )

    # -- queries ----------------------------------------------------------

    def _samples(
        self, server_id: str, counter: str, newest_first: bool = False
    ) -> Iterator[CounterSample]:
        """The retained samples of one counter on one server, built lazily."""
        for t, blocks in reversed(self._ring) if newest_first else self._ring:
            for layout, (rows, values) in blocks.items():
                row = rows.get(server_id)
                if row is not None:  # a server reports once per sweep
                    if counter in layout:
                        value = values[row * len(layout) + layout.index(counter)]
                        yield CounterSample(t, server_id, counter, value)
                    break

    def series(self, server_id: str, counter: str) -> list[CounterSample]:
        """The time series of one counter on one server (may be empty).

        History is bounded: only the last ``retention_sweeps`` sweeps (12 =
        one hour at the 5-minute cadence) are kept; long-horizon analysis
        belongs to the Cosmos/SCOPE path.
        """
        return list(self._samples(server_id, counter))

    def latest(self, server_id: str, counter: str) -> CounterSample | None:
        return next(self._samples(server_id, counter, newest_first=True), None)
