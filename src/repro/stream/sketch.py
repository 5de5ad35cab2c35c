"""Mergeable log-bucketed quantile sketch + drop-rate accumulator.

The streaming plane cannot afford raw rows — an agent probing 2500 peers
every 10 s would ship 250 values/s upstream forever.  Instead each agent
keeps a **DDSketch-style sketch** per peer class: values land in
geometrically-spaced buckets ``(gamma^(i-1), gamma^i]`` with
``gamma = (1 + a) / (1 - a)`` for relative accuracy ``a``, so any stored
sample can be reconstructed within relative error ``a`` from its bucket
index alone.  Bucket counts are plain integers, which makes the merge
**associative and commutative** (integer addition per bucket) — deltas can
be combined in any order, at any fan-in, and the merged sketch is exactly
the sketch of the union of the inputs.

Memory is constant in probe volume: the bucket count is bounded by
``max_buckets`` (the lowest buckets collapse together past the cap, biasing
only the extreme low quantiles), and for a fixed dynamic range the bound is
never hit — covering 1 µs .. 100 s at 1 % accuracy needs ~910 buckets.

Quantile contract
-----------------
``quantile(q)`` returns an estimate ``e`` such that

    lower * (1 - a)  <=  e  <=  upper * (1 + a)

where ``lower``/``upper`` are the nearest-rank percentiles of the ingested
values (``numpy.percentile(values, q, method="lower" / "higher")``).  The
parity gate in ``tests/integration/test_stream_plane.py`` holds streaming
quantiles to exactly this envelope against the batch columnar results.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.netsim.tcp import ONE_DROP_RTT_US, TWO_DROPS_RTT_US

__all__ = ["LatencySketch", "ClassStats"]

# The sketches' relative-error bound (1 %).
RELATIVE_ACCURACY = 0.01
# Up to this many values (a pinglist round) ``LatencySketch.add_many`` and
# ``ClassStats.observe_many`` count buckets one value at a time.
_SMALL_BATCH = 64


class LatencySketch:
    """A mergeable log-bucketed quantile sketch with bounded memory."""

    __slots__ = (
        "relative_accuracy",
        "max_buckets",
        "min_value",
        "_gamma",
        "_log_gamma",
        "buckets",
        "count",
        "min_seen",
        "max_seen",
    )

    def __init__(
        self,
        relative_accuracy: float = RELATIVE_ACCURACY,
        max_buckets: int = 2048,
        min_value: float = 1e-3,
    ) -> None:
        if not 0 < relative_accuracy < 1:
            raise ValueError(
                f"relative_accuracy must be in (0,1): {relative_accuracy}"
            )
        if max_buckets < 8:
            raise ValueError(f"max_buckets too small: {max_buckets}")
        if min_value <= 0:
            raise ValueError(f"min_value must be positive: {min_value}")
        self.relative_accuracy = relative_accuracy
        self.max_buckets = max_buckets
        self.min_value = min_value
        self._gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self._gamma)
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.min_seen = math.inf
        self.max_seen = -math.inf

    # -- ingestion ---------------------------------------------------------

    def _index(self, value: float) -> int:
        return math.ceil(math.log(max(value, self.min_value)) / self._log_gamma)

    def add(self, value: float) -> None:
        """Fold one value in (values are clamped up to ``min_value``)."""
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        if value < self.min_seen:
            self.min_seen = value
        if value > self.max_seen:
            self.max_seen = value
        if len(self.buckets) > self.max_buckets:
            self._collapse()

    def _indices(self, array: np.ndarray) -> np.ndarray:
        """:meth:`_index` of every value of ``array``, in one numpy pass."""
        clipped = np.maximum(array, self.min_value)
        return np.ceil(np.log(clipped) / self._log_gamma).astype(np.int64)

    def add_many(self, values) -> None:
        """Vectorized :meth:`add` for a whole batch (numpy array or list)."""
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        indices = self._indices(array)
        buckets = self.buckets
        if array.size <= _SMALL_BATCH:
            # A pinglist round's worth: a bincount costs more than one dict
            # update per value.
            for index in indices.tolist():
                buckets[index] = buckets.get(index, 0) + 1
        else:
            low = int(indices.min())  # a dense count: a few hundred buckets
            counts = np.bincount(indices - low)
            occupied = np.flatnonzero(counts)
            for index, count in zip((occupied + low).tolist(), counts[occupied].tolist()):
                buckets[index] = buckets.get(index, 0) + count
        self.count += int(array.size)
        self.min_seen = min(self.min_seen, float(array.min()))
        self.max_seen = max(self.max_seen, float(array.max()))
        if len(buckets) > self.max_buckets:
            self._collapse()

    def _collapse(self) -> None:
        """Fold the lowest buckets together until back under the cap.

        Collapsing low buckets biases only the extreme low quantiles —
        tail latency (the quantiles that matter) is exact to the bound.
        """
        while len(self.buckets) > self.max_buckets:
            ordered = sorted(self.buckets)
            lowest, second = ordered[0], ordered[1]
            self.buckets[second] += self.buckets.pop(lowest)

    # -- query -------------------------------------------------------------

    def quantile(self, q: float) -> float | None:
        """The q-th percentile estimate (``q`` in [0, 100]), or ``None``."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        if self.count == 0:
            return None
        rank = (q / 100.0) * (self.count - 1)
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative > rank:
                estimate = 2.0 * self._gamma**index / (self._gamma + 1.0)
                # The true min/max are tracked exactly; clamping never
                # violates the envelope and sharpens constant inputs.
                return min(max(estimate, self.min_seen), self.max_seen)
        return self.max_seen

    @property
    def memory_buckets(self) -> int:
        """Occupied buckets — the sketch's entire variable-size state."""
        return len(self.buckets)

    # -- merge / serialization --------------------------------------------

    def _check_compatible(self, relative_accuracy: float, min_value: float) -> None:
        if (relative_accuracy, min_value) != (self.relative_accuracy, self.min_value):
            raise ValueError(
                "cannot merge sketches with different parameters: "
                f"{self.relative_accuracy}/{self.min_value} vs "
                f"{relative_accuracy}/{min_value}"
            )

    def merge(self, other: "LatencySketch") -> "LatencySketch":
        """Fold ``other`` into ``self`` (associative, commutative)."""
        self._check_compatible(other.relative_accuracy, other.min_value)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)
        if len(self.buckets) > self.max_buckets:
            self._collapse()
        return self

    def copy(self) -> "LatencySketch":
        clone = LatencySketch(
            self.relative_accuracy, self.max_buckets, self.min_value
        )
        clone.buckets = dict(self.buckets)
        clone.count = self.count
        clone.min_seen = self.min_seen
        clone.max_seen = self.max_seen
        return clone

    def to_payload(self) -> dict:
        """A compact, JSON-able delta payload (bucket index -> count)."""
        return {
            "ra": self.relative_accuracy,
            "min_value": self.min_value,
            "buckets": sorted(self.buckets.items()),
            "count": self.count,
            "min": self.min_seen if self.count else None,
            "max": self.max_seen if self.count else None,
        }

    def merge_payload(self, payload: dict) -> "LatencySketch":
        """:meth:`merge` of ``from_payload(payload)``, without building it."""
        self._check_compatible(payload["ra"], payload["min_value"])
        buckets = self.buckets
        for index, count in payload["buckets"]:
            buckets[index] = buckets.get(index, 0) + count
        if payload["count"]:
            self.count += int(payload["count"])
            self.min_seen = min(self.min_seen, float(payload["min"]))
            self.max_seen = max(self.max_seen, float(payload["max"]))
        if len(buckets) > self.max_buckets:
            self._collapse()
        return self

    @classmethod
    def from_payload(
        cls, payload: dict, max_buckets: int = 2048
    ) -> "LatencySketch":
        return cls(payload["ra"], max_buckets, payload["min_value"]).merge_payload(payload)


class ClassStats:
    """One window's probe statistics: quantile sketch + drop accumulator.

    The stream plane keeps one per peer class; the agent's PA counters
    (:class:`~repro.core.agent.counters.LatencyCounters`) are the same
    accumulator over a whole reporting window.  Failed probes and §4.2
    retransmission signatures each count one dropped connection, over all
    attempts — a fully black-holed class reports 1.0, never a
    division-by-zero clean bill.  Everything is mergeable, exactly.
    """

    __slots__ = ("sketch", "success", "failed", "one_drop", "two_drops")

    def __init__(
        self,
        relative_accuracy: float = RELATIVE_ACCURACY,
        max_buckets: int = 2048,
    ) -> None:
        self.sketch = LatencySketch(relative_accuracy, max_buckets)
        self.success = 0
        self.failed = 0
        self.one_drop = 0
        self.two_drops = 0

    # -- ingestion ---------------------------------------------------------

    def observe(self, success: bool, rtt_us: float) -> None:
        """Fold one probe outcome (RTT in microseconds)."""
        if not success:
            self.failed += 1
            return
        self.success += 1
        if ONE_DROP_RTT_US <= rtt_us < TWO_DROPS_RTT_US:
            self.one_drop += 1
        elif rtt_us >= TWO_DROPS_RTT_US:
            self.two_drops += 1
        self.sketch.add(rtt_us)

    def observe_many(self, successes, rtts_us) -> None:
        """Fold a batch of probe outcomes (RTTs in µs): :meth:`observe` per
        probe, in one call — the fold the PA counters and the stream
        aggregator make of every round.

        Up to ``_SMALL_BATCH`` outcomes, a pinglist round, one numpy pass
        gives every bucket index and a plain loop does the rest; a larger
        batch takes :meth:`observe_aggregate`'s array counts and bincount.
        """
        ok = np.asarray(successes, dtype=bool)
        rtts = np.asarray(rtts_us, dtype=np.float64)
        if ok.size > _SMALL_BATCH:
            self.observe_aggregate(ok.size - int(np.count_nonzero(ok)), rtts[ok])
            return
        sketch = self.sketch
        buckets = sketch.buckets
        low, high = sketch.min_seen, sketch.max_seen
        n_ok = one_drop = two_drops = 0
        for success, rtt, index in zip(ok.tolist(), rtts.tolist(), sketch._indices(rtts).tolist()):
            if success:
                n_ok += 1
                buckets[index] = buckets.get(index, 0) + 1
                if rtt < low:
                    low = rtt
                if rtt > high:
                    high = rtt
                if rtt >= ONE_DROP_RTT_US:  # one compare for a clean RTT
                    if rtt < TWO_DROPS_RTT_US:
                        one_drop += 1
                    else:
                        two_drops += 1
        self.failed += ok.size - n_ok
        self.success += n_ok
        self.one_drop += one_drop
        self.two_drops += two_drops
        sketch.count += n_ok
        sketch.min_seen, sketch.max_seen = low, high
        if len(buckets) > sketch.max_buckets:
            sketch._collapse()

    def observe_aggregate(self, n_failed: int, rtts_us) -> None:
        """Fold a class-round outcome: a failure *count* plus the successful
        RTT vector (µs).  Equivalent to :meth:`observe_many` with
        ``n_failed`` failures prepended, without materializing them."""
        self.failed += n_failed
        rtts = np.asarray(rtts_us, dtype=np.float64)
        n_ok = int(rtts.size)
        if n_ok == 0:
            return
        self.success += n_ok
        self.one_drop += int(
            ((rtts >= ONE_DROP_RTT_US) & (rtts < TWO_DROPS_RTT_US)).sum()
        )
        self.two_drops += int((rtts >= TWO_DROPS_RTT_US).sum())
        self.sketch.add_many(rtts)

    # -- derived metrics ---------------------------------------------------

    @property
    def probes(self) -> int:
        return self.success + self.failed

    def drop_rate(self) -> float:
        """Failure-aware drop rate (the ``packet_drop_rate`` PA counter):
        every failed probe and every retransmission signature counts one
        dropped connection — one per 9 s probe, not two, "successive packet
        drops within a connection are not independent" — over all attempts.
        With successes alone as the denominator an all-failed window divides
        away into a clean bill of health; it must report 1.0."""
        attempts = self.success + self.failed
        if attempts == 0:
            return 0.0
        return (self.one_drop + self.two_drops + self.failed) / attempts

    def syn_drop_rate(self) -> float:
        """The paper's §4.2 heuristic, identical to the batch SLA's
        ``drop_rate``: signature probes over *successful* probes, failures
        excluded (can't tell a dropped packet from a dead receiver)."""
        if self.success == 0:
            return 0.0
        return (self.one_drop + self.two_drops) / self.success

    def failure_rate(self) -> float:
        """Outright connection failures over all attempts."""
        attempts = self.success + self.failed
        if attempts == 0:
            return 0.0
        return self.failed / attempts

    @property
    def signature_events(self) -> int:
        """Retransmission-signature count (§4.2 numerator)."""
        return self.one_drop + self.two_drops

    def quantile_us(self, q: float) -> float | None:
        return self.sketch.quantile(q)

    # -- merge / serialization --------------------------------------------

    def merge(self, other: "ClassStats") -> "ClassStats":
        self.sketch.merge(other.sketch)
        self.success += other.success
        self.failed += other.failed
        self.one_drop += other.one_drop
        self.two_drops += other.two_drops
        return self

    def copy(self) -> "ClassStats":
        clone = ClassStats.__new__(ClassStats)
        clone.sketch = self.sketch.copy()
        clone.success = self.success
        clone.failed = self.failed
        clone.one_drop = self.one_drop
        clone.two_drops = self.two_drops
        return clone

    def to_payload(self) -> dict:
        return {
            "sketch": self.sketch.to_payload(),
            "success": self.success,
            "failed": self.failed,
            "one_drop": self.one_drop,
            "two_drops": self.two_drops,
        }

    def merge_payload(self, payload: dict) -> "ClassStats":
        """:meth:`merge` of ``from_payload(payload)``, without building it."""
        self.sketch.merge_payload(payload["sketch"])
        self.success += int(payload["success"])
        self.failed += int(payload["failed"])
        self.one_drop += int(payload["one_drop"])
        self.two_drops += int(payload["two_drops"])
        return self

    @classmethod
    def from_payload(cls, payload: dict, max_buckets: int = 2048) -> "ClassStats":
        return cls(payload["sketch"]["ra"], max_buckets).merge_payload(payload)
