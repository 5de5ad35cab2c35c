"""Packet-drop inference from TCP connect RTTs (§4.2).

"Pingmesh does not directly measure packet drop rate.  However, we can infer
packet drop rate from the TCP connection setup time. ... if the measured TCP
connection RTT is around 3 seconds, there is one packet drop; if the RTT is
around 9 seconds, there are two packet drops.  We use the following
heuristic to estimate packet drop rate:

    (probes with 3s rtt + probes with 9s rtt) / total successful probes

Note that we only use the total number of successful TCP probes instead of
the total probes as the denominator.  This is because for failed probes, we
cannot differentiate between packet drops and receiving server failure.  In
the numerator, we only count one packet drop instead of two for every
connection with 9 second RTT" — successive drops within a connection are
correlated.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from repro.cosmos.scope import Aggregator, RowSet, agg, col
from repro.netsim.tcp import ONE_DROP_RTT_S, TWO_DROPS_RTT_S

__all__ = [
    "classify_probe",
    "estimate_drop_rate",
    "estimate_drop_rate_from_arrays",
    "drop_rate_aggregate",
    "DropRateEstimate",
]


def classify_probe(success: bool, rtt_s: float) -> int | None:
    """Number of inferred SYN drops for one probe.

    Returns 0, 1 or 2 for successful probes, ``None`` for failed probes
    (excluded from the heuristic entirely).
    """
    if not success:
        return None
    if rtt_s < ONE_DROP_RTT_S:
        return 0
    if rtt_s < TWO_DROPS_RTT_S:
        return 1
    return 2


class DropRateEstimate:
    """The heuristic's output plus its inputs, for reporting."""

    def __init__(self, successful: int, one_drop: int, two_drop: int) -> None:
        self.successful = successful
        self.one_drop = one_drop
        self.two_drop = two_drop

    @property
    def rate(self) -> float:
        if self.successful == 0:
            return 0.0
        return (self.one_drop + self.two_drop) / self.successful

    def __repr__(self) -> str:
        return (
            f"DropRateEstimate(rate={self.rate:.3g}, successful={self.successful}, "
            f"one_drop={self.one_drop}, two_drop={self.two_drop})"
        )


def estimate_drop_rate(rows: RowSet | Iterable[dict[str, Any]]) -> DropRateEstimate:
    """Apply the heuristic to latency records (``success`` + ``rtt_us``):
    a rowset's columns, or dicts packed once."""
    window = RowSet.of(rows)
    rtt_us, success = (np.asarray(window.column(name)) for name in ("rtt_us", "success"))
    return estimate_drop_rate_from_arrays(rtt_us / 1e6, success)


# The heuristic's numerator, in classify_probe's arithmetic: a success at or past 3 s.
RETRANSMITTED = col("success") & (col("rtt_us") / 1e6 >= ONE_DROP_RTT_S)


def drop_rate_aggregate() -> Aggregator:
    """The heuristic as a SCOPE aggregate over ``success`` / ``rtt_us``: a
    group's value equals ``estimate_drop_rate(group).rate`` to the bit."""
    return agg.ratio(numerator=RETRANSMITTED, denominator=col("success"))


def estimate_drop_rate_from_arrays(
    rtt_s: np.ndarray, success: np.ndarray
) -> DropRateEstimate:
    """Vectorized form for the batch-probe benches (≥10⁶ samples)."""
    if rtt_s.shape != success.shape:
        raise ValueError(
            f"shape mismatch: rtt {rtt_s.shape} vs success {success.shape}"
        )
    ok = success.astype(bool)
    ok_rtts = rtt_s[ok]
    one = int(((ok_rtts >= ONE_DROP_RTT_S) & (ok_rtts < TWO_DROPS_RTT_S)).sum())
    two = int((ok_rtts >= TWO_DROPS_RTT_S).sum())
    return DropRateEstimate(int(ok.sum()), one, two)
