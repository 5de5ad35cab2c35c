"""Shared formatting/helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper and prints a
paper-vs-measured comparison.  Absolute numbers come from a simulator, so
the comparisons to read are *shapes*: orderings, ratios, crossovers — see
DESIGN.md §5 ("Fidelity targets") and EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.fabric import DEFAULT_PROBE_PORT

__all__ = [
    "banner", "fmt_us", "fmt_rate", "percentiles_us", "print_rows", "probe_rounds",
]

ROUND_SIZE = 10_000  # entries in the pinglist probe_rounds repeats


def probe_rounds(fabric, src, dst, n, t=0.0, payload_bytes=0):
    """``n`` probes ``src`` -> ``dst`` the way an agent sends them: repeated
    ``Fabric.probe_many`` rounds over one cached pinglist of identical
    entries.  Returns the rounds' :class:`~repro.netsim.fabric.ProbeBatch`
    objects, in order."""
    entry = (dst.device_id, DEFAULT_PROBE_PORT, payload_bytes)
    full, rest = divmod(n, ROUND_SIZE)
    pinglist = (entry,) * ROUND_SIZE
    batches = [fabric.probe_many(src, pinglist, t=t) for _ in range(full)]
    if rest:
        batches.append(fabric.probe_many(src, (entry,) * rest, t=t))
    return batches


def banner(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def fmt_us(seconds: float | None) -> str:
    """Human latency: us below 1 ms, ms below 1 s, else seconds."""
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds:.2f}s"


def fmt_rate(rate: float) -> str:
    return f"{rate:.2e}"


def percentiles_us(rtts_s: np.ndarray, qs=(50, 90, 99, 99.9, 99.99)) -> dict:
    """Named percentiles of an RTT sample, in seconds."""
    return {f"P{q}": float(np.percentile(rtts_s, q)) for q in qs}


def print_rows(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))
