"""Engineering benchmark: the SCOPE engine on a DSA-shaped window.

Not a paper figure — the perf contract behind the DSA analytics path.  The
10-min/hourly/daily jobs group-and-aggregate whole time windows; this bench
times exactly that shape (200k records, pod-pair grouping, the full
aggregate set) and gates its per-row cost on an absolute budget.
"""

import pytest

from repro.cosmos.scope import agg, col, extract
from repro.cosmos.store import CosmosStore

N_RECORDS = 200_000
N_PODS = 8  # 64 (src, dst) groups, like a DC's podpair_10min job
# Best round, per row: ~100 ns on the 2-core reference box.  The budget
# leaves room for a slower host, not for losing the vectorized reductions.
NS_PER_ROW_BUDGET = 500


def _records():
    return [
        {
            "t": float(i % 600),
            "src_dc": 0,
            "dst_dc": 0,
            "src_pod": i % N_PODS,
            "dst_pod": (i // N_PODS) % N_PODS,
            "success": i % 50 != 0,
            "rtt_us": 100.0 + (i * 31 % 997) + (3.1e6 if i % 211 == 0 else 0.0),
        }
        for i in range(N_RECORDS)
    ]


@pytest.fixture(scope="module")
def window():
    store = CosmosStore()
    store.append("bench/latency", _records(), t=600.0)
    return extract(store, "bench/latency")


def _podpair_query(rows):
    return (
        rows.where((col("src_pod") >= 0) & (col("dst_pod") >= 0))
        .group_by("src_pod", "dst_pod")
        .aggregate(
            probe_count=agg.count(),
            success_count=agg.count_if(col("success")),
            p50_us=agg.percentile("rtt_us", 50),
            p99_us=agg.percentile("rtt_us", 99),
            drop_rate=agg.ratio(
                numerator=col("success") & (col("rtt_us") >= 2.5e6),
                denominator=col("success"),
            ),
        )
        .order_by("src_pod", "dst_pod")
        .output()
    )


def bench_group_aggregate_columnar(benchmark, window):
    out = benchmark(lambda: _podpair_query(window))
    assert len(out) == N_PODS * N_PODS
    ns_per_row = benchmark.stats.stats.min / N_RECORDS * 1e9
    benchmark.extra_info["ns_per_row"] = round(ns_per_row, 1)
    benchmark.extra_info["budget_ns_per_row"] = NS_PER_ROW_BUDGET
    assert ns_per_row <= NS_PER_ROW_BUDGET, (
        f"group/aggregate costs {ns_per_row:.0f} ns per row "
        f"(budget {NS_PER_ROW_BUDGET} ns)"
    )
