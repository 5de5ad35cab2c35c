"""Figure 5: one service's network SLA metrics over a normal week.

Paper: "The packet drop rate is around 4×10⁻⁵ and the 99th percentile
latency in a data center is 500-560us.  (The latency shows a periodical
pattern.  This is because this service performs high throughput data sync
periodically which increases the 99th percentile latency.)"

We run the ``service-sync`` workload profile over a simulated week,
computing the service's P99 latency and drop rate per hour — the same two
PA counters §6.2 says services consume.  Each hour's probes are drawn by
the class engine the paper-scale fleet runs: one compiled class plan of
identical entries, executed round after round.
"""

import numpy as np
import pytest

from _helpers import banner, fmt_rate, fmt_us, print_rows
from repro.core.dsa.drop_inference import DropRateEstimate
from repro.netsim.fabric import DEFAULT_PROBE_PORT, Fabric
from repro.netsim.topology import TopologySpec
from repro.netsim.workload import profile_for

HOURS = 7 * 24
ROUNDS_PER_HOUR = 12
PROBES_PER_ROUND = 10_000  # 120k probes an hour

PAPER_P99_BAND_US = (500.0, 560.0)
PAPER_DROP_RATE = 4e-5


@pytest.fixture(scope="module")
def week_series():
    profile = profile_for("service-sync")
    fabric = Fabric.single_dc(
        TopologySpec(profile_name="service-sync"), seed=9
    )
    dc = fabric.topology.dc(0)
    a = dc.servers_in_podset(0)[0]
    b = dc.servers_in_podset(1)[0]
    plan = fabric.build_class_plan(
        a, [(b.device_id, DEFAULT_PROBE_PORT, 0)] * PROBES_PER_ROUND
    )
    p99_us, drop_rate, in_sync = [], [], []
    for hour in range(HOURS):
        t = hour * 3600.0 + 1800.0
        outcomes = [
            outcome
            for _ in range(ROUNDS_PER_HOUR)
            for outcome in fabric.run_class_plan(plan, t=t)
        ]
        ok = np.concatenate([outcome.rtt_s for outcome in outcomes])
        p99_us.append(float(np.percentile(ok, 99)) * 1e6)
        estimate = DropRateEstimate(
            sum(outcome.success for outcome in outcomes),
            sum(outcome.one_drop for outcome in outcomes),
            sum(outcome.two_drops for outcome in outcomes),
        )
        drop_rate.append(estimate.rate)
        in_sync.append(profile.in_sync_window(t))
    return np.array(p99_us), np.array(drop_rate), np.array(in_sync)


def bench_fig5_report(benchmark, week_series):
    p99_us, drop_rate, in_sync = week_series

    def report():
        banner("Figure 5 — a service's P99 latency and drop rate over one week")
        rows = []
        for day in range(7):
            sl = slice(day * 24, (day + 1) * 24)
            rows.append(
                [
                    f"day {day + 1}",
                    fmt_us(np.median(p99_us[sl]) / 1e6),
                    fmt_us(np.max(p99_us[sl]) / 1e6),
                    fmt_rate(float(np.mean(drop_rate[sl]))),
                ]
            )
        print_rows(
            ["window", "median hourly P99", "max hourly P99 (sync)", "mean drop rate"],
            rows,
        )
        print(
            f"paper: P99 500-560us baseline with periodic bumps; "
            f"drop rate ~ {PAPER_DROP_RATE:.0e}"
        )

    benchmark.pedantic(report, rounds=1, iterations=1)


def bench_fig5_baseline_p99_band(benchmark, week_series):
    """Outside sync windows the hourly P99 sits in a narrow baseline band."""
    p99_us, _drop, in_sync = week_series

    def baseline():
        return float(np.median(p99_us[~in_sync]))

    value = benchmark(baseline)
    # Paper band is 500-560 us; accept the same order with margin.
    assert 300.0 < value < 1200.0


def bench_fig5_periodic_pattern(benchmark, week_series):
    """The data-sync windows lift P99 visibly and periodically."""
    p99_us, _drop, in_sync = week_series

    def lift():
        return float(np.median(p99_us[in_sync]) / np.median(p99_us[~in_sync]))

    ratio = benchmark(lift)
    assert ratio > 1.15  # sync hours are clearly elevated
    # Periodicity: sync windows recur every 6 h throughout the whole week.
    assert in_sync.sum() >= 7 * 4 - 4


def bench_fig5_drop_rate_level(benchmark, week_series):
    """Drop rate holds its ~4e-5 level all week, sync or not."""
    _p99, drop_rate, _in_sync = week_series

    def level():
        return float(np.mean(drop_rate))

    mean_rate = benchmark(level)
    assert mean_rate == pytest.approx(PAPER_DROP_RATE, rel=0.5)
    # And it never strays into alert territory on a normal week.
    assert max(drop_rate) < 1e-3
