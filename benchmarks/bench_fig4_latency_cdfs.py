"""Figure 4: intra-DC latency distributions.

(a) inter-pod latency CDF for DC1 (US West, throughput) vs DC2 (US Central,
    interactive Search) — similar at and below P90;
(b) the same at high percentiles — DC1 ≫ DC2 at P99.9/P99.99
    (paper: 23.35 ms vs 11.07 ms at P99.9; 1397.63 ms vs 105.84 ms at P99.99);
(c) intra-pod vs inter-pod, DC1 — paper P50/P99: (216 µs, 1.26 ms) intra,
    (268 µs, 1.34 ms) inter;
(d) with vs without an 800–1200 B payload, DC1 — paper P50 268→326 µs,
    P99 1.34→2.43 ms.

Every series is drawn by the engine the fleet runs: ``Fabric.probe_many``
rounds over a cached pinglist.  The payload series is the echo leg an
agent records (``payload_rtt_s``), which takes the scalar engine — about
100 µs a probe, hence its smaller sample.
"""

import numpy as np
import pytest

from _helpers import banner, fmt_us, percentiles_us, print_rows, probe_rounds
from repro.netsim.fabric import Fabric
from repro.netsim.topology import MultiDCTopology, TopologySpec

N_PROBES = 2_000_000
N_PAYLOAD_PROBES = 50_000
T_MIDDAY = 6 * 3600.0  # sample away from the diurnal extremes

PAPER = {
    "dc1_inter": {"P50": 268e-6, "P99": 1.34e-3, "P99.9": 23.35e-3, "P99.99": 1.39763},
    "dc2_inter": {"P50": None, "P99": None, "P99.9": 11.07e-3, "P99.99": 105.84e-3},
    "dc1_intra": {"P50": 216e-6, "P99": 1.26e-3},
    "dc1_payload": {"P50": 326e-6, "P99": 2.43e-3},
}


def _two_dc_fabric(seed=42):
    return Fabric(
        MultiDCTopology(
            [
                TopologySpec(name="dc1", region="us-west", profile_name="dc1-us-west"),
                TopologySpec(
                    name="dc2", region="us-central", profile_name="dc2-us-central"
                ),
            ]
        ),
        seed=seed,
    )


def _successful_rtts(fabric, a, b, n):
    batches = probe_rounds(fabric, a, b, n, t=T_MIDDAY)
    return np.concatenate([batch.rtt_s[batch.success] for batch in batches])


def _inter_pod_pair(fabric, dc_index):
    dc = fabric.topology.dc(dc_index)
    return dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]


def _inter_pod_rtts(fabric, dc_index, n=N_PROBES):
    return _successful_rtts(fabric, *_inter_pod_pair(fabric, dc_index), n)


def _intra_pod_rtts(fabric, dc_index, n=N_PROBES):
    a, b = fabric.topology.dc(dc_index).servers_in_pod(0)[:2]
    return _successful_rtts(fabric, a, b, n)


def _payload_rtts(fabric, dc_index, n=N_PAYLOAD_PROBES):
    """The payload echo leg of successful inter-pod probes."""
    a, b = _inter_pod_pair(fabric, dc_index)
    batches = probe_rounds(fabric, a, b, n, t=T_MIDDAY, payload_bytes=1000)
    return np.array(
        [rtt for batch in batches for rtt in batch.payload_rtt_s if rtt is not None]
    )


@pytest.fixture(scope="module")
def samples():
    fabric = _two_dc_fabric()
    return {
        "dc1_inter": _inter_pod_rtts(fabric, 0),
        "dc2_inter": _inter_pod_rtts(fabric, 1),
        "dc1_intra": _intra_pod_rtts(fabric, 0),
        "dc1_payload": _payload_rtts(fabric, 0),
    }


def _report(samples):
    banner("Figure 4 — intra-DC latency distributions (measured vs paper)")
    rows = []
    for name, rtts in samples.items():
        measured = percentiles_us(rtts)
        paper = PAPER.get(name, {})
        rows.append(
            [
                name,
                *(fmt_us(measured[f"P{q}"]) for q in (50, 90, 99, 99.9, 99.99)),
                " / ".join(
                    f"{key}={fmt_us(value)}"
                    for key, value in paper.items()
                    if value is not None
                ),
            ]
        )
    print_rows(
        ["series", "P50", "P90", "P99", "P99.9", "P99.99", "paper"], rows
    )


def bench_fig4a_dc1_vs_dc2_below_p90(benchmark, samples):
    """Fig 4(a): the two DCs look alike at the median and P90."""
    dc1, dc2 = samples["dc1_inter"], samples["dc2_inter"]

    def medians():
        return np.median(dc1), np.median(dc2)

    p50_dc1, p50_dc2 = benchmark(medians)
    assert p50_dc1 == pytest.approx(p50_dc2, rel=0.3)
    assert np.percentile(dc1, 90) == pytest.approx(np.percentile(dc2, 90), rel=0.5)


def bench_fig4b_high_percentile_tail(benchmark, samples):
    """Fig 4(b): DC1's tail dominates DC2's at P99.9 and P99.99."""
    dc1, dc2 = samples["dc1_inter"], samples["dc2_inter"]

    def tails():
        return (
            np.percentile(dc1, 99.9),
            np.percentile(dc2, 99.9),
            np.percentile(dc1, 99.99),
            np.percentile(dc2, 99.99),
        )

    p999_dc1, p999_dc2, p9999_dc1, p9999_dc2 = benchmark(tails)
    assert p999_dc1 > 1.4 * p999_dc2  # paper ratio ≈ 2.1x
    assert p9999_dc1 > 3.0 * p9999_dc2  # paper ratio ≈ 13x
    # Order of magnitude: tens of ms at P99.9, 0.1-3 s at P99.99 for DC1.
    assert 5e-3 < p999_dc1 < 80e-3
    assert 0.1 < p9999_dc1 < 3.5


def bench_fig4c_intra_vs_inter_pod(benchmark, samples):
    """Fig 4(c): intra-pod < inter-pod, gap of tens of µs at P50."""
    intra, inter = samples["dc1_intra"], samples["dc1_inter"]

    def gap():
        return np.median(inter) - np.median(intra)

    p50_gap = benchmark(gap)
    assert 10e-6 < p50_gap < 200e-6  # paper: 52 µs
    assert np.percentile(intra, 99) < np.percentile(inter, 99)


def bench_fig4d_payload_vs_no_payload(benchmark, samples):
    """Fig 4(d): payload adds tens of µs at P50, widens at P99."""
    plain, payload = samples["dc1_inter"], samples["dc1_payload"]

    def gaps():
        return (
            np.median(payload) - np.median(plain),
            np.percentile(payload, 99) - np.percentile(plain, 99),
        )

    p50_gap, p99_gap = benchmark(gaps)
    assert 20e-6 < p50_gap < 300e-6  # paper: 58 µs
    assert p99_gap > p50_gap  # paper: 1.09 ms vs 58 µs


def bench_fig4_report(benchmark, samples):
    """Print the full measured-vs-paper table (runs once)."""
    benchmark.pedantic(_report, args=(samples,), rounds=1, iterations=1)
