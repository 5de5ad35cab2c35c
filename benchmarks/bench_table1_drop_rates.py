"""Table 1: intra-pod and inter-pod packet drop rates for five DCs.

Paper values:

    DC1 (US West)     1.31e-5    7.55e-5
    DC2 (US Central)  2.10e-5    7.63e-5
    DC3 (US East)     9.58e-6    4.00e-5
    DC4 (Europe)      1.52e-5    5.32e-5
    DC5 (Asia)        9.82e-6    1.54e-5

Each DC is sampled with millions of probes, drawn by the engine the fleet
runs (``Fabric.probe_many`` rounds over a cached pinglist), and the §4.2
heuristic applied, alongside the analytic expectation of the calibrated
drop model.  The shapes to verify: every rate in 1e-5…1e-4, inter-pod
several times intra-pod, per-DC ordering preserved.
"""

import numpy as np
import pytest

from _helpers import banner, fmt_rate, print_rows, probe_rounds
from repro.core.dsa.drop_inference import estimate_drop_rate_from_arrays
from repro.netsim.fabric import Fabric
from repro.netsim.topology import MultiDCTopology, TopologySpec

N_PROBES = 3_000_000

PAPER = [
    ("DC1 (US West)", "dc1-us-west", 1.31e-5, 7.55e-5),
    ("DC2 (US Central)", "dc2-us-central", 2.10e-5, 7.63e-5),
    ("DC3 (US East)", "dc3-us-east", 9.58e-6, 4.00e-5),
    ("DC4 (Europe)", "dc4-europe", 1.52e-5, 5.32e-5),
    ("DC5 (Asia)", "dc5-asia", 9.82e-6, 1.54e-5),
]
REGIONS = ["us-west", "us-central", "us-east", "europe", "asia"]


@pytest.fixture(scope="module")
def fabric():
    specs = [
        TopologySpec(name=f"dc{i + 1}", region=REGIONS[i], profile_name=profile)
        for i, (_name, profile, _intra, _inter) in enumerate(PAPER)
    ]
    return Fabric(MultiDCTopology(specs), seed=1)


def _measure_dc(fabric, dc_index):
    dc = fabric.topology.dc(dc_index)
    intra_pair = dc.servers_in_pod(0)[:2]
    inter_pair = (dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0])
    out = {}
    for label, (a, b) in (("intra", intra_pair), ("inter", inter_pair)):
        batches = probe_rounds(fabric, a, b, N_PROBES)
        estimate = estimate_drop_rate_from_arrays(
            np.concatenate([batch.rtt_s for batch in batches]),
            np.concatenate([batch.success for batch in batches]),
        )
        out[label] = (estimate.rate, fabric.expected_attempt_drop(a, b))
    return out


@pytest.fixture(scope="module")
def measurements(fabric):
    return {
        profile: _measure_dc(fabric, i)
        for i, (_name, profile, _intra, _inter) in enumerate(PAPER)
    }


def bench_table1_report(benchmark, fabric, measurements):
    """Regenerate Table 1 and print measured vs analytic vs paper."""

    def report():
        banner("Table 1 — intra-pod and inter-pod packet drop rates")
        rows = []
        for name, profile, paper_intra, paper_inter in PAPER:
            m = measurements[profile]
            rows.append(
                [
                    name,
                    fmt_rate(m["intra"][0]),
                    fmt_rate(paper_intra),
                    fmt_rate(m["inter"][0]),
                    fmt_rate(paper_inter),
                ]
            )
        print_rows(
            ["data center", "intra (meas)", "intra (paper)", "inter (meas)", "inter (paper)"],
            rows,
        )
        _assert_shapes(measurements)

    benchmark.pedantic(report, rounds=1, iterations=1)


def _assert_shapes(measurements):
    """The Table 1 shapes: bands, intra<inter, analytic agreement, order."""
    for profile, m in measurements.items():
        assert 5e-6 < m["intra"][0] < 1e-4, profile
        assert 1e-5 < m["inter"][0] < 2e-4, profile
        assert m["inter"][0] > m["intra"][0], profile
        for label in ("intra", "inter"):
            measured, analytic = m[label]
            assert measured == pytest.approx(analytic, rel=0.35), (profile, label)
    inter = {p: m["inter"][0] for p, m in measurements.items()}
    assert inter["dc5-asia"] == min(inter.values())


def bench_table1_sampling_throughput(benchmark, fabric):
    """Timed core: how fast ``probe_many`` rounds generate samples."""
    dc = fabric.topology.dc(0)
    a, b = dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]
    batches = benchmark(lambda: probe_rounds(fabric, a, b, 500_000))
    assert sum(len(batch) for batch in batches) == 500_000


