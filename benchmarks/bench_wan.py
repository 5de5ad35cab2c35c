"""Inter-DC tier benchmark: the WAN latency and drop envelopes (gated).

Four gates over a 4-DC fleet (us-west / us-east / europe / asia), run by
``check_regressions.py --suite wan`` and snapshotted to ``BENCH_wan.json``:

* **latency envelope** — every directed DC pair's measured P50 sits just
  above its directional ``wan_pair_rtt`` (the WAN term dominates; the
  intra-DC traversal adds well under 2 ms);
* **drop envelope** — the measured attempt-level SYN drop rate on a WAN
  pair matches the analytic ``expected_attempt_drop`` (the same quantity
  every class round uses), measured with the shared
  ``drops.WAN_DIRECTION_DROP`` constant raised for statistical power;
* **class parity** — inter-DC class groups carry attempt-drop
  probabilities *bit-identical* to the path-based computation, split per
  destination DC and WAN direction;
* **fiber-cut blast radius** — a ``WanFiberCut`` on one pair fails 100%
  of that pair's probes in both directions while every other DC pair and
  the endpoints' intra-DC traffic stay healthy, and healing restores it.
"""

import numpy as np
import pytest

from _helpers import banner, fmt_us, print_rows
from repro.netsim import drops
from repro.netsim.fabric import Fabric, PathScope
from repro.netsim.faults import WanFiberCut
from repro.netsim.topology import MultiDCTopology, TopologySpec

SPECS = (
    TopologySpec(name="dc-w", region="us-west", n_podsets=2, pods_per_podset=2, servers_per_pod=4),
    TopologySpec(name="dc-e", region="us-east", n_podsets=2, pods_per_podset=2, servers_per_pod=4),
    TopologySpec(name="dc-eu", region="europe", n_podsets=2, pods_per_podset=2, servers_per_pod=4),
    TopologySpec(name="dc-as", region="asia", n_podsets=2, pods_per_podset=2, servers_per_pod=4),
)
N_DCS = len(SPECS)
PAIR_SAMPLES = 80
INTRA_BUDGET_S = 2e-3  # generous ceiling for the non-WAN part of a WAN P50


def _fabric(seed=11):
    return Fabric(MultiDCTopology(list(SPECS)), seed=seed)


def _pivot(fabric, dc_index, k=0):
    return fabric.topology.dc(dc_index).servers[k]


def bench_wan_latency_envelope(benchmark):
    """Directed P50 per DC pair tracks the directional WAN RTT."""
    fabric = _fabric()

    def measure():
        rows = {}
        for i in range(N_DCS):
            for j in range(N_DCS):
                if i == j:
                    continue
                rtts = []
                for k in range(PAIR_SAMPLES):
                    result = fabric.probe(
                        _pivot(fabric, i, k % 8), _pivot(fabric, j, k % 8), t=60.0
                    )
                    if result.success:
                        rtts.append(result.rtt_s)
                rows[(i, j)] = (
                    float(np.median(rtts)),
                    fabric.topology.wan_pair_rtt(i, j),
                    len(rtts),
                )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    banner("WAN suite — directed inter-DC P50 vs speed-of-light pair RTT")
    print_rows(
        ["pair", "P50", "wan_pair_rtt", "P50 - WAN"],
        [
            [f"dc{i}->dc{j}", fmt_us(p50), fmt_us(wan), fmt_us(p50 - wan)]
            for (i, j), (p50, wan, _) in sorted(rows.items())
        ],
    )
    worst_excess = max(p50 - wan for p50, wan, _ in rows.values())
    benchmark.extra_info["pairs"] = len(rows)
    benchmark.extra_info["worst_excess_ms"] = round(worst_excess * 1e3, 3)
    for (i, j), (p50, wan, n) in rows.items():
        assert n > PAIR_SAMPLES * 0.9, f"dc{i}->dc{j}: only {n} successes"
        # The WAN term dominates: the P50 sits above the pair RTT but
        # within a small intra-DC traversal budget of it.
        assert wan < p50 < wan + INTRA_BUDGET_S, (i, j, p50, wan)


def bench_wan_drop_envelope(benchmark):
    """Measured attempt-level SYN drops match the analytic p_attempt.

    ``drops.WAN_DIRECTION_DROP`` is raised to 2% for the measurement —
    the fabric late-binds the shared constant, so the scalar engine and
    the analytic model move together (that co-movement *is* the gate).
    """
    original = drops.WAN_DIRECTION_DROP
    drops.WAN_DIRECTION_DROP = 0.02
    try:
        fabric = _fabric(seed=13)
        src, dst = _pivot(fabric, 0), _pivot(fabric, 1)
        analytic = fabric.expected_attempt_drop(src, dst)

        def measure():
            failures = attempts = 0
            for _ in range(3000):
                result = fabric.probe(src, dst, t=120.0)
                if result.success:
                    failures += result.syn_drops
                    attempts += result.syn_drops + 1
                else:
                    failures += 3
                    attempts += 3
            return failures / attempts

        measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    finally:
        drops.WAN_DIRECTION_DROP = original
    banner("WAN suite — attempt-level drop rate, measured vs analytic")
    print_rows(
        ["quantity", "value"],
        [
            ["analytic p_attempt", f"{analytic:.5f}"],
            ["measured attempt drop rate", f"{measured:.5f}"],
        ],
    )
    benchmark.extra_info["analytic_p_attempt"] = round(analytic, 5)
    benchmark.extra_info["measured"] = round(measured, 5)
    assert analytic > 0.02  # both WAN crossings contribute
    assert measured == pytest.approx(analytic, abs=0.01)


def bench_wan_class_parity(benchmark):
    """Inter-DC class groups are bit-identical to path-based drop math."""
    fabric = _fabric(seed=17)
    src = _pivot(fabric, 0)
    entries = [
        (_pivot(fabric, j, 1).device_id, 80, 0) for j in range(1, N_DCS)
    ]
    tags = [("inter-dc", "high")] * len(entries)

    def build():
        return fabric.build_class_plan(src, entries, tags)

    plan = benchmark.pedantic(build, rounds=3, iterations=1)
    banner("WAN suite — class-group drop parity per destination DC")
    print_rows(
        ["group", "p_attempt", "wan_fwd", "wan_rev"],
        [
            [
                f"dc{g.dc_index}->dc{g.dst_dc}",
                f"{g.p_attempt:.2e}",
                fmt_us(g.wan_fwd),
                fmt_us(g.wan_rev),
            ]
            for g in sorted(plan.groups, key=lambda g: g.dst_dc)
        ],
    )
    assert plan.passthrough == []
    assert len(plan.groups) == N_DCS - 1  # direction-split: one per dst DC
    topo = fabric.topology
    for group, indices in zip(plan.groups, plan.member_indices):
        assert group.scope is PathScope.INTER_DC
        dst_id, dst_port, _payload = entries[indices[0]]
        # Bit-identical, not approximately equal: the closed-form class
        # round must draw from exactly the scalar engine's distribution.
        assert group.p_attempt == fabric.expected_attempt_drop(
            src, dst_id, dst_port=dst_port
        )
        assert group.wan_fwd == topo.wan_rtt[(group.dc_index, group.dst_dc)]
        assert group.wan_rev == topo.wan_rtt[(group.dst_dc, group.dc_index)]
        assert group.wan_rtt == group.wan_fwd + group.wan_rev
    benchmark.extra_info["groups"] = len(plan.groups)


def _success_rate(fabric, src_dc, dst_dc, n=30, t=200.0):
    ok = 0
    for k in range(n):
        result = fabric.probe(
            _pivot(fabric, src_dc, k % 8),
            _pivot(fabric, dst_dc, (k + 1) % 8 if src_dc == dst_dc else k % 8),
            t=t,
        )
        ok += result.success
    return ok / n


def bench_wan_fiber_cut_blast_radius(benchmark):
    """A dc0<->dc1 fiber cut fails exactly that pair, then heals."""
    fabric = _fabric(seed=19)

    def measure():
        fault = fabric.faults.inject(WanFiberCut(src_dc=0, dst_dc=1))
        cut = {
            "dc0->dc1": _success_rate(fabric, 0, 1),
            "dc1->dc0": _success_rate(fabric, 1, 0),
            "dc0->dc2": _success_rate(fabric, 0, 2),
            "dc1->dc3": _success_rate(fabric, 1, 3),
            "dc2->dc3": _success_rate(fabric, 2, 3),
            "dc0 intra": _success_rate(fabric, 0, 0),
            "dc1 intra": _success_rate(fabric, 1, 1),
        }
        fabric.faults.clear(fault)
        healed = _success_rate(fabric, 0, 1)
        return cut, healed

    cut, healed = benchmark.pedantic(measure, rounds=1, iterations=1)
    banner("WAN suite — fiber-cut blast radius (success rates)")
    print_rows(
        ["path", "during cut"],
        [[key, f"{rate:.2f}"] for key, rate in cut.items()],
    )
    print(f"dc0->dc1 after heal: {healed:.2f}")
    assert cut["dc0->dc1"] == 0.0
    assert cut["dc1->dc0"] == 0.0  # a trench cut is bidirectional
    for key in ("dc0->dc2", "dc1->dc3", "dc2->dc3", "dc0 intra", "dc1 intra"):
        assert cut[key] >= 0.9, (key, cut[key])
    assert healed >= 0.9
    benchmark.extra_info["healed_success"] = round(healed, 2)
