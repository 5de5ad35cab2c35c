"""Engineering benchmark: the simulator's probe throughput.

Not a paper figure — the capacity planning behind every other bench.  The
paper's fleet produces "more than 200 billion probes per day"; our benches
replay millions.  This records what the two probe paths deliver so
regressions in the hot loop are visible.
"""

import pytest

from repro.netsim.fabric import DEFAULT_PROBE_PORT, Fabric
from repro.netsim.topology import TopologySpec


@pytest.fixture(scope="module")
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=3)


@pytest.fixture(scope="module")
def cross_pair(fabric):
    dc = fabric.topology.dc(0)
    return dc.servers_in_podset(0)[0], dc.servers_in_podset(1)[0]


def bench_scalar_probe(benchmark, fabric, cross_pair):
    """Full-fidelity scalar probe (per-hop decisions, faults, counters)."""
    a, b = cross_pair
    result = benchmark(lambda: fabric.probe(a, b))
    assert result.rtt_s >= 0


def bench_scalar_probe_with_payload(benchmark, fabric, cross_pair):
    a, b = cross_pair
    result = benchmark(lambda: fabric.probe(a, b, payload_bytes=1000))
    assert result.rtt_s >= 0


def _pinglist(dst, n):
    """A cached ``probe_many`` round: ``n`` identical entries, one tuple."""
    return ((dst.device_id, DEFAULT_PROBE_PORT, 0),) * n


def bench_probe_many_100k(benchmark, fabric, cross_pair):
    """Vectorized path: one ``probe_many`` round of 100k probes."""
    a, b = cross_pair
    pinglist = _pinglist(b, 100_000)
    batch = benchmark(lambda: fabric.probe_many(a, pinglist))
    assert len(batch) == 100_000


def bench_router_path_cold(benchmark, fabric, cross_pair):
    """Path computation with the cache invalidated every iteration."""
    from repro.netsim.addressing import FiveTuple

    a, b = cross_pair
    flow = FiveTuple(a.ip, 50_000, b.ip, 81)
    router = fabric.router
    version = fabric.topology.state_version

    def cold():
        version.bump()  # forces a full rebuild: live lists + path
        return router.path(a, b, flow)

    path = benchmark(cold)
    assert path.n_hops == 5


def bench_router_path_cached(benchmark, fabric, cross_pair):
    """Path lookup when the generation is stable: bucket hash + dict hit."""
    from repro.netsim.addressing import FiveTuple

    a, b = cross_pair
    flow = FiveTuple(a.ip, 50_000, b.ip, 81)
    router = fabric.router
    router.path(a, b, flow)  # warm
    hits = router.cache_hits
    path = benchmark(lambda: router.path(a, b, flow))
    assert path.n_hops == 5
    assert router.cache_hits > hits


def bench_router_path_sweep(benchmark, fabric, cross_pair):
    """The access pattern of a degraded round: a source-port sweep inside
    one generation.  Neither cold (the pod pair's route record is built
    once, not per call) nor cached (consecutive ports hash into different
    ECMP buckets, so hits and hop-assembling misses mix).  One round is
    512 paths over one cross-podset pair in a fresh generation; the bump
    sits outside the timed region.  ``extra_info['ns_per_path']`` puts it
    beside the cold and cached per-path times."""
    from repro.netsim.addressing import EPHEMERAL_PORT_MIN, FiveTuple

    a, b = cross_pair
    flows = [FiveTuple(a.ip, EPHEMERAL_PORT_MIN + i, b.ip, 81) for i in range(512)]
    router = fabric.router
    version = fabric.topology.state_version

    def new_generation():
        version.bump()

    def sweep():
        for flow in flows:
            path = router.path(a, b, flow)
        return path

    path = benchmark.pedantic(sweep, setup=new_generation, rounds=100, iterations=1)
    assert path.n_hops == 5
    benchmark.extra_info["ns_per_path"] = benchmark.stats.stats.mean / len(flows) * 1e9


def bench_batch_vs_scalar_speedup(benchmark, fabric, cross_pair):
    """A ``probe_many`` round must stay orders of magnitude faster per
    probe than the scalar engine."""
    import time

    a, b = cross_pair
    pinglist = _pinglist(b, 200_000)
    fabric.probe_many(a, pinglist)  # compile the round plan outside the timing

    def measure():
        start = time.perf_counter()
        for _ in range(200):
            fabric.probe(a, b)
        scalar_per_probe = (time.perf_counter() - start) / 200
        start = time.perf_counter()
        fabric.probe_many(a, pinglist)
        batch_per_probe = (time.perf_counter() - start) / 200_000
        return scalar_per_probe / batch_per_probe

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert speedup > 20
