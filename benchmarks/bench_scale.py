"""Gated benchmark: paper-scale fleets through the sharded class driver.

The paper runs Pingmesh on tens of thousands of servers; this suite holds
the simulator to that scale.  For each fleet size a full system (agents,
controller, DSA, stream plane) simulates one 10-minute probing window
through :class:`~repro.core.sharded.ShardedFleet` with closed-form class
rounds, and the wall-clock must stay inside a per-size budget — measured
headroom is ~4-5x on the reference machine, so a breach means a real
regression, not noise.  A second gate pins the class-round engine's edge
over the per-pair fast path at the 4k size: ≥3x per probe.  A third
compares a two-worker thread pool against serial class draws at 16k over
ten alternating pairs — the ≥1.1x gate binds on machines with ≥2 CPUs
(the measured ratios are always recorded), since one core has no second
thread to give the draws.  The top rung is 64k servers — past the
paper's "tens of thousands" — whose window budget assumes the lazy
pinglist path (system start renders 64k pinglists; eager generation
would blow the suite's runtime long before the window starts).

What comes before the first window has its own gate:
``bench_scale_cold_start`` times construct → fleet start (every agent
downloads and parses its pinglist) → first round (every shard compiles
its class plan) at 4k and 16k, and gates the process's peak RSS.

Run via ``check_regressions.py --suite scale`` → ``BENCH_scale.json``.
"""

import os
import resource
import time

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec

SIZES = {
    "1k-servers": TopologySpec(
        n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8
    ),
    "4k-servers": TopologySpec(
        n_podsets=8, pods_per_podset=16, servers_per_pod=32, n_spines=16
    ),
    "16k-servers": TopologySpec(
        n_podsets=16, pods_per_podset=32, servers_per_pod=32, n_spines=32
    ),
    "64k-servers": TopologySpec(
        n_podsets=32, pods_per_podset=32, servers_per_pod=64, n_spines=64
    ),
}

# Wall-clock budget (seconds) for a cold start — topology build, fleet start
# and the first round, the one-time costs outside the window budgets below.
# Measured 2.9 s / 12.7 s on the reference machine (16k read 85 s before
# pinglists and class plans were built per pod).
COLD_START_BUDGET_S = {
    "4k-servers": 12.0,
    "16k-servers": 60.0,
}

# Peak-RSS budget (MB) for the same cold start: the measured high-water mark
# plus 10% (174 / 552 MB on the reference machine; 192 / 624 MB while class
# plans held a (src, dst, port) tuple per probe).
COLD_START_RSS_BUDGET_MB = {
    "4k-servers": 191,
    "16k-servers": 607,
}

# Wall-clock budget (seconds) for one simulated 10-minute window, per size.
# Topology build and fleet start are one-time costs outside the budget.
WINDOW_BUDGET_S = {
    "1k-servers": 5.0,
    "4k-servers": 20.0,
    "16k-servers": 110.0,
    "64k-servers": 300.0,  # measured ~75s on the reference machine
}

SPEEDUP_FLOOR = 3.0  # class rounds vs per-pair fast path, 4k servers
SPEEDUP_SPEC = SIZES["4k-servers"]
ROUNDS_PER_LEG = 3

# Pool gate: a ``workers=2`` thread pool against serial class draws at 16k
# servers.  Only the numpy draws leave the main thread, so the pool needs a
# second core to win anything; the gate binds on machines that have one,
# and the measured ratios are recorded everywhere.  The first few pooled
# rounds on a fresh process run slower than serial ones (measured: ~5 pairs
# at 0.85-0.99x before a steady ~1.5x on a 2-vCPU Xeon), so unmeasured pairs
# warm both legs first.
POOL_SPEC = SIZES["16k-servers"]
POOL_WORKERS = 2
POOL_WARM_PAIRS = 6
POOL_PAIRS = 10
POOL_FLOOR = 1.1
POOL_MIN_CPUS = 2


def _build(spec, round_mode="class"):
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec,),
            seed=1,
            generator=GeneratorConfig(max_peers_per_server=64),
            agent=AgentConfig(round_mode=round_mode, upload_period_s=600.0),
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
        )
    )
    return system


# First in the file, smallest first: ``ru_maxrss`` is the process's
# high-water mark, and it is these benches' own only while nothing bigger
# has run.
@pytest.mark.parametrize("label", list(COLD_START_BUDGET_S))
def bench_scale_cold_start(benchmark, label):
    """Construct → ``ShardedFleet`` → first ``run_round``, gated."""

    def cold_start():
        begun = time.perf_counter()
        fleet = ShardedFleet(_build(SIZES[label]))
        started = time.perf_counter()
        probes = fleet.run_round(0.0)
        return started - begun, time.perf_counter() - started, probes

    start_s, first_round_s, probes = benchmark.pedantic(
        cold_start, rounds=1, iterations=1
    )
    budget = COLD_START_BUDGET_S[label]
    rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    rss_budget = COLD_START_RSS_BUDGET_MB[label]
    benchmark.extra_info["start_s"] = round(start_s, 2)
    benchmark.extra_info["first_round_s"] = round(first_round_s, 2)
    benchmark.extra_info["budget_s"] = budget
    benchmark.extra_info["probes"] = probes
    benchmark.extra_info["ru_maxrss_mb"] = rss_mb
    benchmark.extra_info["rss_budget_mb"] = rss_budget
    assert probes == SIZES[label].n_servers * 64
    assert start_s + first_round_s <= budget, (
        f"{label}: cold start took {start_s:.1f}s + {first_round_s:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    assert rss_mb <= rss_budget, (
        f"{label}: cold start peaked at {rss_mb} MB (budget {rss_budget} MB)"
    )


@pytest.mark.parametrize("label", list(SIZES))
def bench_scale_window(benchmark, label):
    """One simulated 10-minute window, sharded class rounds, gated."""
    system = _build(SIZES[label])
    fleet = ShardedFleet(system)

    def window():
        start = time.perf_counter()
        fleet.run_for(600.0)
        return time.perf_counter() - start

    elapsed = benchmark.pedantic(window, rounds=1, iterations=1)
    budget = WINDOW_BUDGET_S[label]
    benchmark.extra_info["window_s"] = round(elapsed, 2)
    benchmark.extra_info["budget_s"] = budget
    benchmark.extra_info["probes"] = fleet.probes_sent
    assert fleet.probes_sent > 0
    assert elapsed <= budget, (
        f"{label}: simulated 10-minute window took {elapsed:.1f}s "
        f"(budget {budget:.0f}s)"
    )
    # Conservation must survive the scale: the stream plane's ledger is
    # exact even when every delta is shard-merged.
    ledger = system.stream.conservation()
    assert ledger["probes_folded"] == (
        ledger["probes_emitted"] + ledger["probes_pending"]
    )


def _timed_fleet_round(fleet, t):
    start = time.perf_counter()
    probes = fleet.run_round(t)
    return (time.perf_counter() - start) / probes


def _timed_agent_round(system, t):
    start = time.perf_counter()
    probes = sum(agent.run_probe_round(t) for agent in system.agents.values())
    return (time.perf_counter() - start) / probes


def bench_scale_class_vs_fast_speedup(benchmark):
    """The ≥3x gate at 4k servers: sharded class rounds vs per-agent
    per-pair fast rounds, timed as matched interleaved best-of-N legs."""
    classed = _build(SPEEDUP_SPEC)
    fleet = ShardedFleet(classed)
    fast = _build(SPEEDUP_SPEC, round_mode="fast")
    fast.start()

    def measure():
        fleet.run_round(0.0)  # warm: compile + merge the shard plans
        _timed_agent_round(fast, 0.0)  # warm: pair/path caches
        class_times, fast_times = [], []
        for i in range(ROUNDS_PER_LEG):
            t = 60.0 * (1 + i)
            class_times.append(_timed_fleet_round(fleet, t))
            fast_times.append(_timed_agent_round(fast, t))
        return min(fast_times) / min(class_times)

    speedup = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["rounds_per_leg"] = ROUNDS_PER_LEG
    assert speedup >= SPEEDUP_FLOOR, (
        f"class rounds only {speedup:.1f}x over the per-pair fast path "
        f"at 4k servers (gate {SPEEDUP_FLOOR:.0f}x)"
    )


def bench_scale_thread_vs_serial_speedup(benchmark):
    """The thread pool against serial class draws at 16k servers: matched
    interleaved best-of-N legs on one fleet whose ``workers`` alternates,
    the leg order flipping every pair.  Bit-identical results are asserted
    elsewhere (``tests/core/test_sharded_fleet.py``); this measures only
    the pool's dividend, and gates ≥1.1x when the machine has two CPUs."""
    cpus = os.cpu_count() or 1
    fleet = ShardedFleet(_build(POOL_SPEC))

    def measure():
        fleet.run_round(0.0)  # warm: compile + merge the shard plans
        times = {0: [], POOL_WORKERS: []}
        t = 0.0
        for pair in range(-POOL_WARM_PAIRS, POOL_PAIRS):
            legs = (0, POOL_WORKERS) if pair % 2 == 0 else (POOL_WORKERS, 0)
            for workers in legs:
                fleet.workers = workers
                t += 10.0  # every round lands before the 600-s upload timer
                elapsed = _timed_fleet_round(fleet, t)
                if pair >= 0:
                    times[workers].append(elapsed)
        return times[0], times[POOL_WORKERS]

    serial, pooled = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = min(serial) / min(pooled)
    ratios = [s / p for s, p in zip(serial, pooled)]
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["pair_ratios"] = [round(r, 2) for r in ratios]
    benchmark.extra_info["pairs_at_floor"] = sum(r >= POOL_FLOOR for r in ratios)
    benchmark.extra_info["cpu_count"] = cpus
    benchmark.extra_info["workers"] = POOL_WORKERS
    if cpus >= POOL_MIN_CPUS:
        benchmark.extra_info["gate"] = f">= {POOL_FLOOR}x"
        assert speedup >= POOL_FLOOR, (
            f"thread pool only {speedup:.2f}x over serial at 16k servers "
            f"with {cpus} CPUs (gate {POOL_FLOOR}x)"
        )
    else:
        benchmark.extra_info["gate"] = f"recorded only ({cpus} CPU < {POOL_MIN_CPUS})"
