"""Engineering benchmarks: the streaming telemetry plane.

Three claims, each gated:

* **ingest throughput** — the merge tree absorbs agent deltas far faster
  than the fleet produces them (a delta is one sketch merge, not a row
  scan);
* **detection latency** — on the 256-server fleet with a ToR black-hole,
  the stream plane fires its first alert at least **50×** faster than the
  batch plane's 10-minute near-real-time floor (§3.5: "the time interval
  from when the latency data is generated to when the data is consumed
  ... is around 20 minutes");
* **constant sketch memory** — growing the sample volume 100× leaves the
  sketch's bucket count flat and under its cap.

``check_regressions.py --suite stream`` runs these after the stream
correctness tier and snapshots ``BENCH_stream.json``.
"""

import numpy as np
import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec
from repro.stream.aggregator import StreamAggregator
from repro.stream.ingest import StreamIngestService
from repro.stream.plane import StreamConfig
from repro.stream.sketch import LatencySketch

# The 256-server configuration from bench_scale / bench_fleet_round.
SPEC = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)

# The batch plane's near-real-time cadence (§3.5) — the floor streaming
# detection is measured against.
BATCH_FLOOR_S = 600.0
LATENCY_IMPROVEMENT_FLOOR = 50.0

MIN_INGEST_DELTAS_PER_S = 2_000.0


def _fleet_deltas(n_agents: int = 64, n_windows: int = 20) -> list:
    """Pre-built agent deltas: the ingest bench's workload."""
    rng = np.random.default_rng(17)
    deltas = []
    for agent_index in range(n_agents):
        aggregator = StreamAggregator(
            server_id=f"srv{agent_index}",
            dc=0,
            podset=agent_index % 4,
            pod=agent_index % 16,
            window_s=10.0,
        )
        for window in range(n_windows):
            t = window * 10.0 + 1.0
            n = 40
            successes = rng.random(n) < 0.999
            rtts = rng.lognormal(mean=5.5, sigma=0.4, size=n)
            aggregator.observe_round(t, {"tor-level": slice(None)}, successes, rtts)
        deltas.extend(aggregator.flush_all())
    return deltas


def bench_stream_ingest_throughput(benchmark):
    """Merge-tree ingest rate over a pre-built fleet's worth of deltas."""
    deltas = _fleet_deltas()

    def ingest_all():
        service = StreamIngestService(window_s=10.0)
        for delta in deltas:
            service.ingest(delta)
        assert service.deltas_ingested == len(deltas)
        return service

    service = benchmark.pedantic(ingest_all, rounds=5, iterations=1, warmup_rounds=1)
    mean_s = benchmark.stats.stats.mean
    deltas_per_s = len(deltas) / mean_s
    benchmark.extra_info["deltas"] = len(deltas)
    benchmark.extra_info["deltas_per_s"] = round(deltas_per_s)
    benchmark.extra_info["probes_ingested"] = service.probes_ingested
    assert deltas_per_s >= MIN_INGEST_DELTAS_PER_S, (
        f"ingest only {deltas_per_s:.0f} deltas/s "
        f"(floor {MIN_INGEST_DELTAS_PER_S:.0f})"
    )


def bench_stream_detection_latency(benchmark):
    """Breach→alert latency on the 256-server fleet, vs the batch floor.

    A ToR black-hole lands mid-run; the measured latency is sim-time from
    injection to the first ``plane="stream"`` breach.  The ≥50× gate is
    against the paper's 10-minute batch cadence — the best the batch plane
    could ever do, before adding its ingestion delay.
    """

    def measure() -> float:
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(SPEC,),
                seed=1,
                generator=GeneratorConfig(probe_interval_s=10.0),
                dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=600.0),
                agent=AgentConfig(upload_period_s=300.0),
                stream=StreamConfig(window_s=2.0),
            )
        )
        inject_t = 120.0
        system.run_for(inject_t)
        assert system.alert_engine.breaches() == []
        apply_scenario("tor-blackhole", system.fabric)
        system.run_for(60.0)
        stream_breaches = [
            a for a in system.alert_engine.breaches() if a.plane == "stream"
        ]
        assert stream_breaches, "stream plane never detected the black-hole"
        return min(a.t for a in stream_breaches) - inject_t

    latency_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    improvement = BATCH_FLOOR_S / latency_s
    benchmark.extra_info["detection_latency_s"] = round(latency_s, 1)
    benchmark.extra_info["batch_floor_s"] = BATCH_FLOOR_S
    benchmark.extra_info["improvement_x"] = round(improvement, 1)
    assert improvement >= LATENCY_IMPROVEMENT_FLOOR, (
        f"stream detection only {improvement:.1f}x faster than the batch "
        f"floor (gate {LATENCY_IMPROVEMENT_FLOOR:.0f}x): {latency_s:.1f}s"
    )


def bench_stream_sketch_memory(benchmark):
    """Constant memory: 100× the samples, the same buckets."""
    rng = np.random.default_rng(23)
    small = rng.lognormal(mean=5.5, sigma=1.0, size=10_000)
    large = rng.lognormal(mean=5.5, sigma=1.0, size=1_000_000)

    def fold_large() -> LatencySketch:
        sketch = LatencySketch()
        sketch.add_many(large)
        return sketch

    sketch_small = LatencySketch()
    sketch_small.add_many(small)
    sketch_large = benchmark.pedantic(fold_large, rounds=3, iterations=1)

    buckets_small = sketch_small.memory_buckets
    buckets_large = sketch_large.memory_buckets
    benchmark.extra_info["buckets_10k"] = buckets_small
    benchmark.extra_info["buckets_1m"] = buckets_large
    assert sketch_large.count == 1_000_000
    assert buckets_large <= sketch_large.max_buckets
    # 100x the volume widens the observed range a little (more extreme
    # draws), but the bucket count stays the same order — not 100x.
    assert buckets_large <= 2 * buckets_small
    # The whole sketch fits in a few KB at 16 bytes/bucket.
    assert buckets_large * 16 < 64 * 1024
