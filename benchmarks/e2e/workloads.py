"""The four workloads: fleets, measured scripts and output checks.

Each workload is a small class with the same four hooks — ``build`` (set-up
up to a started system), ``measure`` (the timed script, driven in steps of
one 60-sim-second fleet round interval), ``finish`` (output checks) and
``sim`` (simulated counts that must repeat exactly under one seed).  The
program under test only ever sees generated inputs: the seed feeds the
system seed and, on the broker workload, the request generator.

Sizing.  ``--seconds`` picks how many 10-step windows a workload measures
from a table calibrated on the 2-core reference box, so the *work* is a
function of (workload, seed, seconds) only and never of how fast the host
happens to be: counts, memory and the step mix stay comparable between two
commits even when one of them is faster.  ``fault-1k-degraded`` has two
sizes instead of windows: its on- and off-periods are set by detection
delays, and ``--seconds`` only decides whether silent-spine stays on long
enough to be detected.
"""

from __future__ import annotations

import random
import statistics
import zlib
from time import perf_counter

from repro.broker import (
    AdmissionConfig,
    BrokerConfig,
    MeasurementBroker,
    RequestState,
    TenantQuota,
)
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.dsa.records import LATENCY_STREAM
from repro.core.sharded import ShardedFleet
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.scenarios import apply_scenario
from repro.netsim.topology import TopologySpec
from repro.stream.plane import StreamConfig

STEP_S = 60.0  # one fleet round interval
WINDOW_STEPS = 10  # one 600-sim-second upload / DSA window
WARMUP_S = 600.0

SPEC_4K = TopologySpec(n_podsets=8, pods_per_podset=16, servers_per_pod=32, n_spines=16)
SPEC_1K = TopologySpec(n_podsets=4, pods_per_podset=16, servers_per_pod=16, n_spines=8)
SPEC_256 = TopologySpec(n_podsets=4, pods_per_podset=4, servers_per_pod=16, n_spines=8)
# --smoke: every script on 64 servers.  Three pods and two podsets are the
# least the fault scenarios address (ToR of pod 2, spine 1, podset 1).
SPEC_SMOKE = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=16, n_spines=4)
SMOKE_WINDOWS = 2


class Workload:
    """Shared plumbing; subclasses set the class attributes and hooks."""

    name = ""
    why = ""
    spec = SPEC_1K
    windows_per_10s = 2.0  # measured windows that fit 10 s on the reference box
    may_discard = False  # whether uploaders may give up on records

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.spec = SPEC_SMOKE
            self.windows = SMOKE_WINDOWS
        else:
            self.windows = max(1, round(seconds * self.windows_per_10s / 10.0))
        self.system: PingmeshSystem | None = None
        self.fleet: ShardedFleet | None = None
        # What only some workloads produce; idle defaults for the others.
        self.breach_user_s: float | None = None  # user CPU at the first breach
        self.submit_s: dict[str, list[float]] = {"burst": [], "read": []}

    # -- hooks -------------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def advance(self, duration_s: float) -> None:
        """Run the deployment for ``duration_s`` simulated seconds."""
        self.fleet.run_for(duration_s)

    def measure(self, run) -> None:
        for index in range(self.windows * WINDOW_STEPS):
            run.step(f"step-{index}", lambda: self.advance(STEP_S))

    def finish(self, run) -> None:
        """Output checks; each ``run.check`` is one op."""
        self._check_ledgers(run)

    def alert_delay_sim_s(self) -> float:
        return 0.0

    def result_delay_sim_s_p99(self) -> float:
        return 0.0

    def sim(self) -> dict:
        """Simulated counts: identical across runs of one seed."""
        history = self.system.alert_engine.history
        stats = self.upload_stats()
        # Where every generator that drew ended up: any extra, missing or
        # reordered draw shows here even when the counts agree.
        rngs = [self.system.fabric.rng]
        if self.fleet is not None:
            rngs += [shard.rng for _key, shard in sorted(self.fleet.shards.items())]
        return {
            "rng_state": zlib.crc32(
                repr([rng.bit_generator.state["state"] for rng in rngs]).encode()
            ),
            "probes": self.probes(),
            "records_uploaded": stats["uploaded"],
            "store_records": self.system.store.records_ingested,
            "alerts": [
                [alert.t, alert.event, alert.metric, alert.scope, alert.key, alert.plane]
                for alert in history
            ],
        }

    # -- shared pieces -----------------------------------------------------

    def _sharded(self, max_peers: int) -> None:
        """The paper-scale configuration (as ``bench_scale``): class rounds
        under the serial sharded driver, class-granular stream deltas."""
        self.system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(self.spec,),
                seed=self.seed,
                generator=GeneratorConfig(max_peers_per_server=max_peers),
                agent=AgentConfig(round_mode="class", upload_period_s=600.0),
                dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
                stream=StreamConfig(shard_aggregation=True),
            )
        )
        self.fleet = ShardedFleet(self.system)

    def probes(self) -> int:
        """Probes completed so far, baseline plus injected."""
        return self.fleet.probes_sent + self.fleet.broker_probes_sent

    def pinglist_entries(self) -> int:
        return sum(len(a.pinglist) for a in self.system.agents.values() if a.pinglist)

    def _uploaders(self):
        for agent in self.system.agents.values():
            yield agent.uploader
            if agent.class_uploader is not None:
                yield agent.class_uploader
        if self.fleet is not None:
            for shard in self.fleet.shards.values():
                yield shard.probe_uploader
                yield shard.class_uploader

    def upload_stats(self) -> dict:
        totals = {"added": 0, "uploaded": 0, "discarded": 0, "held": 0}
        for uploader in self._uploaders():
            stats = uploader.stats
            totals["added"] += stats.records_added
            totals["uploaded"] += stats.records_uploaded
            totals["discarded"] += stats.records_discarded
            totals["held"] += uploader.buffered_records + uploader.spooled_records
        return totals

    def _check_ledgers(self, run) -> None:
        ledger = self.system.stream.conservation()
        run.check(
            "stream-ledger",
            ledger["probes_folded"]
            == ledger["probes_emitted"] + ledger["probes_pending"],
            ledger,
        )
        stats = self.upload_stats()
        run.check(
            "uploader-ledger",
            stats["added"] == stats["uploaded"] + stats["discarded"] + stats["held"]
            and (self.may_discard or stats["discarded"] == 0),
            stats,
        )
        run.check("probes-measured", run.probes > 0, run.probes)

    def _check_healthy_round_count(self, run) -> None:
        """Healthy fleets probe every pinglist entry once per step, at any
        seed — which pins the measured probe count exactly."""
        expected = len(run.steps) * self.pinglist_entries()
        run.check("probes-pinned", run.probes == expected, (run.probes, expected))
        run.check(
            "no-alert",
            not self.system.alert_engine.history,
            len(self.system.alert_engine.history),
        )


class Class4kSteady(Workload):
    name = "class-4k-steady"
    why = (
        "paper-scale healthy path: class draws, sharded sweeps, counters, stream "
        "deltas and PA collection do the work; per-pair engines, Cosmos scans, "
        "DSA jobs and the broker idle"
    )
    spec = SPEC_4K
    windows_per_10s = 3.0

    def build(self) -> None:
        self._sharded(max_peers=64)

    def finish(self, run) -> None:
        super().finish(run)
        self._check_healthy_round_count(run)


class Pair256Batch(Workload):
    name = "pair-256-batch"
    why = (
        "every probe becomes a record: agent rounds, encode, uploader, Cosmos "
        "append and the SCOPE/SLA jobs dominate, and Cosmos is written and "
        "scanned in one run; class engine and sharded driver idle"
    )
    spec = SPEC_256
    windows_per_10s = 2.0

    def build(self) -> None:
        self.system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(self.spec,),
                seed=self.seed,
                agent=AgentConfig(round_mode="fast"),
                dsa=DsaConfig(ingestion_delay_s=0.0),
            )
        )
        self.system.start()

    def advance(self, duration_s: float) -> None:
        self.system.run_for(duration_s)

    def probes(self) -> int:
        return self.system.total_probes_sent()

    def measure(self, run) -> None:
        super().measure(run)
        # The measured windows end long before the scheduled hourly and
        # daily ticks, so both jobs run once, timed, over what was stored.
        dsa = self.system.dsa
        now = self.system.clock.now
        run.op("job-1hour", lambda: dsa.run_hourly_job(now))
        run.op("job-1day", lambda: dsa.run_daily_job(now))

    def finish(self, run) -> None:
        super().finish(run)
        self._check_healthy_round_count(run)
        stored = self.system.store.stream(LATENCY_STREAM).record_count
        uploaded = self.upload_stats()["uploaded"]
        run.check("store-rows", stored == uploaded, (stored, uploaded))
        database = self.system.database
        for table in ("podpair_10min", "sla_hourly", "drop_daily", "blackhole_daily"):
            run.check(f"table-{table}", bool(database.query(table)), table)

    def sim(self) -> dict:
        counts = super().sim()
        counts["tables"] = {
            table: len(self.system.database.query(table))
            for table in self.system.database.tables()
        }
        return counts


class Fault1kDegraded(Workload):
    name = "fault-1k-degraded"
    why = (
        "the same fabric the other way: faults push pairs off the closed form "
        "onto probe_many with per-probe records, plans recompile on every state "
        "bump, detectors and alert episodes fire and recover"
    )
    spec = SPEC_1K
    # (scenario, steps on, steps off, alert metric, what must hold while on).
    # tor-blackhole and podset-down stay on past the stream detector's 70
    # sim-s delay and off past its recovery.  A silent-spine round costs
    # ~100x a healthy one, so the short script keeps one round of it — the
    # degraded engine and its record flood, no detection — and only the long
    # script stays on for the 130 sim-s its drop-rate breach takes.
    # "open" rather than "breach" for podset-down: whether it opens a *new*
    # episode depends on one carried over from the fault before it.
    _tor = ("tor-blackhole", 3, 4, "failure_rate", "breach")
    _podset = ("podset-down", 3, 4, "failure_rate", "open")
    scripts = {
        "short": (_tor, ("silent-spine", 1, 2, "drop_rate", None), _podset),
        "long": (_tor, ("silent-spine", 3, 3, "drop_rate", "breach"), _podset),
    }
    long_from_seconds = 30.0
    # At seed 1: measured probes and the whole event list (sim t, event, metric).
    pinned = {
        "short": (
            1_064_960,
            (
                (670.0, "breach", "failure_rate"),
                (970.0, "recovery", "failure_rate"),
                # One silent-spine round: the batch plane's 5-minute job sees
                # the drops, the stream plane's next window closes the episode.
                (1200.0, "breach", "drop_rate"),
                (1200.0, "recovery", "drop_rate"),
                (1270.0, "breach", "failure_rate"),
                (1570.0, "recovery", "failure_rate"),
            ),
        ),
        "long": (
            1_261_568,
            (
                (670.0, "breach", "failure_rate"),
                (970.0, "recovery", "failure_rate"),
                (1150.0, "breach", "drop_rate"),
                (1270.0, "recovery", "drop_rate"),
                (1450.0, "breach", "failure_rate"),
                (1750.0, "recovery", "failure_rate"),
            ),
        ),
    }
    # Under silent-spine a shard folds more per-probe records in one round
    # than its uploader's 10,000-record backstop holds, before the round's
    # maybe_upload can flush: the program drops the oldest, and counts them.
    may_discard = True

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        self.size = "long" if seconds >= self.long_from_seconds and not smoke else "short"
        self.script = self.scripts[self.size]
        self.phases: list[dict] = []

    def build(self) -> None:
        self._sharded(max_peers=64)

    def measure(self, run) -> None:
        engine = self.system.alert_engine
        run.check("no-breach-before-injection", not engine.history, len(engine.history))
        for scenario_name, on, off, metric, expect in self.script:
            phase = {
                "scenario": scenario_name,
                "metric": metric,
                "expect": expect,
                "on_s": on * STEP_S,
                "injected_t": self.system.clock.now,
            }
            self.phases.append(phase)
            scenario = apply_scenario(scenario_name, self.system.fabric)
            for index in range(on):
                run.step(f"{scenario_name}-on-{index}", lambda: self.advance(STEP_S))
                if self.breach_user_s is None and engine.breaches():
                    self.breach_user_s = run.user_since_start()
            phase["open_at_end"] = sorted(key[2] for key in engine.active_episodes)
            scenario.revert()
            phase["reverted_t"] = self.system.clock.now
            for index in range(off):
                run.step(f"{scenario_name}-off-{index}", lambda: self.advance(STEP_S))

    def _breach_delay(self, phase: dict) -> float | None:
        for alert in self.system.alert_engine.history:
            if (
                alert.event == "breach"
                and alert.metric == phase["metric"]
                and phase["injected_t"] < alert.t <= phase["reverted_t"]
            ):
                return alert.t - phase["injected_t"]
        return None

    def alert_delay_sim_s(self) -> float:
        """Mean injection -> first breach delay over the faults that must
        breach while on; a miss counts the whole on-period."""
        delays = []
        for phase in self.phases:
            if phase["expect"] == "breach":
                delay = self._breach_delay(phase)
                delays.append(phase["on_s"] if delay is None else delay)
        return statistics.fmean(delays)

    def finish(self, run) -> None:
        super().finish(run)
        if self.smoke:
            return  # 64 servers are too few probes for the detectors' floors
        for phase in self.phases:
            if phase["expect"] == "breach":
                ok = self._breach_delay(phase) is not None
            elif phase["expect"] == "open":
                ok = phase["metric"] in phase["open_at_end"]
            else:
                continue
            run.check(f"{phase['expect']}-{phase['scenario']}", ok, phase)
        if self.seed == 1:
            probes, alerts = self.pinned[self.size]
            events = tuple(
                (alert.t, alert.event, alert.metric)
                for alert in self.system.alert_engine.history
            )
            run.check("alerts-pinned", events == alerts, events)
            run.check("probes-pinned", run.probes == probes, run.probes)


class Broker1kMixed(Workload):
    name = "broker-1k-mixed"
    why = (
        "the request plane: bursts (admission, ledgers, per-round injection) "
        "beside scope/stream reads over a baseline fleet that costs a small "
        "share of a step; open loop on the simulated clock"
    )
    spec = SPEC_1K
    windows_per_10s = 2.0
    n_tenants = 10_000
    requests_per_step = 1500
    drain_s = 180.0
    pinned = {"injected": 65_074, "admitted": 23_987}  # seed 1, 2 windows

    def __init__(self, seed: int, seconds: float, smoke: bool = False) -> None:
        super().__init__(seed, seconds, smoke)
        if smoke:
            self.requests_per_step = 100
        self.broker: MeasurementBroker | None = None
        self.batches: list[list[tuple]] = []

    def build(self) -> None:
        self._sharded(max_peers=32)
        self.broker = MeasurementBroker(
            self.system,
            BrokerConfig(admission=AdmissionConfig(max_inflight_requests=8192)),
        )
        for index in range(self.n_tenants):
            self.broker.register_tenant(
                f"tenant-{index:05d}", TenantQuota(credits_per_window=64)
            )
        self.batches = self._generate_requests()

    def _generate_requests(self) -> list[list[tuple]]:
        """The whole open-loop schedule, from the seed, before any timing:
        70% single-pair bursts, 10% four-pair bursts, 10% scope reads, 10%
        stream reads; tenants drawn uniformly."""
        rng = random.Random(self.seed)
        servers = [server.device_id for server in self.system.topology.dc(0).servers]
        batches = []
        for _ in range(self.windows * WINDOW_STEPS):
            batch = []
            for _ in range(self.requests_per_step):
                tenant = f"tenant-{rng.randrange(self.n_tenants):05d}"
                shape = rng.random()
                if shape < 0.7:
                    batch.append((tenant, "burst", [tuple(rng.sample(servers, 2))]))
                elif shape < 0.8:
                    pairs = [tuple(rng.sample(servers, 2)) for _ in range(4)]
                    batch.append((tenant, "burst", pairs))
                elif shape < 0.9:
                    batch.append((tenant, "scope", None))
                else:
                    batch.append((tenant, "stream", None))
            batches.append(batch)
        return batches

    def _submit_batch(self, batch: list[tuple]) -> None:
        submit = self.broker.submit
        burst_s = self.submit_s["burst"]
        read_s = self.submit_s["read"]
        for tenant, kind, pairs in batch:
            t0 = perf_counter()
            if pairs is None:
                submit(tenant, kind=kind)
            else:
                submit(tenant, pairs=pairs, probes_per_pair=2)
            (read_s if pairs is None else burst_s).append(perf_counter() - t0)

    def measure(self, run) -> None:
        def step(batch):
            self._submit_batch(batch)
            self.advance(STEP_S)

        for index, batch in enumerate(self.batches):
            run.step(f"step-{index}", lambda b=batch: step(b))
        run.op("drain", lambda: self.advance(self.drain_s))

    def request_outcomes(self) -> dict:
        channels = self.broker.channels.values()
        unfinished = sum(1 for channel in channels if not channel.done)
        timed_out = sum(
            1 for channel in channels if channel.state is RequestState.TIMED_OUT
        )
        return {
            "submitted": self.broker.requests_submitted,
            "rejected": self.broker.requests_rejected,
            "timed_out": timed_out,
            "unfinished": unfinished,
        }

    def finish(self, run) -> None:
        super().finish(run)
        broker = self.broker
        outcomes = self.request_outcomes()
        run.count_ops(
            outcomes["submitted"],
            outcomes["rejected"] + outcomes["timed_out"] + outcomes["unfinished"],
        )
        run.check(
            "tenant-ledgers",
            all(account.conserved() for account in broker.accounts.values()),
            len(broker.accounts),
        )
        launched = (broker.probes_launched, broker.probes_delivered, self.fleet.broker_probes_sent)
        run.check("injected-ledger", len(set(launched)) == 1, launched)
        run.check("bursts-finished", outcomes["unfinished"] == 0, outcomes)
        run.check(
            "no-alert",
            not self.system.alert_engine.history,
            len(self.system.alert_engine.history),
        )
        if self.seed == 1 and not self.smoke and self.windows == 2:
            seen = {
                "injected": self.fleet.broker_probes_sent,
                "admitted": broker.requests_admitted,
            }
            run.check("requests-pinned", seen == self.pinned, seen)

    def result_delay_sim_s_p99(self) -> float:
        delays = sorted(
            channel.latency_s
            for channel in self.broker.channels.values()
            if channel.kind == "burst" and channel.latency_s is not None
        )
        return delays[min(len(delays) - 1, int(0.99 * len(delays)))] if delays else 0.0

    def sim(self) -> dict:
        counts = super().sim()
        counts.update(self.request_outcomes())
        counts["admitted"] = self.broker.requests_admitted
        counts["injected"] = self.fleet.broker_probes_sent
        return counts


WORKLOADS = {
    cls.name: cls for cls in (Class4kSteady, Pair256Batch, Fault1kDegraded, Broker1kMixed)
}
