"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``simulate`` — run a full Pingmesh deployment on the simulator, optionally
  injecting a named incident scenario mid-run; prints the SLA summary, the
  heatmap, and the daily report.
* ``scenarios`` — list the canned incident scenarios.
* ``probe`` — real-socket TCP/HTTP ping against a host:port (liveprobe).
* ``serve`` — run a probe responder so a remote ``probe`` has a target.
* ``chaos`` — run canned chaos drills (scripted fault campaigns with
  always-on invariants); exits nonzero if any invariant was violated.
* ``stream`` — streaming-plane demo: inject a fault mid-run and print the
  per-plane detection timeline plus live per-class latency quantiles.

The top-level ``--profile`` flag (``python -m repro --profile simulate ...``)
wraps any command in cProfile and prints the top-20 cumulative hotspots on
exit.  (Distinct from ``simulate --profile``, which names a workload
profile.)
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pingmesh (SIGCOMM 2015) reproduction",
    )
    # dest avoids colliding with `simulate --profile` (a workload profile).
    parser.add_argument(
        "--profile",
        dest="cprofile",
        action="store_true",
        help="run the command under cProfile and print the top-20 "
        "cumulative hotspots on exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run a Pingmesh deployment on the simulator"
    )
    simulate.add_argument("--hours", type=float, default=1.0, help="simulated hours")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--podsets", type=int, default=2)
    simulate.add_argument("--pods", type=int, default=4, help="pods per podset")
    simulate.add_argument("--servers", type=int, default=8, help="servers per pod")
    simulate.add_argument(
        "--scenario", default=None, help="incident scenario to inject (see `scenarios`)"
    )
    simulate.add_argument(
        "--scenario-at",
        type=float,
        default=600.0,
        help="simulated seconds before the scenario is injected",
    )
    simulate.add_argument(
        "--profile", default="throughput", help="workload profile name"
    )

    sub.add_parser("scenarios", help="list canned incident scenarios")

    probe = sub.add_parser("probe", help="real-socket ping a host:port")
    probe.add_argument("host")
    probe.add_argument("port", type=int)
    probe.add_argument("-n", "--count", type=int, default=5)
    probe.add_argument("--payload", type=int, default=0, help="payload bytes")
    probe.add_argument("--http", action="store_true", help="HTTP ping instead of TCP")
    probe.add_argument("--timeout", type=float, default=3.0)

    serve = sub.add_parser("serve", help="run a probe responder")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)

    chaos = sub.add_parser(
        "chaos", help="run canned chaos drills with invariant checking"
    )
    chaos.add_argument(
        "campaigns",
        nargs="*",
        metavar="CAMPAIGN",
        help="campaign names to run (default: all)",
    )
    chaos.add_argument("--list", action="store_true", help="list canned campaigns")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--mode",
        choices=("phase", "step"),
        default="phase",
        help="invariant cadence: at phase boundaries, or after every event",
    )

    stream = sub.add_parser(
        "stream", help="streaming-plane demo: fault injection + alert timeline"
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--scenario",
        default="tor-blackhole",
        help="incident scenario to inject (see `scenarios`)",
    )
    stream.add_argument(
        "--scenario-at",
        type=float,
        default=300.0,
        help="simulated seconds before the scenario is injected",
    )
    stream.add_argument(
        "--minutes", type=float, default=20.0, help="simulated minutes"
    )

    broker = sub.add_parser(
        "broker", help="on-demand measurement plane demo: tenants vs the fleet"
    )
    broker.add_argument("--seed", type=int, default=0)
    broker.add_argument(
        "--tenants", type=int, default=8, help="synthetic tenants to register"
    )
    broker.add_argument(
        "--minutes", type=float, default=10.0, help="simulated minutes"
    )

    return parser


def _cmd_simulate(args) -> int:
    from repro.core.agent.agent import AgentConfig
    from repro.core.dsa.pipeline import DsaConfig
    from repro.core.dsa.reports import ReportBuilder
    from repro.core.system import PingmeshSystem, PingmeshSystemConfig
    from repro.netsim.scenarios import SCENARIOS, apply_scenario
    from repro.netsim.topology import TopologySpec
    from repro.netsim.workload import PROFILES

    if args.profile not in PROFILES:
        print(f"unknown profile {args.profile!r}; known: {sorted(PROFILES)}")
        return 2
    if args.scenario is not None and args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: {sorted(SCENARIOS)}")
        return 2

    spec = TopologySpec(
        name="dc0",
        n_podsets=args.podsets,
        pods_per_podset=args.pods,
        servers_per_pod=args.servers,
        profile_name=args.profile,
    )
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec,),
            seed=args.seed,
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            agent=AgentConfig(upload_period_s=120.0),
        )
    )
    print(f"simulating {spec.n_servers} servers for {args.hours:.2f} hour(s)...")
    total = args.hours * 3600.0
    if args.scenario is not None and args.scenario_at < total:
        system.run_for(args.scenario_at)
        scenario = apply_scenario(args.scenario, system.fabric)
        print(f"injected scenario: {scenario.name} — {scenario.description}")
        system.run_for(total - args.scenario_at)
    else:
        system.run_for(total)

    print(f"\nprobes sent: {system.total_probes_sent():,}")
    print("\n-- pod-pair P99 heatmap --")
    heatmap = system.dsa.latest_heatmap(0, t=system.clock.now)
    print(heatmap.render_ascii())
    classification = heatmap.classify()
    print(f"pattern: {classification.pattern.value}")
    print(f"\nis it a network issue? {system.is_network_issue()}")

    builder = ReportBuilder(system.database)
    print()
    print(builder.incident_digest(system.clock.now, lookback_s=total))
    return 0


def _cmd_scenarios(_args) -> int:
    from repro.netsim.fabric import Fabric
    from repro.netsim.scenarios import SCENARIOS, apply_scenario
    from repro.netsim.topology import TopologySpec

    for name in sorted(SCENARIOS):
        # Build a throwaway fabric per scenario to read its description.
        scenario = apply_scenario(name, Fabric.single_dc(TopologySpec()))
        print(f"{name:18s} {scenario.description}")
    return 0


def _cmd_probe(args) -> int:
    from repro.liveprobe.client import http_ping_sync, tcp_ping_sync

    failures = 0
    for i in range(args.count):
        if args.http:
            result = http_ping_sync(args.host, args.port, timeout_s=args.timeout)
        else:
            result = tcp_ping_sync(
                args.host,
                args.port,
                payload=b"\x00" * args.payload,
                timeout_s=args.timeout,
            )
        if result.success:
            extra = (
                f" payload={result.payload_rtt_s * 1e6:.0f}us"
                if result.payload_rtt_s is not None
                else ""
            )
            print(f"probe {i + 1}: rtt={result.rtt_us:.0f}us{extra}")
        else:
            failures += 1
            print(f"probe {i + 1}: FAILED ({result.error})")
    print(f"{args.count - failures}/{args.count} succeeded")
    return 0 if failures < args.count else 1


def _cmd_serve(args) -> int:
    import asyncio

    from repro.liveprobe.server import ProbeServer

    async def run():
        async with ProbeServer(host=args.host, port=args.port) as server:
            print(f"probe responder listening on {args.host}:{server.port}")
            try:
                await asyncio.Event().wait()  # serve until interrupted
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import CAMPAIGNS, run_campaign

    if args.list:
        for name in sorted(CAMPAIGNS):
            print(f"{name:20s} {CAMPAIGNS[name].description}")
        return 0

    names = args.campaigns or sorted(CAMPAIGNS)
    unknown = [name for name in names if name not in CAMPAIGNS]
    if unknown:
        print(f"unknown campaign(s): {', '.join(unknown)}; known: {sorted(CAMPAIGNS)}")
        return 2

    dirty = 0
    for name in names:
        report = run_campaign(name, seed=args.seed, check_mode=args.mode)
        print(report.summary())
        print()
        if not report.clean:
            dirty += 1
    print(f"{len(names) - dirty}/{len(names)} campaigns clean")
    return 0 if dirty == 0 else 1


def _cmd_stream(args) -> int:
    from repro.core.agent.agent import AgentConfig
    from repro.core.dsa.pipeline import DsaConfig
    from repro.core.system import PingmeshSystem, PingmeshSystemConfig
    from repro.netsim.scenarios import SCENARIOS, apply_scenario
    from repro.netsim.topology import TopologySpec

    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; known: {sorted(SCENARIOS)}")
        return 2

    spec = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4)
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec,),
            seed=args.seed,
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=600.0),
            agent=AgentConfig(upload_period_s=120.0),
        )
    )
    total = args.minutes * 60.0
    print(
        f"simulating {spec.n_servers} servers for {args.minutes:.0f} min; "
        f"stream window {system.config.stream.window_s:.0f}s vs batch "
        f"window {system.config.dsa.near_real_time_period_s:.0f}s"
    )
    system.run_for(min(args.scenario_at, total))
    if args.scenario_at < total:
        scenario = apply_scenario(args.scenario, system.fabric)
        print(
            f"[t={system.clock.now:7.1f}s] injected: "
            f"{scenario.name} — {scenario.description}"
        )
        system.run_for(total - args.scenario_at)

    print("\n-- alert timeline (episodes) --")
    if not system.alerts():
        print("(no alerts fired)")
    for alert in system.alerts():
        latency = (
            f"  [{alert.t - args.scenario_at:+.1f}s after injection]"
            if args.scenario_at < total and alert.event == "breach"
            else ""
        )
        print(
            f"[t={alert.t:7.1f}s] {alert.event:8s} {alert.plane:6s} "
            f"{alert.scope}={alert.key} {alert.metric}="
            f"{alert.value:.6g} (threshold {alert.threshold:.6g}){latency}"
        )

    stream = system.stream
    print("\n-- streaming rollup: last 60 s, per probe class --")
    starts = stream.ingest.latest_windows(
        max(1, int(60.0 / stream.config.window_s))
    )
    per_class = stream.ingest.merged_by_class(starts)
    print(f"{'class':12s} {'probes':>7s} {'drop':>9s} {'p50':>9s} {'p99':>9s}")
    for cls, stats in sorted(per_class.items()):
        p50, p99 = stats.quantile_us(50.0), stats.quantile_us(99.0)
        print(
            f"{cls:12s} {stats.probes:7d} {stats.drop_rate():9.5f} "
            f"{(f'{p50:8.0f}u' if p50 is not None else '       -'):>9s} "
            f"{(f'{p99:8.0f}u' if p99 is not None else '       -'):>9s}"
        )

    candidates = stream.blackhole_feed.candidates
    print(f"\nstreaming black-hole candidates: {len(candidates)}")
    for candidate in candidates:
        print(
            f"[t={candidate.t:7.1f}s] {candidate.tor_key} "
            f"({candidate.failed} failed probes)"
        )
    ledger = stream.conservation()
    print(
        f"\nconservation: folded={ledger['probes_folded']} "
        f"= ingested {ledger['probes_ingested']} + pending "
        f"{ledger['probes_pending']} + dropped {ledger['probes_dropped']} "
        f"+ rejected {ledger['probes_rejected']}"
    )
    return 0


def _cmd_broker(args) -> int:
    """Demo the on-demand measurement plane against a live sharded fleet."""
    from repro.broker import MeasurementBroker, TenantQuota
    from repro.core.agent.agent import AgentConfig
    from repro.core.dsa.pipeline import DsaConfig
    from repro.core.sharded import ShardedFleet
    from repro.core.system import PingmeshSystem, PingmeshSystemConfig
    from repro.netsim.topology import TopologySpec

    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=8),),
            seed=args.seed,
            agent=AgentConfig(round_mode="class", upload_period_s=300.0),
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
        )
    )
    fleet = ShardedFleet(system)
    broker = MeasurementBroker(system)
    n_tenants = max(1, args.tenants)
    for i in range(n_tenants):
        broker.register_tenant(f"tenant-{i:03d}", TenantQuota(2000, 3600.0))
    print(f"fleet: {len(system.agents)} servers; tenants: {n_tenants}")

    channels = []
    for i in range(n_tenants):
        tenant = f"tenant-{i:03d}"
        kind = ("burst", "burst", "scope", "stream")[i % 4]
        if kind == "burst":
            channels.append(
                broker.submit(
                    tenant,
                    src=f"podset:0/{i % 2}",
                    dst=f"podset:0/{(i + 1) % 2}",
                    probes_per_pair=2,
                )
            )
        else:
            channels.append(broker.submit(tenant, kind=kind))
    fleet.run_for(args.minutes * 60.0)

    print(f"\n{'request':>8s} {'tenant':>12s} {'kind':>7s} {'state':>10s} "
          f"{'probes':>7s} {'ok':>6s} {'latency':>8s}")
    for channel in channels:
        latency = channel.latency_s
        print(
            f"{channel.request_id:>8d} {channel.tenant_id:>12s} "
            f"{channel.kind:>7s} {channel.state.value:>10s} "
            f"{channel.probes_completed:>7d} {channel.successes:>6d} "
            f"{latency:>7.0f}s" if latency is not None else
            f"{channel.request_id:>8d} {channel.tenant_id:>12s} "
            f"{channel.kind:>7s} {channel.state.value:>10s} "
            f"{channel.probes_completed:>7d} {channel.successes:>6d} "
            f"{'-':>8s}"
        )
    stats = broker.stats()
    print(
        f"\nbroker: {stats['requests_admitted']} admitted / "
        f"{stats['requests_rejected']} rejected of "
        f"{stats['requests_submitted']} submitted; "
        f"{stats['probes_launched']} probes launched "
        f"(baseline {fleet.probes_sent}, broker {fleet.broker_probes_sent})"
    )
    conserved = all(a.conserved() for a in broker.accounts.values())
    print(f"credit ledgers conserved: {conserved}")
    return 0 if conserved else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "scenarios": _cmd_scenarios,
        "probe": _cmd_probe,
        "serve": _cmd_serve,
        "chaos": _cmd_chaos,
        "stream": _cmd_stream,
        "broker": _cmd_broker,
    }
    handler = handlers[args.command]
    if not args.cprofile:
        return handler(args)

    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        rc = profiler.runcall(handler, args)
    finally:
        profiler.disable()
        print("\n--- profile: top 20 by cumulative time " + "-" * 24)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
    return rc


if __name__ == "__main__":
    sys.exit(main())
