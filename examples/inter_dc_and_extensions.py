"""Inter-DC monitoring and the §6.2 extensions.

Demonstrates the three-level complete-graph design across three data
centers on different continents, plus the extensions the paper added after
launch without touching the architecture:

* **Inter-DC Pingmesh** — selected servers per podset probe across the WAN.
* **QoS monitoring** — the ToR-level graph duplicated onto a low-priority
  TCP port (DSCP classes).
* **Payload pings** — every Nth peer also gets an 800–1200 B echo, to catch
  length-dependent drops.

Run:  python examples/inter_dc_and_extensions.py
"""

from repro import PingmeshSystem, PingmeshSystemConfig, TopologySpec
from repro.core.agent.agent import AgentConfig
from repro.core.controller.generator import GeneratorConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.cosmos.scope import RowSet, agg, col, lit


def main() -> None:
    system = PingmeshSystem(
        PingmeshSystemConfig(
            specs=(
                TopologySpec(name="dc-west", region="us-west"),
                TopologySpec(
                    name="dc-europe",
                    region="europe",
                    profile_name="dc4-europe",
                ),
                TopologySpec(name="dc-asia", region="asia", profile_name="dc5-asia"),
            ),
            seed=11,
            generator=GeneratorConfig(
                inter_dc_servers_per_podset=2,
                enable_qos_low=True,  # §6.2 QoS monitoring
                payload_every_nth_peer=4,  # §4.1 payload pings
            ),
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            agent=AgentConfig(upload_period_s=120.0),
        )
    )

    sample = system.controller.get_pinglist("dc-west/ps0/pod0/srv0")
    print("pinglist of an inter-DC-selected server:")
    for purpose in ("intra-pod", "tor-level", "inter-dc", "vip"):
        print(f"  {purpose:10s}: {len(sample.peers_by_purpose(purpose))} peers")
    low_qos = [e for e in sample.entries if e.qos == "low"]
    payload = [e for e in sample.entries if e.payload_bytes > 0]
    print(f"  low-QoS duplicates: {len(low_qos)}, payload pings: {len(payload)}")

    print("\nrunning 30 simulated minutes across three continents...")
    system.run_for(1800.0)

    rows = RowSet(system.store.read("pingmesh/latency"))
    print(f"records collected: {len(rows):,}")

    print("\n-- latency by scope (SCOPE query over the raw stream) --")
    same_dc = col("src_dc") == col("dst_dc")
    same_pod = col("src_pod") == col("dst_pod")
    scopes = {
        "inter-dc": ~same_dc,
        "intra-pod": same_dc & same_pod,
        "intra-dc": same_dc & ~same_pod,
    }
    report = []
    for scope, predicate in scopes.items():
        report += (
            rows.where(col("success") & predicate)
            .select("rtt_us", scope=lit(scope))
            .group_by("scope")
            .aggregate(
                probes=agg.count(),
                p50_us=agg.percentile("rtt_us", 50),
                p99_us=agg.percentile("rtt_us", 99),
            )
            .output()
        )
    for row in sorted(report, key=lambda row: row["p50_us"]):
        print(
            f"  {row['scope']:10s} n={row['probes']:6d} "
            f"p50={row['p50_us'] / 1000:8.2f}ms p99={row['p99_us'] / 1000:8.2f}ms"
        )

    print("\n-- inter-DC pairs (WAN propagation dominates) --")
    inter = (
        rows.where(~same_dc & col("success"))
        .group_by("src_dc", "dst_dc")
        .aggregate(p50_us=agg.percentile("rtt_us", 50))
        .order_by("p50_us")
        .output()
    )
    names = [dc.spec.name for dc in system.topology.dcs]
    for row in inter:
        print(
            f"  {names[row['src_dc']]:10s} -> {names[row['dst_dc']]:10s} "
            f"p50={row['p50_us'] / 1000:7.1f}ms"
        )

    print("\n-- QoS classes agree on a healthy network --")
    qos = (
        rows.where(col("success") & (col("purpose") == "tor-level"))
        .group_by("qos")
        .aggregate(p50_us=agg.percentile("rtt_us", 50), probes=agg.count())
        .output()
    )
    for row in qos:
        print(f"  qos={row['qos']:4s} n={row['probes']:6d} p50={row['p50_us']:.0f}us")


if __name__ == "__main__":
    main()
