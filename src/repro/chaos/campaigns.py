"""The canned chaos drills: each one targets a specific paper claim.

=====================  ====================================================
campaign               claim under test
=====================  ====================================================
``healthy-baseline``   §4.3 — an unfaulted network must *measure* healthy:
                       macro SLA rows inside thresholds, explain finds no
                       fault culprits, every safety limit holds.
``controller-flap``    §3.3.2 — replicas flap, agents ride through on the
                       SLB; a full controller blackout must trip the
                       ``pinglists-generated`` watchdog within its bound,
                       and recovered replicas serve fresh-stamped files.
``controller-brownout`` degraded modes — every replica answers slower than
                       the agent timeout (slow, not dead): request-path
                       breakers eject what the up/down health check cannot
                       see, agents ride the window STALE on their cached
                       pinglists, and nobody may fail closed.
``replica-flap-storm`` degraded modes — one replica flaps repeatedly while
                       health-check sweeps are too slow to notice: the
                       per-DIP circuit breaker is the only ejection
                       mechanism, failover absorbs every flap, agents
                       stay FRESH throughout.
``recovery-stampede``  resilience — a long controller blackout fails the
                       fleet closed, then heals: jittered refresh periods
                       and decorrelated backoff must keep the recovery
                       herd under the ``refresh-herd-factor`` bound while
                       every agent still recovers.
``cosmos-blackout-heal`` spool-and-replay — a long Cosmos blackout forces
                       retries over time, per-batch discards after the
                       retry budget, and a replay of surviving spooled
                       batches on heal with zero duplicates (the
                       ``upload-replay-no-duplication`` ledger).
``kill-switch``        §3.4.2 — removing every pinglist file stops all
                       probing (agents fail closed, zero probes) and
                       regeneration restores it, no restarts needed.
``cosmos-blackout``    §3.4.2 — uploads fail for a window: bounded memory,
                       retries then discards, discards accounted in
                       UploadStats and visible as PA counters.
``podset-blackout``    Figure 8(b) — a powered-off podset produces *no*
                       data (never fabricated data), survivors keep
                       reporting, and nothing innocent gets repaired.
``memory-squeeze``     §3.4.2/§2.3 — OS kills over-cap agents fail-closed,
                       the watchdog catches it, the Service Manager
                       restarts within budget once memory recovers.
``blackhole-vip-dark`` §5.1/§6.2/§4.2 — a ToR black-hole plus a dark-VIP
                       window: VIP failures are measured (not suppressed),
                       black-holed windows never report a clean drop rate,
                       and any repair filed targets an implicated device.
``stream-blackout``    streaming plane — the ingest VIP goes fully dark:
                       deltas are dropped *and counted* (fail closed), the
                       ``stream-ingesting`` watchdog trips, conservation
                       and the batch plane hold throughout, and ingest
                       resumes when the replicas return.
``wan-fiber-cut``      inter-DC tier — both directions of a DC pair go
                       silently dark: honest drop rates on the pivots,
                       no scapegoat repairs, intra-DC series healthy
                       throughout, full recovery on splice.
``wan-dci-congestion`` inter-DC tier — one WAN direction drops and queues
                       under congestion, then a long-lived asymmetric
                       reroute inflates one direction's latency; only the
                       ``dc-pair`` series may breach.
``wan-partition``      inter-DC tier — a flow-hash slice of WAN traffic
                       blackholes both ways (partial partition): partial
                       failure is measured honestly, unaffected flows and
                       all intra-DC traffic stay clean.
``broker-storm``       on-demand plane — a dozen tenants storm the broker
                       with mixed bursts and read queries across a
                       controller blackout: admission fails closed while
                       the fleet is degraded, deadlines truncate with
                       exact refunds, and the whole invariant catalogue
                       (the three broker invariants included) stays clean.
=====================  ====================================================

Every campaign builds its own small deterministic system; drive them via
:func:`run_campaign` (tests, ``python -m repro chaos``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.chaos.actions import (
    ControllerBlackout,
    ControllerBrownout,
    CosmosBlackout,
    MemorySqueeze,
    PinglistKillSwitch,
    PodsetPowerLoss,
    ReplicaFlap,
    ScenarioAction,
    StreamIngestBlackout,
    VipBlackout,
    WanLinkFault,
)
from repro.chaos.campaign import CampaignReport, ChaosCampaign
from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.faults import (
    AsymmetricWanRoute,
    DciCongestion,
    WanFiberCut,
    WanPartialPartition,
)
from repro.netsim.topology import TopologySpec
from repro.resilience import CircuitBreaker, CircuitBreakerConfig

__all__ = ["CannedCampaign", "CAMPAIGNS", "build_campaign", "run_campaign"]

# Small but structurally complete: 2 podsets x 2 pods x 4 servers exercises
# every probe class while keeping a full drill tier fast.
_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=4)
# Two of those, a continent apart, for the WAN drills — the us-west/us-east
# pair keeps healthy inter-DC RTT (~54 ms) well under the dc-pair P99 limit.
_WAN_SPECS = (
    TopologySpec(
        name="dc-w", region="us-west", n_podsets=2, pods_per_podset=2,
        servers_per_pod=3,
    ),
    TopologySpec(
        name="dc-e", region="us-east", n_podsets=2, pods_per_podset=2,
        servers_per_pod=3,
    ),
)
_FAST_DSA = DsaConfig(
    ingestion_delay_s=0.0,
    near_real_time_period_s=300.0,
    hourly_period_s=900.0,
    daily_period_s=900.0,
)


def _system(
    seed: int,
    refresh_s: float = 200.0,
    upload_s: float = 120.0,
    vips: dict | None = None,
    spec: TopologySpec | None = None,
    **agent_kwargs,
) -> PingmeshSystem:
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(spec or _SPEC,),
            seed=seed,
            dsa=_FAST_DSA,
            agent=AgentConfig(
                pinglist_refresh_s=refresh_s,
                upload_period_s=upload_s,
                **agent_kwargs,
            ),
            vips=vips or {},
        )
    )


@dataclass(frozen=True)
class CannedCampaign:
    """A named, fully scripted drill."""

    name: str
    description: str
    build: Callable[[int, str], tuple[PingmeshSystem, ChaosCampaign]]
    duration_s: float
    phase_s: float | None = None


def _healthy_baseline(seed: int, check_mode: str):
    system = _system(seed)
    campaign = ChaosCampaign(system, name="healthy-baseline", check_mode=check_mode)
    return system, campaign


def _controller_flap(seed: int, check_mode: str):
    system = _system(seed)
    campaign = ChaosCampaign(system, name="controller-flap", check_mode=check_mode)
    campaign.add(ReplicaFlap("controller0"), start_t=60.0, end_t=240.0)
    campaign.add(ControllerBlackout(), start_t=400.0, end_t=520.0)
    return system, campaign


def _controller_brownout(seed: int, check_mode: str):
    # Refresh retry base 60 s guarantees a third consecutive failure is
    # impossible inside the 80 s brownout window: failure #1 >= 360,
    # failure #2 >= 420, so attempt #3 lands >= 480 — after the heal at
    # 440 *and* after the last possible breaker-reopen tail (<= 460 with
    # the 20 s breaker below).  Agents go STALE, never FAIL_CLOSED.
    system = _system(
        seed,
        refresh_retry_base_s=60.0,
        refresh_retry_cap_s=200.0,
    )
    quick = CircuitBreakerConfig(failure_threshold=3, open_duration_s=20.0)
    for backend in system.controller.slb.backends.values():
        backend.breaker = CircuitBreaker(quick)
    campaign = ChaosCampaign(
        system, name="controller-brownout", check_mode=check_mode
    )
    # The fleet's second refresh wave lands in [360, 440) — every agent
    # that polls during the window sees a timeout, not a connect refusal.
    campaign.add(ControllerBrownout(response_delay_s=10.0), start_t=360.0, end_t=440.0)
    return system, campaign


def _replica_flap_storm(seed: int, check_mode: str):
    system = _system(seed)
    # Stretch the up/down sweep interval past the drill: the per-DIP
    # circuit breaker is the only mechanism left that can eject the
    # flapping replica from rotation.
    system.controller.slb.health_check_interval_s = 10_000.0
    campaign = ChaosCampaign(
        system, name="replica-flap-storm", check_mode=check_mode
    )
    # Each down window brackets one jittered refresh wave (~200 s grid),
    # so live requests do hit the dead replica and fail over.
    for start_t, end_t in ((170.0, 230.0), (350.0, 410.0), (530.0, 590.0)):
        campaign.add(ReplicaFlap("controller0"), start_t=start_t, end_t=end_t)
    return system, campaign


# 32 agents: large enough that an unjittered recovery would stampede the
# herd bound (peak 32/s vs limit 16), small enough to stay a fast drill.
_STAMPEDE_SPEC = TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=8)


def _recovery_stampede(seed: int, check_mode: str):
    system = _system(seed, refresh_s=120.0, spec=_STAMPEDE_SPEC)
    campaign = ChaosCampaign(
        system, name="recovery-stampede", check_mode=check_mode
    )
    # Three refresh periods of blackout fail the whole fleet closed; the
    # heal at 420 s must not produce a synchronized re-poll burst.
    campaign.add(ControllerBlackout(), start_t=120.0, end_t=420.0)
    return system, campaign


def _cosmos_blackout_heal(seed: int, check_mode: str):
    # Tight retry windows (30-90 s) against a 360 s blackout: early batches
    # exhaust their three attempts and are discarded (accounted), the last
    # pre-heal batch survives in the spool and replays exactly once.
    system = _system(
        seed,
        upload_retry_base_s=30.0,
        upload_retry_cap_s=90.0,
    )
    campaign = ChaosCampaign(
        system, name="cosmos-blackout-heal", check_mode=check_mode
    )
    campaign.add(CosmosBlackout(), start_t=150.0, end_t=510.0)
    return system, campaign


def _kill_switch(seed: int, check_mode: str):
    system = _system(seed, refresh_s=120.0)
    campaign = ChaosCampaign(system, name="kill-switch", check_mode=check_mode)
    # End at 650s, past the 630s checkpoint: fail-closed agents now retry
    # on a jittered backoff (not the fixed refresh grid), so the files must
    # stay gone through the checkpoint for the silent plateau to be
    # observable there.  Recovery happens in (650, 840].
    campaign.add(PinglistKillSwitch(), start_t=180.0, end_t=650.0)
    return system, campaign


def _cosmos_blackout(seed: int, check_mode: str):
    system = _system(seed)
    campaign = ChaosCampaign(system, name="cosmos-blackout", check_mode=check_mode)
    campaign.add(CosmosBlackout(), start_t=150.0, end_t=510.0)
    return system, campaign


def _podset_blackout(seed: int, check_mode: str):
    system = _system(seed)
    campaign = ChaosCampaign(system, name="podset-blackout", check_mode=check_mode)
    campaign.add(PodsetPowerLoss(dc=0, podset=1), start_t=120.0, end_t=540.0)
    return system, campaign


def _memory_squeeze(seed: int, check_mode: str):
    system = _system(seed)
    dc = system.topology.dc(0)
    victims = [server.device_id for server in dc.servers_in_podset(0)[:2]]
    action = MemorySqueeze(victims, cap_mb=1.0)
    # Kill happens at the victims' next probe round, detection at the next
    # watchdog sweep: allow a round interval + sweep period + slack.
    action.watchdog_within_s = 300.0
    campaign = ChaosCampaign(system, name="memory-squeeze", check_mode=check_mode)
    campaign.add(action, start_t=120.0, end_t=330.0)
    return system, campaign


def _blackhole_vip_dark(seed: int, check_mode: str):
    # DIP ids must exist up front: build a probe system to read them off the
    # deterministic topology, then build the real system with the VIP wired.
    dips = tuple(
        server.device_id
        for server in _system(seed).topology.dc(0).servers_in_podset(0)[:2]
    )
    system = _system(seed, vips={"search.vip": dips})
    # pod 2 is the first pod of podset 1 (2 pods per podset).
    campaign = ChaosCampaign(system, name="blackhole-vip-dark", check_mode=check_mode)
    campaign.add(ScenarioAction("tor-blackhole", pod=2), start_t=120.0, end_t=660.0)
    campaign.add(VipBlackout("search.vip"), start_t=300.0, end_t=540.0)
    return system, campaign


def _stream_blackout(seed: int, check_mode: str):
    system = _system(seed)
    campaign = ChaosCampaign(system, name="stream-blackout", check_mode=check_mode)
    campaign.add(StreamIngestBlackout(), start_t=180.0, end_t=480.0)
    return system, campaign


def _wan_system(seed: int) -> PingmeshSystem:
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=_WAN_SPECS,
            seed=seed,
            dsa=_FAST_DSA,
            agent=AgentConfig(pinglist_refresh_s=200.0, upload_period_s=120.0),
        )
    )


def _wan_fiber_cut(seed: int, check_mode: str):
    system = _wan_system(seed)
    campaign = ChaosCampaign(system, name="wan-fiber-cut", check_mode=check_mode)
    campaign.add(
        WanLinkFault(WanFiberCut(src_dc=0, dst_dc=1)), start_t=150.0, end_t=510.0
    )
    return system, campaign


def _wan_dci_congestion(seed: int, check_mode: str):
    system = _wan_system(seed)
    campaign = ChaosCampaign(
        system, name="wan-dci-congestion", check_mode=check_mode
    )
    campaign.add(
        WanLinkFault(DciCongestion(src_dc=0, dst_dc=1, drop_prob=0.05)),
        start_t=120.0,
        end_t=360.0,
    )
    # After the congestion clears, a reroute leaves one direction on a
    # 30 ms-longer path for the rest of the drill.
    campaign.add(
        WanLinkFault(AsymmetricWanRoute(src_dc=1, dst_dc=0)),
        start_t=420.0,
        end_t=660.0,
    )
    return system, campaign


def _broker_storm(seed: int, check_mode: str):
    from repro.broker import BrokerConfig, MeasurementBroker, TenantQuota

    system = _system(seed)
    broker = MeasurementBroker(system, BrokerConfig())
    for i in range(12):
        broker.register_tenant(f"tenant-{i:02d}", TenantQuota(600, 3600.0))
    broker.register_tenant("freeloader", TenantQuota(0, 3600.0))
    first_src = system.topology.dc(0).servers_in_podset(0)[0].device_id
    submissions = [
        # The opening storm: every funded tenant bursts at once.
        *(
            (30.0 + i, f"tenant-{i:02d}", dict(src="podset:0/0", dst="podset:0/1"))
            for i in range(12)
        ),
        # A zero-credit tenant and an unregistered one must bounce.
        (40.0, "freeloader", dict(src="podset:0/0", dst="podset:0/1")),
        (45.0, "gatecrasher", dict(src="podset:0/0", dst="podset:0/1")),
        # One source, many probes, a tight deadline: the broker may only
        # serve one probe per work row per round, so this must end
        # TRUNCATED at a housekeeping tick, with the remainder refunded.
        (
            60.0,
            "tenant-00",
            dict(
                src=f"server:{first_src}",
                dst="podset:0/1",
                probes_per_pair=8,
                deadline_s=35.0,
            ),
        ),
        # Read queries ride through everything, blackout included.
        (200.0, "tenant-01", dict(kind="scope")),
        (210.0, "tenant-01", dict(kind="stream")),
        # Bursts during the controller blackout: admission fails closed
        # (and the repeated degraded evidence trips the breaker open).
        (330.0, "tenant-02", dict(src="podset:0/0", dst="podset:0/1")),
        (350.0, "tenant-03", dict(src="podset:0/0", dst="podset:0/1")),
        (360.0, "tenant-04", dict(kind="scope")),
        # Shortly after the heal the breaker is still open (hysteresis)...
        (450.0, "tenant-05", dict(src="podset:0/0", dst="podset:0/1")),
        # ...and well after it, admission reopens and bursts complete.
        (620.0, "tenant-06", dict(src="podset:0/0", dst="podset:0/1")),
    ]
    for when, tenant, kwargs in submissions:
        system.queue.schedule_at(
            when,
            lambda tenant=tenant, kwargs=kwargs: broker.submit(tenant, **kwargs),
            name="broker-storm-submit",
        )
    campaign = ChaosCampaign(system, name="broker-storm", check_mode=check_mode)
    campaign.add(ControllerBlackout(), start_t=300.0, end_t=420.0)
    return system, campaign


def _wan_partition(seed: int, check_mode: str):
    system = _wan_system(seed)
    campaign = ChaosCampaign(system, name="wan-partition", check_mode=check_mode)
    campaign.add(
        WanLinkFault(WanPartialPartition(src_dc=0, dst_dc=1, fraction=0.5)),
        start_t=150.0,
        end_t=510.0,
    )
    return system, campaign


CAMPAIGNS: dict[str, CannedCampaign] = {
    canned.name: canned
    for canned in (
        CannedCampaign(
            name="healthy-baseline",
            description="no faults: the system must measure a healthy network",
            build=_healthy_baseline,
            duration_s=1000.0,
            phase_s=250.0,
        ),
        CannedCampaign(
            name="controller-flap",
            description="replica flap, then full controller blackout + recovery",
            build=_controller_flap,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="controller-brownout",
            description="slow replicas: breakers eject, agents ride STALE",
            build=_controller_brownout,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="replica-flap-storm",
            description="flapping replica ejected by breakers, not sweeps",
            build=_replica_flap_storm,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="recovery-stampede",
            description="fleet fails closed then recovers without a herd",
            build=_recovery_stampede,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="cosmos-blackout-heal",
            description="upload retries over time, spool replay on heal",
            build=_cosmos_blackout_heal,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="kill-switch",
            description="remove all pinglists: agents fail closed, then resume",
            build=_kill_switch,
            duration_s=840.0,
            phase_s=210.0,
        ),
        CannedCampaign(
            name="cosmos-blackout",
            description="uploads fail: bounded memory, accounted discards",
            build=_cosmos_blackout,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="podset-blackout",
            description="podset power loss: silence, survival, recovery",
            build=_podset_blackout,
            duration_s=780.0,
        ),
        CannedCampaign(
            name="memory-squeeze",
            description="agents killed over memory cap, restarted within budget",
            build=_memory_squeeze,
            duration_s=780.0,
        ),
        CannedCampaign(
            name="blackhole-vip-dark",
            description="ToR black-hole + dark VIP window, honest drop rates",
            build=_blackhole_vip_dark,
            duration_s=780.0,
        ),
        CannedCampaign(
            name="stream-blackout",
            description="ingest VIP dark: stream plane fails closed, recovers",
            build=_stream_blackout,
            duration_s=720.0,
            phase_s=120.0,
        ),
        CannedCampaign(
            name="wan-fiber-cut",
            description="WAN fiber cut: honest pivot drop rates, intra-DC clean",
            build=_wan_fiber_cut,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="wan-dci-congestion",
            description="DCI congestion then asymmetric reroute on one direction",
            build=_wan_dci_congestion,
            duration_s=780.0,
        ),
        CannedCampaign(
            name="wan-partition",
            description="partial WAN partition: a flow slice blackholes both ways",
            build=_wan_partition,
            duration_s=720.0,
        ),
        CannedCampaign(
            name="broker-storm",
            description="tenant request storm across a controller blackout",
            build=_broker_storm,
            duration_s=720.0,
        ),
    )
}


def build_campaign(
    name: str, seed: int = 0, check_mode: str = "phase"
) -> tuple[PingmeshSystem, ChaosCampaign, CannedCampaign]:
    """Instantiate one canned campaign (system + script), ready to run."""
    try:
        canned = CAMPAIGNS[name]
    except KeyError:
        raise KeyError(
            f"unknown campaign {name!r}; known: {sorted(CAMPAIGNS)}"
        ) from None
    system, campaign = canned.build(seed, check_mode)
    return system, campaign, canned


def run_campaign(
    name: str, seed: int = 0, check_mode: str = "phase"
) -> CampaignReport:
    """Build and run one canned campaign; returns its report."""
    _system_, campaign, canned = build_campaign(name, seed, check_mode)
    return campaign.run(canned.duration_s, phase_s=canned.phase_s)
