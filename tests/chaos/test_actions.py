"""Each action must inflict exactly its fault, then heal it completely."""

from __future__ import annotations

import pytest

from repro.chaos import (
    ControllerBlackout,
    CosmosBlackout,
    MemorySqueeze,
    PinglistKillSwitch,
    PodsetPowerLoss,
    ReplicaFlap,
    ScenarioAction,
    VipBlackout,
)

from tests.chaos.conftest import make_system


def test_replica_flap_round_trip(system):
    action = ReplicaFlap("controller0")
    action.start(system, t=10.0)
    assert not system.controller.replicas["controller0"].up
    action.end(system, t=20.0)
    replica = system.controller.replicas["controller0"]
    assert replica.up
    assert replica.generation == system.controller.generation


def test_controller_blackout_downs_every_replica(system):
    action = ControllerBlackout()
    action.start(system, t=10.0)
    assert all(not r.up for r in system.controller.replicas.values())
    action.end(system, t=20.0)
    assert all(r.up for r in system.controller.replicas.values())


def test_kill_switch_empties_and_regenerates_files(system):
    from repro.core.controller.service import PinglistNotFoundError

    server_id = next(iter(system.agents))
    action = PinglistKillSwitch()
    action.start(system, t=10.0)
    # Killed, not just empty: lazy rendering must not resurrect the files.
    assert all(
        r.killed and not r.files for r in system.controller.replicas.values()
    )
    with pytest.raises(PinglistNotFoundError):
        system.controller.get_pinglist(server_id, t=10.0)
    action.end(system, t=99.0)
    for replica in system.controller.replicas.values():
        assert not replica.killed
        assert replica.serve(server_id)
    assert system.controller.last_generated_t == 99.0


def test_cosmos_blackout_swaps_the_upload_fn(system):
    agent = next(iter(system.agents.values()))
    agent.uploader.add({"n": 1})
    action = CosmosBlackout()
    action.start(system, t=10.0)
    assert not agent.uploader.flush(t=10.0)
    assert agent.uploader.stats.upload_failures == 1
    assert agent.uploader.spooled_records == 1  # parked, not discarded
    action.end(system, t=20.0)
    agent.uploader.add({"n": 2})
    # force: skip the backoff window — we only care the transport healed.
    assert agent.uploader.flush(t=20.0, force=True)
    assert agent.uploader.stats.records_replayed == 1
    assert agent.uploader.spooled_records == 0


def test_podset_power_loss_round_trip(system):
    action = PodsetPowerLoss(dc=0, podset=1)
    servers = system.topology.dc(0).servers_in_podset(1)
    action.start(system, t=10.0)
    assert all(not server.is_up for server in servers)
    assert {s.device_id for s in servers} <= action.ground_truth_devices(system)
    action.end(system, t=20.0)
    assert all(server.is_up for server in servers)


def test_vip_blackout_downs_only_the_dips():
    system = make_system(vips=None)
    dips = tuple(
        server.device_id
        for server in system.topology.dc(0).servers_in_podset(0)[:2]
    )
    system = make_system(vips={"search.vip": dips})
    system.start()
    action = VipBlackout("search.vip")
    action.start(system, t=10.0)
    for dip in dips:
        assert not system.topology.server(dip).is_up
    assert action.ground_truth_devices(system) == set(dips)
    action.end(system, t=20.0)
    for dip in dips:
        assert system.topology.server(dip).is_up


def test_vip_blackout_unknown_vip_raises(system):
    with pytest.raises(KeyError, match="no VIP"):
        VipBlackout("nope.vip").start(system, t=0.0)


def test_memory_squeeze_saves_and_restores_caps(system):
    victim = next(iter(system.agents))
    before = system.agents[victim].memory_cap_mb
    action = MemorySqueeze([victim], cap_mb=1.0)
    action.start(system, t=10.0)
    assert system.agents[victim].memory_cap_mb == 1.0
    action.end(system, t=20.0)
    assert system.agents[victim].memory_cap_mb == before


def test_scenario_action_applies_and_reverts(system):
    action = ScenarioAction("tor-blackhole", pod=0)
    assert action.ground_truth_devices(system) == set()
    action.start(system, t=10.0)
    assert action.ground_truth_devices(system)
    assert system.fabric.faults.faulted_switch_ids()
    action.end(system, t=20.0)
    assert not system.fabric.faults.faulted_switch_ids()


def test_scenario_action_passes_its_kwargs_to_the_scenario(system):
    action = ScenarioAction("podset-down", podset=1)
    servers = system.topology.dc(0).servers_in_podset(1)
    action.start(system, t=10.0)
    assert all(not server.is_up for server in servers)
    assert action.ground_truth_devices(system) == {s.device_id for s in servers}
    action.end(system, t=20.0)
    assert all(server.is_up for server in servers)
