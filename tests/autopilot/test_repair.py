"""Tests for DM + Repair Service over the fabric."""

import pytest

from repro.autopilot.device_manager import DeviceManager
from repro.autopilot.repair import RepairService
from repro.netsim.fabric import Fabric
from repro.netsim.faults import BlackholeType1, SilentRandomDrop
from repro.netsim.simclock import SECONDS_PER_DAY
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def fabric():
    return Fabric.single_dc(TopologySpec(), seed=1)


@pytest.fixture()
def dm():
    return DeviceManager()


@pytest.fixture()
def rs(dm, fabric):
    return RepairService(dm, fabric, max_reloads_per_day=3)


class TestDeviceManager:
    def test_duplicate_pending_requests_coalesce(self, dm):
        first = dm.request_repair("tor", "reload_switch", "a", t=0.0)
        second = dm.request_repair("tor", "reload_switch", "b", t=1.0)
        assert first is second
        assert len(dm.pending) == 1

    def test_different_actions_do_not_coalesce(self, dm):
        dm.request_repair("tor", "reload_switch", "a", t=0.0)
        dm.request_repair("tor", "rma_switch", "b", t=1.0)
        assert len(dm.pending) == 2

    def test_take_pending_drains(self, dm):
        dm.request_repair("tor", "reload_switch", "a", t=0.0)
        taken = dm.take_pending()
        assert len(taken) == 1
        assert dm.pending == []


class TestRepairService:
    def test_reload_clears_blackhole_and_completes(self, fabric, dm, rs):
        tor = fabric.topology.dc(0).tors[0]
        fabric.faults.inject(BlackholeType1(switch_id=tor.device_id, fraction=1.0))
        dm.request_repair(tor.device_id, "reload_switch", "black-hole", t=0.0)
        actions = rs.process_queue(now=0.0)
        assert len(actions) == 1
        assert actions[0].executed
        assert tor.reload_count == 1
        assert not fabric.faults.faults_on(tor.device_id)

    def test_daily_reload_budget_enforced(self, fabric, dm, rs):
        tors = fabric.topology.dc(0).tors
        for tor in tors[:5]:
            dm.request_repair(tor.device_id, "reload_switch", "bh", t=0.0)
        actions = rs.process_queue(now=0.0)
        assert len(actions) == 3  # max_reloads_per_day=3
        assert len(dm.pending) == 2  # deferred, not dropped

    def test_budget_replenishes_next_day(self, fabric, dm, rs):
        tors = fabric.topology.dc(0).tors
        for tor in tors[:5]:
            dm.request_repair(tor.device_id, "reload_switch", "bh", t=0.0)
        rs.process_queue(now=0.0)
        actions = rs.process_queue(now=SECONDS_PER_DAY + 1.0)
        assert len(actions) == 2
        assert sum(a.action == "reload_switch" for a in rs.actions) == 5

    def test_budget_counters(self, fabric, dm, rs):
        assert rs.reload_budget_left(0.0) == 3
        dm.request_repair(
            fabric.topology.dc(0).tors[0].device_id, "reload_switch", "bh", t=0.0
        )
        rs.process_queue(now=0.0)
        assert rs.reloads_in_last_day(1.0) == 1
        assert rs.reload_budget_left(1.0) == 2

    def test_rma_isolates_switch(self, fabric, dm, rs):
        spine = fabric.topology.dc(0).spines[0]
        fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.02)
        )
        dm.request_repair(spine.device_id, "rma_switch", "silent drops", t=0.0)
        rs.process_queue(now=0.0)
        assert not spine.is_up

    def test_rma_not_rate_limited(self, fabric, dm, rs):
        for spine in fabric.topology.dc(0).spines:
            dm.request_repair(spine.device_id, "rma_switch", "bad", t=0.0)
        actions = rs.process_queue(now=0.0)
        assert len(actions) == 4

    def test_reboot_server(self, fabric, dm, rs):
        server = fabric.topology.dc(0).servers[0]
        server.bring_down()
        dm.request_repair(server.device_id, "reboot_server", "hung", t=0.0)
        rs.process_queue(now=0.0)
        assert server.is_up

    def test_unknown_action_rejected(self, fabric, dm, rs):
        dm.request_repair("dc0/spine0", "format_disk", "?", t=0.0)
        with pytest.raises(ValueError):
            rs.process_queue(now=0.0)

    def test_invalid_budget_rejected(self, dm, fabric):
        with pytest.raises(ValueError):
            RepairService(dm, fabric, max_reloads_per_day=0)
