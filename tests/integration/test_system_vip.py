"""End-to-end VIP monitoring (§6.2)."""

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import TopologySpec


def _build(vips, seed=21):
    return PingmeshSystem(
        PingmeshSystemConfig(
            specs=(TopologySpec(),),
            seed=seed,
            dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
            agent=AgentConfig(upload_period_s=120.0),
            vips=vips,
        )
    )


@pytest.fixture()
def system():
    spec = TopologySpec()
    dips = tuple(f"{spec.name}/ps1/pod4/srv{i}" for i in range(3))
    return _build({"search.vip": dips})


class TestVipMonitoring:
    def test_vip_appears_in_pinglists(self, system):
        pinglist = system.controller.get_pinglist("dc0/ps0/pod0/srv0")
        vips = pinglist.peers_by_purpose("vip")
        assert [entry.peer_id for entry in vips] == ["search.vip"]

    def test_vip_probes_recorded(self, system):
        system.run_for(400.0)
        vip_rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["purpose"] == "vip"
        ]
        assert vip_rows
        assert all(row["success"] for row in vip_rows)
        # Probes were load-balanced over the DIPs behind the VIP.
        dips_hit = {row["dst"] for row in vip_rows}
        assert len(dips_hit) == 3

    def test_dark_vip_measured_as_failures(self, system):
        system.run_for(200.0)
        for dip in system.config.vips["search.vip"]:
            system.topology.server(dip).bring_down()
        system.run_for(300.0)
        rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["purpose"] == "vip" and row["t"] > 200.0
        ]
        assert rows
        assert all(not row["success"] for row in rows)
        assert all(row["error"] == "vip_down" for row in rows)

    def test_vip_recovers_with_one_dip(self, system):
        dips = system.config.vips["search.vip"]
        for dip in dips:
            system.topology.server(dip).bring_down()
        system.topology.server(dips[1]).bring_up()
        system.run_for(300.0)
        rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["purpose"] == "vip"
        ]
        ok = [row for row in rows if row["success"]]
        assert ok
        assert {row["dst"] for row in ok} == {dips[1]}

    def test_vip_rows_do_not_pollute_heatmap(self, system):
        for dip in system.config.vips["search.vip"]:
            system.topology.server(dip).bring_down()
        system.run_for(650.0)
        # Heatmap builds fine and the network still classifies by its real
        # state (one pod has down servers; the rest is normal).
        heatmap = system.dsa.latest_heatmap(0, t=system.clock.now)
        assert heatmap.n_pods == 8


class TestVipDuringIncidents:
    def test_dark_vip_plus_silent_drops_keeps_pipeline_healthy(self):
        """A dark VIP must not break silent-drop localization (the VIP is a
        logical target traceroute cannot resolve)."""
        from repro.netsim.faults import SilentRandomDrop

        spec = TopologySpec()
        dips = tuple(f"{spec.name}/ps1/pod4/srv{i}" for i in range(2))
        system = _build({"search.vip": dips}, seed=31)
        system.run_for(100.0)
        for dip in dips:
            system.topology.server(dip).bring_down()
        spine = system.topology.dc(0).spines[0]
        system.fabric.faults.inject(
            SilentRandomDrop(switch_id=spine.device_id, drop_prob=0.05)
        )
        system.run_for(700.0)
        assert [run for run in system.job_manager.runs if run.error] == []
        assert system.dsa.incidents  # the real incident was still found
        localized = {i.localized_switch for i in system.dsa.incidents}
        assert spine.device_id in localized

    def test_vip_rows_do_not_enter_podpair_table(self):
        spec = TopologySpec()
        dips = (f"{spec.name}/ps1/pod4/srv0",)
        system = _build({"search.vip": dips}, seed=32)
        system.topology.server(dips[0]).bring_down()
        system.run_for(650.0)
        rows = system.database.query("podpair_10min")
        assert rows
        assert all(row["dst_pod"] >= 0 for row in rows)


class TestVipAfterGrowth:
    """add_podset must wire new agents identically to start() — including
    the VIP resolver (the growth path used to silently drop it, so agents
    on new podsets skipped every vip-purpose entry forever)."""

    def test_new_agents_get_the_vip_resolver(self, system):
        system.run_for(120.0)
        new_ids = system.add_podset()
        for server_id in new_ids:
            assert system.agents[server_id].vip_resolver is not None

    def test_new_agents_actually_probe_the_vip(self, system):
        system.run_for(120.0)
        new_ids = system.add_podset()
        system.run_for(600.0)
        new_set = set(new_ids)
        vip_rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["purpose"] == "vip" and row["src"] in new_set
        ]
        assert vip_rows, "agents on the grown podset must measure the VIP"

    def test_growth_without_vips_still_omits_resolver(self):
        system = _build({})
        system.start()
        new_ids = system.add_podset()
        for server_id in new_ids:
            assert system.agents[server_id].vip_resolver is None
