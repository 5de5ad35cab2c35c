"""Runtime topology growth: a new podset lands and Pingmesh absorbs it."""

import pytest

from repro.core.agent.agent import AgentConfig
from repro.core.dsa.pipeline import DsaConfig
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import MultiDCTopology, TopologySpec


class TestTopologyGrowth:
    def test_add_podset_extends_the_clos(self):
        topo = MultiDCTopology.single(TopologySpec())
        dc = topo.dc(0)
        before_servers = dc.spec.n_servers
        before_pods = dc.spec.n_pods
        new_servers = dc.add_podset()
        assert dc.spec.n_podsets == 3
        assert dc.spec.n_pods == before_pods + dc.spec.pods_per_podset
        assert len(dc.servers) == before_servers + len(new_servers)
        # New devices resolve through the usual lookups.
        for server in new_servers:
            assert topo.server(server.device_id) is server
            assert dc.tor_of(server).pod_index == server.pod_index
        # IPs stay unique fleet-wide.
        ips = {server.ip for server in dc.servers}
        assert len(ips) == len(dc.servers)

    def test_new_podset_is_routable(self):
        from repro.netsim.fabric import Fabric

        topo = MultiDCTopology.single(TopologySpec())
        fabric = Fabric(topo, seed=1)
        new_servers = topo.dc(0).add_podset()
        old = topo.dc(0).servers[0]
        result = fabric.probe(old, new_servers[0])
        assert result.success
        assert result.scope.value == "intra-dc"

    def test_system_absorbs_growth_end_to_end(self):
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(TopologySpec(),),
                seed=12,
                dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
                agent=AgentConfig(upload_period_s=120.0),
            )
        )
        system.run_for(200.0)
        old_generation = system.controller.generation
        old_agent = next(iter(system.agents.values()))
        old_peer_count = len(old_agent.pinglist)

        new_ids = system.add_podset()
        assert system.controller.generation == old_generation + 1
        assert all(server_id in system.agents for server_id in new_ids)

        # Existing agents pick up the wider ToR-level graph at refresh.
        old_agent.refresh_pinglist(system.clock.now)
        assert len(old_agent.pinglist) > old_peer_count

        system.run_for(400.0)
        new_agent = system.agents[new_ids[0]]
        assert new_agent.probes_sent > 0
        # New servers' data flows into the same analysis stream.
        new_rows = [
            row
            for row in system.store.read("pingmesh/latency")
            if row["src"] == new_ids[0]
        ]
        assert new_rows

    def test_growth_requires_started_system(self):
        system = PingmeshSystem(
            PingmeshSystemConfig(specs=(TopologySpec(),), seed=1)
        )
        with pytest.raises(RuntimeError):
            system.add_podset()

    def test_heatmap_covers_the_new_pods(self):
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(TopologySpec(),),
                seed=14,
                dsa=DsaConfig(ingestion_delay_s=0.0, near_real_time_period_s=300.0),
                agent=AgentConfig(upload_period_s=120.0),
            )
        )
        system.run_for(100.0)
        system.add_podset()
        system.run_for(650.0)
        heatmap = system.dsa.latest_heatmap(0, t=system.clock.now)
        assert heatmap.n_pods == system.topology.dc(0).spec.n_pods
        # The new pods' cells carry data (their agents probe + are probed).
        new_pod = heatmap.n_pods - 1
        import numpy as np

        assert not np.isnan(heatmap.p99_us[new_pod, :]).all()
