"""Tests for the Autopilot environment wiring."""

import pytest

from repro.autopilot.environment import AutopilotEnvironment
from repro.autopilot.shared_service import SharedService
from repro.netsim.fabric import Fabric
from repro.netsim.topology import TopologySpec


@pytest.fixture()
def env():
    fabric = Fabric.single_dc(TopologySpec(), seed=1)
    return AutopilotEnvironment("test-env", fabric)


class CountingService(SharedService):
    """A service that reports a fixed counter."""

    def perf_counters(self, now):
        counters = super().perf_counters(now)
        counters["heartbeat"] = 1.0
        return counters


class TestDeployment:
    def test_deploy_to_all_servers(self, env):
        instances = env.deploy_shared_service(
            lambda server_id: CountingService("svc", server_id)
        )
        n_servers = env.fabric.topology.n_servers
        assert len(instances) == n_servers
        assert all(instance.running for instance in instances)

    def test_deploy_to_subset(self, env):
        servers = [s.device_id for s in env.fabric.topology.all_servers()[:3]]
        instances = env.deploy_shared_service(
            lambda server_id: CountingService("svc", server_id), servers=servers
        )
        assert len(instances) == 3

    def test_duplicate_deploy_rejected(self, env):
        servers = [env.fabric.topology.all_servers()[0].device_id]
        env.deploy_shared_service(
            lambda sid: CountingService("svc", sid), servers=servers
        )
        with pytest.raises(ValueError):
            env.deploy_shared_service(
                lambda sid: CountingService("svc", sid), servers=servers
            )


class TestOperation:
    def test_pa_collects_deployed_counters(self, env):
        env.deploy_shared_service(lambda sid: CountingService("svc", sid))
        env.start_services()
        env.run_for(600.0)
        server_id = env.fabric.topology.all_servers()[0].device_id
        series = env.perfcounter.series(server_id, "heartbeat")
        assert len(series) == 2  # default PA period is 300 s

    def test_run_for_advances_clock(self, env):
        env.run_for(1234.0)
        assert env.clock.now == 1234.0
