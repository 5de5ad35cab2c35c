"""Tests for the replicated controller web service (§3.3.2)."""

import pytest

from repro.core.controller.generator import GeneratorConfig
from repro.core.controller.pinglist import Pinglist
from repro.core.controller.service import (
    REQUEST_HISTORY_S,
    ControllerUnavailableError,
    PinglistNotFoundError,
    PingmeshControllerService,
)
from repro.core.system import PingmeshSystem, PingmeshSystemConfig
from repro.netsim.topology import MultiDCTopology, TopologySpec


@pytest.fixture()
def topology():
    return MultiDCTopology.single(TopologySpec())


@pytest.fixture()
def service(topology):
    service = PingmeshControllerService(topology, n_replicas=2)
    service.regenerate()
    return service


class TestGeneration:
    def test_regenerate_is_lazy_until_served(self, service):
        """Regeneration renders nothing: each replica's cache fills on
        first GET, holding exactly what was actually served."""
        for replica in service.replicas.values():
            assert replica.files == {}
            assert replica.generation == 1
        replica = service.replicas["controller0"]
        assert replica.serve("dc0/ps0/pod0/srv0")
        assert set(replica.files) == {"dc0/ps0/pod0/srv0"}

    def test_every_server_servable_after_regenerate(self, service, topology):
        replica = service.replicas["controller0"]
        for server in topology.all_servers():
            assert replica.serve(server.device_id)
        assert len(replica.files) == topology.n_servers

    def test_regenerate_bumps_generation(self, service):
        assert service.regenerate() == 2
        assert service.get_pinglist("dc0/ps0/pod0/srv0").generation == 2

    def test_replicas_serve_identical_content(self, service, topology):
        first, second = service.replicas.values()
        for server in topology.all_servers():
            assert first.serve(server.device_id) == second.serve(server.device_id)
        assert first.files == second.files

    def test_a_started_fleet_leaves_pinglists_not_text(self):
        system = PingmeshSystem(
            PingmeshSystemConfig(
                specs=(TopologySpec(n_podsets=2, pods_per_podset=2, servers_per_pod=2),)
            )
        )
        system.start()
        files = [f for r in system.controller.replicas.values() for f in r.files.values()]
        assert len(files) == len(system.agents)
        assert not any(isinstance(f, str) for f in files)

    def test_serve_renders_the_held_pinglist(self, service):
        replica = service.replicas["controller0"]
        first = replica.serve("dc0/ps0/pod0/srv0")
        assert replica.serve("dc0/ps0/pod0/srv0") == first
        assert first == replica.files["dc0/ps0/pod0/srv0"].to_xml()

    def test_needs_at_least_one_replica(self, topology):
        with pytest.raises(ValueError):
            PingmeshControllerService(topology, n_replicas=0)


class TestServing:
    def test_get_pinglist_roundtrip(self, service, topology):
        server_id = topology.dc(0).servers[5].device_id
        pinglist = service.get_pinglist(server_id)
        assert pinglist.server_id == server_id
        assert len(pinglist) > 0

    def test_unknown_server_is_404(self, service):
        with pytest.raises(PinglistNotFoundError):
            service.get_pinglist("dc9/ghost")

    def test_requests_spread_over_replicas(self, service):
        for _ in range(10):
            service.get_pinglist("dc0/ps0/pod0/srv0")
        served = [replica.requests_served for replica in service.replicas.values()]
        assert served == [5, 5]

    def test_one_replica_down_is_transparent(self, service):
        service.fail_replica("controller0")
        pinglist = service.get_pinglist("dc0/ps0/pod0/srv0")
        assert pinglist is not None
        assert service.healthy_replica_count() == 1

    def test_all_replicas_down_is_unavailable(self, service):
        service.fail_replica("controller0")
        service.fail_replica("controller1")
        with pytest.raises(ControllerUnavailableError):
            service.get_pinglist("dc0/ps0/pod0/srv0")

    def test_recovered_replica_regenerates_same_files(self, service, topology):
        service.fail_replica("controller0")
        service.regenerate()  # only controller1 gets generation 2
        service.recover_replica("controller0")
        recovered = service.replicas["controller0"]
        survivor = service.replicas["controller1"]
        assert recovered.generation == survivor.generation
        for server in topology.all_servers():
            assert recovered.serve(server.device_id) == survivor.serve(
                server.device_id
            )


class TestKillSwitch:
    def test_remove_all_pinglists_serves_404(self, service):
        """'we can stop the Pingmesh Agent from working by simply removing
        all the pinglist files from the controller'."""
        service.remove_all_pinglists()
        with pytest.raises(PinglistNotFoundError):
            service.get_pinglist("dc0/ps0/pod0/srv0")

    def test_regenerate_restores_service(self, service):
        service.remove_all_pinglists()
        service.regenerate()
        assert service.get_pinglist("dc0/ps0/pod0/srv0") is not None


class TestReconfigure:
    def test_reconfigure_changes_pinglists(self, service):
        before = service.get_pinglist("dc0/ps0/pod0/srv0")
        service.generator.config = GeneratorConfig(enable_qos_low=True)
        service.regenerate()
        after = service.get_pinglist("dc0/ps0/pod0/srv0")
        assert len(after) > len(before)
        assert after.generation == before.generation + 1


class TestConditionalGet:
    def test_304_when_generation_current(self, service):
        pinglist = service.get_pinglist("dc0/ps0/pod0/srv0")
        assert (
            service.get_pinglist(
                "dc0/ps0/pod0/srv0", if_generation=pinglist.generation
            )
            is None
        )

    def test_full_body_when_stale(self, service):
        pinglist = service.get_pinglist("dc0/ps0/pod0/srv0")
        service.regenerate()
        fresh = service.get_pinglist(
            "dc0/ps0/pod0/srv0", if_generation=pinglist.generation
        )
        assert fresh is not None
        assert fresh.generation == pinglist.generation + 1

    def test_404_beats_304(self, service):
        """A removed pinglist must 404 even with a matching generation —
        the kill switch cannot be masked by caching."""
        current = service.get_pinglist("dc0/ps0/pod0/srv0").generation
        service.remove_all_pinglists()
        with pytest.raises(PinglistNotFoundError):
            service.get_pinglist("dc0/ps0/pod0/srv0", if_generation=current)

    def test_404_beats_304_on_every_replica(self, service):
        """The failover loop must not find a replica willing to 304 a
        deliberately removed pinglist — on any of them, in any order."""
        current = service.get_pinglist("dc0/ps0/pod0/srv0").generation
        service.remove_all_pinglists()
        for _ in range(2 * len(service.replicas)):  # round-robin both
            with pytest.raises(PinglistNotFoundError):
                service.get_pinglist("dc0/ps0/pod0/srv0", if_generation=current)

    def test_regeneration_after_kill_serves_full_body(self, service):
        """Once the kill switch lifts, a cached generation from before the
        kill is stale: the agent must get the new body, not a 304."""
        before = service.get_pinglist("dc0/ps0/pod0/srv0").generation
        service.remove_all_pinglists()
        service.regenerate()
        fresh = service.get_pinglist("dc0/ps0/pod0/srv0", if_generation=before)
        assert fresh is not None
        assert fresh.generation == before + 1

    def test_brownout_beats_304(self, service):
        """A browned-out replica cannot answer within the timeout, so it
        cannot 304 either — slow must read as a transport failure even
        when the agent's cached generation matches."""
        current = service.get_pinglist("dc0/ps0/pod0/srv0").generation
        for dip in service.replicas:
            service.brownout_replica(
                dip, response_delay_s=service.request_timeout_s + 1.0
            )
        with pytest.raises(ControllerUnavailableError):
            service.get_pinglist("dc0/ps0/pod0/srv0", if_generation=current)

    def test_one_browned_replica_still_304s_via_failover(self, service):
        current = service.get_pinglist("dc0/ps0/pod0/srv0").generation
        service.brownout_replica(
            "controller0", response_delay_s=service.request_timeout_s + 1.0
        )
        assert (
            service.get_pinglist("dc0/ps0/pod0/srv0", if_generation=current)
            is None
        )


class TestTopologyGrowthConsistency:
    def test_replicas_agree_after_growth(self, service, topology):
        """Stateless replicas must generate identical files after the
        topology grows — determinism is what lets any replica serve any
        agent (§3.3.2)."""
        topology.dc(0).add_podset()
        service.regenerate()
        first, second = service.replicas.values()
        for server in topology.all_servers():
            assert first.serve(server.device_id) == second.serve(server.device_id)
        assert len(first.files) == topology.n_servers
        assert first.files == second.files

    def test_new_servers_served_after_growth(self, service, topology):
        new_servers = topology.dc(0).add_podset()
        service.regenerate()
        pinglist = service.get_pinglist(new_servers[0].device_id)
        assert len(pinglist) > 0
        # And existing servers' pinglists now include the new pods.
        old = service.get_pinglist(topology.dc(0).servers[0].device_id)
        new_pods = {server.pod_index for server in new_servers}
        tor_level_pods = {
            topology.server(entry.peer_id).pod_index
            for entry in old.peers_by_purpose("tor-level")
        }
        assert new_pods & tor_level_pods


class TestReplicaRecoveryStamps:
    """recover_replica must rebuild with the fleet's generation stamp.

    The old code regenerated with the default t=0.0, so a recovered
    replica served files whose generatedAt disagreed with its siblings —
    byte-different XML for the "identical file set" the paper promises.
    """

    def test_recovered_files_match_siblings_bytewise(self, service, topology):
        service.regenerate(t=500.0)
        service.fail_replica("controller0")
        service.regenerate(t=900.0)
        service.recover_replica("controller0")
        recovered = service.replicas["controller0"]
        survivor = service.replicas["controller1"]
        for server in topology.all_servers():
            assert recovered.serve(server.device_id) == survivor.serve(
                server.device_id
            )
        assert recovered.files == survivor.files

    def test_recovered_stamp_is_the_fleet_generation_time(self, service):
        service.regenerate(t=900.0)
        service.fail_replica("controller0")
        service.recover_replica("controller0")
        xml = service.replicas["controller0"].serve("dc0/ps0/pod0/srv0")
        assert Pinglist.from_xml(xml).generated_at == 900.0

    def test_explicit_recovery_stamp_wins(self, service):
        service.regenerate(t=900.0)
        service.fail_replica("controller0")
        service.recover_replica("controller0", t=1200.0)
        xml = service.replicas["controller0"].serve("dc0/ps0/pod0/srv0")
        assert Pinglist.from_xml(xml).generated_at == 1200.0

    def test_last_generated_t_tracks_regeneration(self, service):
        assert service.last_generated_t == 0.0
        service.regenerate(t=777.0)
        assert service.last_generated_t == 777.0


class TestDownloadTelemetry:
    """Pinglist downloads are measured: per-replica 200/304/404/timeout
    counters and serving time, aggregated by ``download_stats()``."""

    def test_fresh_get_counts_a_200(self, service):
        assert service.get_pinglist("dc0/ps0/pod0/srv0", t=1.0) is not None
        stats = service.download_stats()
        assert stats["requests"] == 1
        assert stats["responses_200"] == 1
        assert stats["responses_304"] == 0

    def test_conditional_get_counts_a_304(self, service):
        pinglist = service.get_pinglist("dc0/ps0/pod0/srv0", t=1.0)
        cached = service.get_pinglist(
            "dc0/ps0/pod0/srv0", if_generation=pinglist.generation, t=2.0
        )
        assert cached is None
        stats = service.download_stats()
        assert stats["responses_200"] == 1
        assert stats["responses_304"] == 1
        assert stats["requests"] == 2

    def test_kill_switch_404s_are_counted(self, service):
        service.remove_all_pinglists()
        with pytest.raises(PinglistNotFoundError):
            service.get_pinglist("dc0/ps0/pod0/srv0", t=1.0)
        stats = service.download_stats()
        assert stats["responses_404"] == 1
        assert stats["responses_200"] == 0

    def test_brownout_timeouts_counted_separately_not_as_requests(self, service):
        """A browned-out replica attempt fails over: it is a timeout on
        that replica, not an answered request, so it must not inflate
        the answered-request total."""
        service.brownout_replica("controller0", response_delay_s=10.0)
        service.brownout_replica("controller1", response_delay_s=10.0)
        with pytest.raises(ControllerUnavailableError):
            service.get_pinglist("dc0/ps0/pod0/srv0", t=1.0)
        stats = service.download_stats()
        assert stats["responses_timeout"] == 2
        assert stats["requests"] == 0

    def test_serve_time_accumulates_response_delays(self, service):
        service.request_timeout_s = 60.0  # slow, but inside the deadline
        service.brownout_replica("controller0", response_delay_s=2.0)
        service.brownout_replica("controller1", response_delay_s=2.0)
        service.get_pinglist("dc0/ps0/pod0/srv0", t=1.0)
        stats = service.download_stats()
        assert stats["serve_time_s"] == 2.0

    def test_per_replica_breakdown_sums_to_totals(self, service):
        for i in range(6):
            service.get_pinglist("dc0/ps0/pod0/srv0", t=float(i))
        stats = service.download_stats()
        assert stats["requests"] == sum(
            r["requests"] for r in stats["per_replica"].values()
        )
        assert stats["responses_200"] == sum(
            r["responses_200"] for r in stats["per_replica"].values()
        )

    def test_request_history_is_a_trailing_hour(self, service):
        """``requests_by_second`` is herd telemetry, not an archive: it used
        to gain a key per simulated second for the life of the service."""
        step = 30
        for second in range(0, 3 * REQUEST_HISTORY_S, step):
            service.get_pinglist("dc0/ps0/pod0/srv0", t=second + 0.5)
            service.get_pinglist("dc0/ps0/pod0/srv1", t=second + 0.9)
        last = 3 * REQUEST_HISTORY_S - step
        history = service.requests_by_second
        assert list(history) == list(range(last - REQUEST_HISTORY_S, last + 1, step))
        assert set(history.values()) == {2}

