"""Tests for the software load balancer."""

import pytest

from repro.core.controller.slb import NoHealthyBackendError, SoftwareLoadBalancer


class TestConstruction:
    def test_needs_backends(self):
        with pytest.raises(ValueError):
            SoftwareLoadBalancer("vip", [])

    def test_rejects_duplicate_dips(self):
        with pytest.raises(ValueError):
            SoftwareLoadBalancer("vip", ["a", "a"])


class TestDispatch:
    def test_round_robin(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b", "c"])
        assert [slb.pick() for _ in range(6)] == ["a", "b", "c", "a", "b", "c"]

    def test_unhealthy_backend_skipped(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b", "c"])
        slb.backends["b"].healthy = False
        picks = [slb.pick() for _ in range(4)]
        assert "b" not in picks
        assert set(picks) == {"a", "c"}

    def test_no_healthy_backend_raises(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b"])
        slb.backends["a"].healthy = False
        slb.backends["b"].healthy = False
        with pytest.raises(NoHealthyBackendError):
            slb.pick()

    def test_recovered_backend_readmitted(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b"])
        slb.backends["a"].healthy = False
        slb.backends["a"].healthy = True
        assert "a" in [slb.pick() for _ in range(2)]

    def test_request_accounting(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b"])
        for _ in range(4):
            slb.pick()
        assert slb.requests_total == 4
        assert slb.backends["a"].requests_served == 2

    def test_unknown_dip_raises(self):
        slb = SoftwareLoadBalancer("vip", ["a"])
        with pytest.raises(KeyError):
            slb.report_failure("ghost")


class TestHealthChecks:
    def test_health_check_ejects_dead_backends(self):
        alive = {"a": True, "b": False}
        slb = SoftwareLoadBalancer("vip", ["a", "b"], health_check=alive.get)
        out = slb.run_health_checks()
        assert out == ["b"]
        assert slb.healthy_dips() == ["a"]

    def test_health_check_readmits_recovered(self):
        alive = {"a": False}
        slb = SoftwareLoadBalancer("vip", ["a"], health_check=alive.get)
        slb.run_health_checks()
        alive["a"] = True
        slb.run_health_checks()
        assert slb.pick() == "a"



class TestChurn:
    def test_flapping_backend_serves_only_while_healthy(self):
        alive = {"a": True, "b": True}
        slb = SoftwareLoadBalancer("vip", ["a", "b"], health_check=alive.get)
        picks = []
        for round_index in range(60):
            alive["b"] = round_index % 2 == 0  # flaps every round
            slb.run_health_checks()
            picks.append(slb.pick())
        assert picks.count("a") > picks.count("b")
        assert "b" in picks  # it does serve during its healthy rounds

    def test_accounting_survives_churn(self):
        slb = SoftwareLoadBalancer("vip", ["a", "b", "c"])
        for i in range(30):
            if i == 10:
                slb.backends["a"].healthy = False
            if i == 20:
                slb.backends["a"].healthy = True
            slb.pick()
        assert slb.requests_total == 30
        assert sum(b.requests_served for b in slb.backends.values()) == 30
