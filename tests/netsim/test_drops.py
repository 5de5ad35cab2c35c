"""Tests for the Table-1-calibrated baseline drop model."""

import dataclasses

import pytest

from repro.netsim.addressing import FiveTuple
from repro.netsim.drops import DropBudget, DropModel
from repro.netsim.routing import Router
from repro.netsim.topology import MultiDCTopology, TopologySpec
from repro.netsim.workload import PROFILES, profile_for


@pytest.fixture(scope="module")
def multi():
    return MultiDCTopology.single(TopologySpec())


@pytest.fixture(scope="module")
def router(multi):
    return Router(multi)


def _paths(multi, router, src, dst):
    flow = FiveTuple(src.ip, 50_000, dst.ip, 81)
    return router.path(src, dst, flow), router.path(dst, src, flow.reversed())


class TestDropBudget:
    def test_budget_components_positive(self):
        for name, profile in PROFILES.items():
            budget = DropBudget.from_profile(profile)
            assert budget.host_side > 0, name
            assert budget.tor > 0, name
            assert budget.leaf > 0, name
            assert budget.spine > 0, name

    def test_infeasible_targets_rejected(self):
        profile = profile_for("throughput")
        # Inter barely above intra leaves no fabric budget.
        bad = dataclasses.replace(
            profile, intra_pod_drop=5e-5, inter_pod_drop=5.5e-5
        )
        with pytest.raises(ValueError):
            DropBudget.from_profile(bad)

    def test_leaf_gets_larger_share_than_spine(self):
        budget = DropBudget.from_profile(profile_for("throughput"))
        assert budget.leaf * 2 > budget.spine  # two leaf traversals dominate


class TestCalibration:
    @pytest.mark.parametrize(
        "profile_name",
        ["dc1-us-west", "dc2-us-central", "dc3-us-east", "dc4-europe", "dc5-asia"],
    )
    def test_attempt_drop_matches_targets(self, multi, router, profile_name):
        """The analytic per-attempt drop equals the Table 1 target."""
        profile = profile_for(profile_name)
        model = DropModel(profile)
        dc = multi.dc(0)

        intra_fwd, intra_rev = _paths(multi, router, *dc.servers_in_pod(0)[:2])
        intra = model.attempt_drop_prob(intra_fwd, intra_rev)
        assert intra == pytest.approx(profile.intra_pod_drop, rel=0.01)

        a = dc.servers_in_podset(0)[0]
        b = dc.servers_in_podset(1)[0]
        inter_fwd, inter_rev = _paths(multi, router, a, b)
        inter = model.attempt_drop_prob(inter_fwd, inter_rev)
        assert inter == pytest.approx(profile.inter_pod_drop, rel=0.01)

    def test_inter_pod_exceeds_intra_pod(self, multi, router):
        """Table 1: 'most of the packet drops happen in the network'."""
        model = DropModel(profile_for("throughput"))
        dc = multi.dc(0)
        intra = model.attempt_drop_prob(
            *_paths(multi, router, *dc.servers_in_pod(0)[:2])
        )
        inter = model.attempt_drop_prob(
            *_paths(
                multi,
                router,
                dc.servers_in_podset(0)[0],
                dc.servers_in_podset(1)[0],
            )
        )
        assert inter > 2 * intra

    def test_intra_podset_between_intra_and_inter(self, multi, router):
        model = DropModel(profile_for("throughput"))
        dc = multi.dc(0)
        intra_pod = model.attempt_drop_prob(
            *_paths(multi, router, *dc.servers_in_pod(0)[:2])
        )
        intra_podset = model.attempt_drop_prob(
            *_paths(
                multi, router, dc.servers_in_pod(0)[0], dc.servers_in_pod(1)[0]
            )
        )
        cross_podset = model.attempt_drop_prob(
            *_paths(
                multi,
                router,
                dc.servers_in_podset(0)[0],
                dc.servers_in_podset(1)[0],
            )
        )
        assert intra_pod < intra_podset < cross_podset

    def test_direction_drop_symmetrical_for_same_scope(self, multi, router):
        model = DropModel(profile_for("throughput"))
        dc = multi.dc(0)
        fwd, rev = _paths(multi, router, *dc.servers_in_pod(0)[:2])
        assert model.direction_drop_prob(fwd) == pytest.approx(
            model.direction_drop_prob(rev)
        )

    def test_hop_drop_prob_rejects_server_kind(self):
        from repro.netsim.devices import DeviceKind

        model = DropModel(profile_for("throughput"))
        with pytest.raises(ValueError):
            model.hop_drop_prob(DeviceKind.SERVER)
        # The switch tiers read the budget's own numbers.
        assert model.hop_drop_prob(DeviceKind.TOR) is model.budget.tor
        assert model.hop_drop_prob(DeviceKind.BORDER) is model.budget.border

    def test_wan_adds_drop_probability(self):
        multi = MultiDCTopology(
            [
                TopologySpec(name="w", region="us-west"),
                TopologySpec(name="e", region="europe"),
            ]
        )
        router = Router(multi)
        model = DropModel(profile_for("throughput"))
        a = multi.dc(0).servers[0]
        b = multi.dc(1).servers[0]
        inter_dc = model.attempt_drop_prob(*_paths(multi, router, a, b))
        c = multi.dc(0).servers_in_podset(1)[0]
        intra_dc = model.attempt_drop_prob(*_paths(multi, router, a, c))
        assert inter_dc > intra_dc
